"""Exterior-algebra and Laurent-polynomial kernel tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow.algebra import (
    AlgebraError,
    LaurentPoly,
    Multivector,
    SymbolTable,
    eval_numeric,
    hodge_star,
    wedge,
)

TAB = SymbolTable(("a", "b", "c", "f"), ("a'", "b'", "c'", "f'"))
GENS7 = tuple(f"dx{i}" for i in range(1, 8))


def mv7(indices, coeff=1):
    return Multivector.basis(GENS7, [i - 1 for i in indices], Fraction(coeff))


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def test_wedge_sorted_merge_identity_parity():
    u = mv7([1])
    v = mv7([2])
    assert wedge(u, v) == mv7([1, 2])


def test_wedge_single_transposition():
    assert wedge(mv7([2]), mv7([1])) == mv7([1, 2], -1)


def test_wedge_repeated_generator_vanishes():
    assert wedge(mv7([1]), mv7([1])).is_zero


def test_wedge_rejects_mismatched_generators():
    u = mv7([1])
    v = Multivector.basis(("e1", "e2"), [0], Fraction(1))
    with pytest.raises(AlgebraError):
        wedge(u, v)


@st.composite
def homogeneous_mv(draw, grade=None):
    k = draw(st.integers(0, 3)) if grade is None else grade
    n_terms = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n_terms):
        idx = tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=k, max_size=k))))
        if len(idx) != k:
            continue
        mask = 0
        for i in idx:
            mask |= 1 << i
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        if coeff:
            terms[mask] = terms.get(mask, Fraction(0)) + coeff
    return Multivector(GENS7, {m: c for m, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_graded_anticommutative(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3))
    u = data.draw(homogeneous_mv(grade=p))
    v = data.draw(homogeneous_mv(grade=q))
    lhs = wedge(u, v)
    rhs = wedge(v, u)
    if (p * q) % 2:
        rhs = -rhs
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(homogeneous_mv(), homogeneous_mv(), homogeneous_mv())
def test_wedge_associative(u, v, w):
    assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))


# ---------------------------------------------------------------------------
# hodge star
# ---------------------------------------------------------------------------


def test_star_dx123_is_dx4567():
    assert hodge_star(mv7([1, 2, 3])) == mv7([4, 5, 6, 7])


def test_star_involution_dim7_all_grades():
    import itertools

    for k in range(8):
        for idx in itertools.combinations(range(1, 8), k):
            u = mv7(idx)
            assert hodge_star(hodge_star(u)) == u


def test_star_square_sign_dim8():
    import itertools

    gens8 = tuple(f"dx{i}" for i in range(8))
    for k in range(9):
        for idx in list(itertools.combinations(range(8), k))[:10]:
            u = Multivector.basis(gens8, list(idx), Fraction(1))
            expect = u if (k * (8 - k)) % 2 == 0 else -u
            assert hodge_star(hodge_star(u)) == expect


# ---------------------------------------------------------------------------
# coframe substitution
# ---------------------------------------------------------------------------


def rescaled(u, scales):
    """Each generator e^i times ``scales[i]``; ``None`` keeps it."""
    return u.substitute({i: ((i, s),) for i, s in enumerate(scales) if s is not None})


def sym_mv(indices, coeff):
    gens = tuple(f"e{i}" for i in range(1, 8))
    return Multivector.basis(gens, [i - 1 for i in indices], coeff)


def test_rescale_identity():
    u = sym_mv([1, 3], LaurentPoly.const(TAB, 7))
    assert rescaled(u, [None] * 7) == u


def test_rescale_multiplicative_on_single_generator():
    u = sym_mv([2], LaurentPoly.const(TAB, 1))
    s = [None] * 7
    s[1] = LaurentPoly.monomial(TAB, 1, {"a": -1})
    once = rescaled(u, s)
    twice = rescaled(once, s)
    assert twice.coefficient([1]) == LaurentPoly.monomial(TAB, 1, {"a": -2})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rescale_distributes_over_wedge(data):
    gens = tuple(f"e{i}" for i in range(1, 8))
    table = SymbolTable(("a", "b"))
    exps = [data.draw(st.integers(-2, 2)) for _ in range(7)]
    scales = [LaurentPoly.monomial(table, 1, {"a": e}) for e in exps]
    i = data.draw(st.integers(0, 6))
    j = data.draw(st.integers(0, 6))
    if i != j:
        u = Multivector.basis(gens, [i], LaurentPoly.const(table, 2))
        v = Multivector.basis(gens, [j], LaurentPoly.const(table, 3))
        assert rescaled(wedge(u, v), scales) == wedge(rescaled(u, scales), rescaled(v, scales))

    # random linear images; generators without one are kept
    images = {}
    for k in range(7):
        if data.draw(st.booleans()):
            continue
        targets = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
        images[k] = tuple(
            (
                t,
                LaurentPoly.monomial(
                    table,
                    Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))),
                    {"a": data.draw(st.integers(-2, 2)), "b": data.draw(st.integers(-2, 2))},
                ),
            )
            for t in targets
        )
    one = LaurentPoly.const(table, 1)
    u = data.draw(homogeneous_mv()).scaled(one)
    v = data.draw(homogeneous_mv()).scaled(one)
    assert wedge(u, v).substitute(images) == wedge(u.substitute(images), v.substitute(images))


def test_substitute_onto_new_generators_needs_every_image():
    u = mv7([1, 2])
    target = ("dt",) + GENS7
    moved = u.substitute({0: ((1, 1),), 1: ((2, 1),)}, target, dt_index=0)
    assert moved == Multivector.basis(target, [1, 2], Fraction(1), dt_index=0)
    with pytest.raises(AlgebraError):
        u.substitute({0: ((1, 1),)}, target, dt_index=0)


# ---------------------------------------------------------------------------
# LaurentPoly ring axioms and evaluation
# ---------------------------------------------------------------------------


@st.composite
def laurent(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        vec = tuple(
            draw(st.integers(-2, 2)) if i < 4 else draw(st.integers(0, 2))
            for i in range(8)
        )
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
        terms[vec] = terms.get(vec, Fraction(0)) + c
    return LaurentPoly(TAB, {v: c for v, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(laurent(), laurent(), laurent())
def test_laurent_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p - p == LaurentPoly.zero(TAB)


def test_eval_examples():
    p = LaurentPoly.monomial(TAB, Fraction(-1, 6), {"f": 1, "a": -1})
    assert eval_numeric(p, {"a": 1.0, "f": -3.0}) == 0.5
    assert eval_numeric(LaurentPoly.const(TAB, Fraction(51, 16)), {}) == 3.1875


def test_eval_zero_with_negative_exponent_raises():
    p = LaurentPoly.monomial(TAB, 1, {"a": -1})
    with pytest.raises(AlgebraError):
        p.eval({"a": 0.0})


def test_max_abs_coefficient_of_numeric_forms():
    a = LaurentPoly.variable(TAB, "a")
    form = Multivector.basis(GENS7, [0], a) + Multivector.basis(GENS7, [1], a * -3)
    assert form.eval_numeric({"a": 0.5}).max_abs_coefficient() == 1.5
    assert form.eval_numeric({"a": 0.0}).max_abs_coefficient() == 0.0  # no terms left
    assert Multivector.zero(GENS7).max_abs_coefficient() == 0.0
    with pytest.raises(AlgebraError, match="numeric"):
        form.max_abs_coefficient()


def test_diff_is_formal_partial():
    p = LaurentPoly.monomial(TAB, Fraction(1, 2), {"a": -2, "f": 1})
    assert p.diff("a") == LaurentPoly.monomial(TAB, -1, {"a": -3, "f": 1})
    assert p.diff("b").is_zero


def test_subs_derivatives():
    p = LaurentPoly.monomial(TAB, 2, {"a'": 1, "b": 1})
    rhs = {"a'": LaurentPoly.monomial(TAB, Fraction(-1, 6), {"f": 1, "a": -1})}
    assert p.subs(rhs) == LaurentPoly.monomial(
        TAB, Fraction(-1, 3), {"f": 1, "a": -1, "b": 1}
    )


@st.composite
def laurent_monomial(draw):
    c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    exps = {n: draw(st.integers(-2, 2)) for n in TAB.base}
    exps.update({n: draw(st.integers(0, 1)) for n in TAB.derivative})
    return LaurentPoly.monomial(TAB, c, exps)


@st.composite
def laurent_images(draw):
    """Images for some symbols of TAB: monomials for the base symbols, which
    carry negative exponents, and binomials for two derivative symbols."""
    images = {}
    for name in TAB.base:
        if draw(st.booleans()):
            c = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 3)))
            exps = {n: draw(st.integers(-2, 2)) for n in TAB.base}
            images[name] = LaurentPoly.monomial(TAB, c, exps)
    for name in draw(st.lists(st.sampled_from(TAB.derivative), max_size=2, unique=True)):
        images[name] = sum(
            (draw(laurent_monomial()) for _ in range(2)), LaurentPoly.zero(TAB)
        )
    return images


@settings(max_examples=60, deadline=None)
@given(laurent(), laurent(), laurent_images())
def test_subs_is_a_ring_homomorphism(p, q, images):
    assert (p + q).subs(images) == p.subs(images) + q.subs(images)
    assert (p * q).subs(images) == p.subs(images) * q.subs(images)
    assert LaurentPoly.const(TAB, Fraction(2, 3)).subs(images) == Fraction(2, 3)


@settings(max_examples=40, deadline=None)
@given(laurent())
def test_subs_moves_to_a_larger_table_and_back_by_name(p):
    assert p.subs({}) == p
    big = SymbolTable(("S",) + TAB.base + ("C",), TAB.derivative)
    moved = p.subs({}, big)
    assert moved.table == big
    assert moved.subs({}, TAB) == p


def test_subs_rejects_an_unplaced_symbol_and_a_non_monomial_pole():
    big = SymbolTable(TAB.base + ("C",), TAB.derivative)
    with pytest.raises(AlgebraError):
        LaurentPoly.variable(big, "C").subs({}, TAB)
    a, b = LaurentPoly.variable(TAB, "a"), LaurentPoly.variable(TAB, "b")
    with pytest.raises(AlgebraError):
        (a**-1).subs({"a": a + b})
    with pytest.raises(AlgebraError):
        (a**-1).subs({"a": LaurentPoly.zero(TAB)})


@settings(max_examples=40, deadline=None)
@given(laurent())
def test_cleared_splits_off_a_monomial_denominator(p):
    num, den = p.cleared()
    assert list(den.terms.values()) == [1]
    assert all(e >= 0 for vec in num.terms for e in vec)
    assert num * den**-1 == p


def test_negative_power_of_monomial():
    p = LaurentPoly.monomial(TAB, Fraction(2), {"a": 1})
    assert p**-2 == LaurentPoly.monomial(TAB, Fraction(1, 4), {"a": -2})


def test_reduce_circle():
    tab = SymbolTable(("C", "S"))
    s2 = LaurentPoly.monomial(tab, 1, {"S": 2})
    reduced = s2.reduce_circle("C", "S")
    expect = LaurentPoly.const(tab, 1) - LaurentPoly.monomial(tab, 1, {"C": 2})
    assert reduced == expect
    mixed = LaurentPoly.monomial(tab, 1, {"S": 3, "C": 1})
    red = mixed.reduce_circle("C", "S")
    want = LaurentPoly.monomial(tab, 1, {"S": 1, "C": 1}) - LaurentPoly.monomial(
        tab, 1, {"S": 1, "C": 3}
    )
    assert red == want


# ---------------------------------------------------------------------------
# contraction (used by the basic-form test)
# ---------------------------------------------------------------------------


def test_contract_signs():
    u = mv7([1, 2, 3])
    assert u.contract(0) == mv7([2, 3])
    assert u.contract(1) == mv7([1, 3], -1)
    assert u.contract(2) == mv7([1, 2])
    assert u.contract(5).is_zero


def test_contract_antiderivation():
    u = mv7([1, 2])
    v = mv7([3, 4])
    uv = wedge(u, v)
    lhs = uv.contract(0)
    rhs = wedge(u.contract(0), v) + wedge(u, v.contract(0))
    assert lhs == rhs
