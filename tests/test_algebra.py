"""Exterior-algebra and Laurent-polynomial kernel tests."""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow.algebra import AlgebraError, FrozenPoly, LaurentPoly, Multivector, SymbolTable
from oracles import coefficient, max_abs_coefficient, perm_sign_sort

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
    assert u.wedge(v) == mv7([1, 2])


def test_wedge_single_transposition():
    assert mv7([2]).wedge(mv7([1])) == mv7([1, 2], -1)


def test_wedge_repeated_generator_vanishes():
    assert mv7([1]).wedge(mv7([1])).is_zero


def test_wedge_rejects_mismatched_generators():
    u = mv7([1])
    v = Multivector.basis(("e1", "e2"), [0], Fraction(1))
    with pytest.raises(AlgebraError):
        u.wedge(v)


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


@seed(24857593773851258162896619868748238571191495352337827996481260602721223779597402652877222755884480851185415547849561)
@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_wedge_graded_anticommutative(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3))
    u = data.draw(homogeneous_mv(grade=p))
    v = data.draw(homogeneous_mv(grade=q))
    lhs = u.wedge(v)
    rhs = v.wedge(u)
    if (p * q) % 2:
        rhs = -rhs
    assert lhs == rhs


@seed(29172102254248774747546573209980552751232952156533352220018867130371190229267133602383925558185668443896523459297199)
@settings(max_examples=40, deadline=None, database=None)
@given(homogeneous_mv(), homogeneous_mv(), homogeneous_mv())
def test_wedge_associative(u, v, w):
    assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))


# ---------------------------------------------------------------------------
# hodge star
# ---------------------------------------------------------------------------


def test_star_dx123_is_dx4567():
    assert mv7([1, 2, 3]).hodge_star() == mv7([4, 5, 6, 7])


def test_star_square_sign_dim8():
    import itertools

    gens8 = tuple(f"dx{i}" for i in range(8))
    for k in range(9):
        for idx in list(itertools.combinations(range(8), k))[:10]:
            u = Multivector.basis(gens8, list(idx), Fraction(1))
            expect = u if (k * (8 - k)) % 2 == 0 else -u
            assert u.hodge_star().hodge_star() == expect


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
    assert coefficient(twice, [1]) == LaurentPoly.monomial(TAB, 1, {"a": -2})


@seed(25077191457081012950355676017547226111794350029082671848293852609389372897170614323704028744428900951572226015763092)
@settings(max_examples=40, deadline=None, database=None)
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
        assert rescaled(u.wedge(v), scales) == rescaled(u, scales).wedge(rescaled(v, scales))

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
    assert u.wedge(v).substitute(images) == u.substitute(images).wedge(v.substitute(images))


def test_basis_and_substitute_signs_match_the_inversion_count():
    """Every ordering of every index subset of up to 4 of 8 generators, and
    each permutation image of the form made of all those subsets, take the
    sign of the permutation that sorts their indices."""
    gens = tuple(f"e{i}" for i in range(8))
    subsets = [s for k in range(5) for s in combinations(range(8), k)]
    for subset in subsets:
        mask = sum(1 << i for i in subset)
        for order in permutations(subset):
            want = {mask: Fraction(perm_sign_sort(order), 3)}
            assert Multivector.basis(gens, order, Fraction(1, 3)).terms == want, order
    form = Multivector(gens, {sum(1 << i for i in s): Fraction(n + 1) for n, s in enumerate(subsets)})
    rng = random.Random(36)
    images = [list(range(8))[::-1]] + [rng.sample(range(8), 8) for _ in range(100)]
    for image in images:
        # moved generators get a weight; the others are kept
        moved = {i: ((j, Fraction(i + 2)),) for i, j in enumerate(image) if i != j}
        want = {}
        for n, s in enumerate(subsets):
            coeff = Fraction(n + 1) * perm_sign_sort([image[i] for i in s])
            for i in s:
                coeff *= i + 2 if i in moved else 1
            want[sum(1 << image[i] for i in s)] = coeff
        assert form.substitute(moved).terms == want, image


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


@seed(17589632703994643850526253121899878181174866115761132815712767654478162622025353073413144887857500805806811686046111)
@settings(max_examples=60, deadline=None, database=None)
@given(laurent(), laurent(), laurent())
def test_laurent_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p - p == LaurentPoly.zero(TAB)


def test_eval_examples():
    p = LaurentPoly.monomial(TAB, Fraction(-1, 6), {"f": 1, "a": -1})
    assert p.eval({"a": 1.0, "f": -3.0}) == 0.5
    assert LaurentPoly.const(TAB, Fraction(51, 16)).eval({}) == 3.1875


def test_eval_zero_with_negative_exponent_raises():
    p = LaurentPoly.monomial(TAB, 1, {"a": -1})
    with pytest.raises(AlgebraError):
        p.eval({"a": 0.0})


def test_max_abs_coefficient_of_numeric_forms():
    a = LaurentPoly.variable(TAB, "a")
    form = Multivector.basis(GENS7, [0], a) + Multivector.basis(GENS7, [1], a * -3)
    assert max_abs_coefficient(form.eval_numeric({"a": 0.5})) == 1.5
    assert max_abs_coefficient(form.eval_numeric({"a": 0.0})) == 0.0  # no terms left
    assert max_abs_coefficient(Multivector.zero(GENS7)) == 0.0
    with pytest.raises(AlgebraError, match="numeric"):
        max_abs_coefficient(form)


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


@seed(25873010207462837606702052950275787408900237006039331529732350919338464424406924867564248428981425214414166582662777)
@settings(max_examples=60, deadline=None, database=None)
@given(laurent(), laurent(), laurent_images())
def test_subs_is_a_ring_homomorphism(p, q, images):
    assert (p + q).subs(images) == p.subs(images) + q.subs(images)
    assert (p * q).subs(images) == p.subs(images) * q.subs(images)
    assert LaurentPoly.const(TAB, Fraction(2, 3)).subs(images) == Fraction(2, 3)


@seed(12755125907315530209657120289079062288272137813197047016070213407265625916460855147101646778263332519857187971673062)
@settings(max_examples=40, deadline=None, database=None)
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


@seed(13071422223403064501201690633763471746623550021442339725050229641842795891732261094060228298658273651865074694049287)
@settings(max_examples=40, deadline=None, database=None)
@given(laurent())
def test_cleared_splits_off_a_monomial_denominator(p):
    num, den = p.cleared()
    assert list(den.terms.values()) == [1]
    assert all(e >= 0 for vec in num.terms for e in vec)
    assert num * den**-1 == p


@pytest.mark.parametrize(
    "poly",
    [
        LaurentPoly.monomial(TAB, 3, {"a": -1}),
        LaurentPoly.const(TAB, 3) + LaurentPoly.variable(TAB, "b"),
        LaurentPoly.variable(TAB, "a") + LaurentPoly.variable(TAB, "b"),
    ],
    ids=["monomial", "constant-plus-term", "two-terms"],
)
def test_constant_value_refuses_every_non_constant_polynomial(poly):
    assert LaurentPoly.const(TAB, Fraction(-2, 3)).constant_value() == Fraction(-2, 3)
    assert LaurentPoly.zero(TAB).constant_value() == 0
    with pytest.raises(AlgebraError, match="not constant"):
        poly.constant_value()


def test_negative_power_of_monomial():
    p = LaurentPoly.monomial(TAB, Fraction(2), {"a": 1})
    assert p**-2 == LaurentPoly.monomial(TAB, Fraction(1, 4), {"a": -2})


# ---------------------------------------------------------------------------
# the zero rule: the constructors drop zero coefficients, the operations
# only accumulate
# ---------------------------------------------------------------------------


def test_a_polynomial_made_with_zero_coefficients_stores_none():
    a, b = (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)
    zero = LaurentPoly(TAB, {a: Fraction(0)})
    assert zero.is_zero and zero == LaurentPoly.zero(TAB) and hash(zero) == hash(LaurentPoly.zero(TAB))
    assert LaurentPoly(TAB, {a: Fraction(0), b: Fraction(2)}).terms == {b: 2}
    assert FrozenPoly(zero).is_zero
    assert LaurentPoly.const(TAB, 0).is_zero
    assert LaurentPoly.monomial(TAB, 0, {"a": -1}).is_zero
    assert (LaurentPoly.variable(TAB, "a") * 0).is_zero


def stored_zeros(value):
    """The zero coefficients stored in a polynomial, or in a form and in its
    polynomial coefficients."""
    found = [c for c in value.terms.values() if isinstance(c, Fraction) and not c]
    for c in value.terms.values():
        if isinstance(c, LaurentPoly):
            found += [c] if c.is_zero else stored_zeros(c)
    return found


def poly(*named):
    """The sum of ``LaurentPoly.monomial(TAB, c, exps)`` over the (c, exps) pairs."""
    return sum((LaurentPoly.monomial(TAB, c, exps) for c, exps in named), LaurentPoly.zero(TAB))


A, B, C = (LaurentPoly.variable(TAB, x) for x in "abc")
ONE = LaurentPoly.const(TAB, 1)


@pytest.mark.parametrize(
    "value,want",
    [
        ((A + B) + (-A), B),
        ((A + B) * (A - B), poly((1, {"a": 2}), (-1, {"b": 2}))),
        ((A * B + 3).diff("a"), B),
        ((A * B + 3).diff("c"), LaurentPoly.zero(TAB)),
        (poly((1, {"a'": 1, "b": 1}), (1, {"b": 1, "c": 1})).subs({"a'": -C}), LaurentPoly.zero(TAB)),
        ((A * A - B).subs({"b": A * A + C}), -C),
        # (a e1 + e2) ^ (a e1 + (1 + a) e2) = (a + a^2 - a) e12
        (
            Multivector(GENS7, {1: A, 2: ONE}).wedge(Multivector(GENS7, {1: A, 2: ONE + A})),
            Multivector(GENS7, {3: A * A}),
        ),
        (Multivector(GENS7, {1: A, 2: B}).wedge(Multivector(GENS7, {1: A, 2: B})), Multivector.zero(GENS7)),
        (Multivector(GENS7, {3: A, 4: B}).contract(0), Multivector(GENS7, {2: A})),
    ],
    ids=["add", "mul", "diff", "diff-to-zero", "subs-to-zero", "subs", "wedge", "wedge-to-zero", "contract"],
)
def test_cancelling_operations_store_no_zero(value, want):
    assert value == want
    assert value.terms.keys() == want.terms.keys()
    assert stored_zeros(value) == []


# a value for each symbol of TAB, a ratio of primes that no other value
# shares, so distinct monomials take distinct values
POINT = tuple(
    Fraction(n, d) for n, d in ((2, 3), (-5, 7), (11, 13), (-17, 19), (23, 29), (-31, 37), (41, 43), (-47, 53))
)


@functools.lru_cache(maxsize=None)
def monomial(vec, point=POINT):
    """The exact value of the monomial of exponent vector ``vec`` at ``point``."""
    return math.prod(x**e for x, e in zip(point, vec))


def value(p, point=POINT):
    """The exact value of a polynomial on TAB at ``point``, term by term."""
    return sum(c * monomial(vec, point) for vec, c in p.terms.items())


def exact(result, want):
    """Whether a polynomial has the value ``want`` at POINT and stores no zero."""
    return value(result) == want and not stored_zeros(result)


@seed(15339550005358171057134984495482803787617992524089240647984084687672277988514016746998597096368255575209746566431280)
@settings(max_examples=60, deadline=None, database=None)
@given(laurent(), laurent(), laurent_images())
def test_the_operations_are_their_definitions_at_a_rational_point(p, q, images):
    """At a rational point ``+`` and ``*`` give the sum and the product of
    the values, ``diff`` the sum of the terms' derivatives and ``subs`` the
    value at the images' values, also where terms cancel, and none of them
    stores a zero coefficient."""
    for x, y in ((p, q), (p + q, -q), (p, -p), (p * q, -(q * p))):
        assert exact(x + y, value(x) + value(y))
    for x, y in ((p, q), (p + q, p - q), (p, -p)):
        assert exact(x * y, value(x) * value(y))
    for i, name in enumerate(TAB.base):
        slope = sum(c * vec[i] * monomial(vec) for vec, c in p.terms.items())
        assert exact(p.diff(name), slope / POINT[i])
    at = tuple(value(images[n]) if n in images else x for n, x in zip(TAB.names, POINT))
    for x in (p, p + q):
        assert exact(x.subs(images), value(x, at))


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
    uv = u.wedge(v)
    lhs = uv.contract(0)
    rhs = u.contract(0).wedge(v) + u.wedge(v.contract(0))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# API guards: each misuse raises its own message
# ---------------------------------------------------------------------------

A = LaurentPoly.variable(TAB, "a")
OTHER_TAB = SymbolTable(("a",))
E01 = ("e0", "e1")

MISUSE = {
    "float scalar": (lambda: LaurentPoly.const(TAB, 0.5), "expected an exact rational scalar, got float"),
    "duplicate base": (lambda: SymbolTable(("a", "a")), "duplicate base symbols"),
    "duplicate derivative": (lambda: SymbolTable(("a",), ("a'", "a'")), "duplicate derivative symbols"),
    "base is a derivative": (
        lambda: SymbolTable(("a", "a'"), ("a'",)),
        "base and derivative symbols must be disjoint",
    ),
    "derivative without base": (
        lambda: SymbolTable(("a",), ("b'",)),
        "derivative symbol \"b'\" has no matching base symbol",
    ),
    "negative derivative exponent": (
        lambda: LaurentPoly.monomial(TAB, 1, {"a'": -1}),
        "negative exponent on derivative symbol \"a'\"",
    ),
    "different tables": (
        lambda: A + LaurentPoly.variable(OTHER_TAB, "a"),
        "LaurentPoly operands use different symbol tables",
    ),
    "inverted derivative symbol": (
        lambda: LaurentPoly.variable(TAB, "a'") ** -1,
        "cannot invert a derivative-symbol monomial",
    ),
    "diff by a derivative symbol": (lambda: A.diff("a'"), "diff is defined on base symbols only"),
    "eval without a value": (lambda: A.eval({"b": 1.0}), "assignment missing symbol 'a'"),
    "13 generators": (
        lambda: Multivector(tuple(f"e{i}" for i in range(13)), {}),
        "at most 12 generators are supported",
    ),
    "mask out of range": (lambda: Multivector(E01, {4: 1}), "subset mask out of range"),
    "repeated basis index": (lambda: Multivector.basis(E01, [1, 1], 1), "basis indices must be distinct"),
    "different dt": (
        lambda: Multivector(E01, {1: 1}, dt_index=0) + Multivector(E01, {1: 1}, dt_index=1),
        "multivectors disagree on the dt generator",
    ),
}


@pytest.mark.parametrize("case", list(MISUSE))
def test_each_misuse_raises_its_message(case):
    call, message = MISUSE[case]
    with pytest.raises(AlgebraError) as got:
        call()
    assert str(got.value) == message
