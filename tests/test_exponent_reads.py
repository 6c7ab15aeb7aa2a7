"""The exponent-layout reads of ``LaurentPoly`` against the loops they replace.

``flow``, ``integrate`` and the display code once read exponent vectors by
hand.  Those loops live on here as reference implementations, and the reads
in ``algebra`` must agree with them: the same decomposition, the same
coefficients, the same term lists bit for bit and in the same order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import _kernel
from holoflow.algebra import AlgebraError, LaurentPoly, Multivector, SymbolTable, term_list
from holoflow.flow import (
    Derivation,
    DerivationError,
    ODESystem,
    _linear_system,
    split_dt,
)
from holoflow.homogeneous import MODEL_SPECS, get_model
from holoflow.integrate import IntegrationError, _compile_terms

MODELS = [("Q", (1, 1, 1)), ("M", (1, 1))]


# ---------------------------------------------------------------------------
# reference implementations: the loops the reads replace
# ---------------------------------------------------------------------------


def reference_linear_system(dt_part, unknowns, table):
    """Each coefficient as sum(A_x * x') + B, by reading exponent vectors."""
    idx = {x: table.index(x + "'") for x in unknowns}
    eqs = []
    for mask, poly in dt_part.sorted_terms():
        a = {x: {} for x in unknowns}
        b = {}
        for vec, c in poly.terms.items():
            deg = sum(vec[table.nbase :])
            if deg == 0:
                b[vec] = c
            elif deg == 1:
                for x, j in idx.items():
                    if vec[j] == 1:
                        nv = list(vec)
                        nv[j] = 0
                        a[x][tuple(nv)] = c
                        break
                else:
                    raise DerivationError("unexpected derivative symbol in equation")
            else:
                raise DerivationError("equation is nonlinear in the derivative symbols")
        eqs.append(
            ({x: LaurentPoly(table, t) for x, t in a.items() if t}, LaurentPoly(table, b))
        )
    return eqs


class NotUnivariate(Exception):
    pass


def reference_univariate_coeffs(poly, name):
    idx = poly.table.index(name)
    deg = 0
    for vec, _ in poly.terms.items():
        for i, e in enumerate(vec):
            if i != idx and e != 0:
                raise NotUnivariate("expected a univariate slope equation")
        deg = max(deg, vec[idx])
    coeffs = [Fraction(0)] * (deg + 1)
    for vec, c in poly.terms.items():
        coeffs[vec[idx]] += c
    return coeffs


def reference_compile_terms(sys):
    names = sys.state
    nstate = len(names) + 1  # plus primitive
    coeffs, exps, owner = [], [], []
    col = {n: sys.table.index(n) for n in names}
    for i, n in enumerate(names):
        for vec, c in sys.rhs[n].sorted_terms():
            if any(vec[sys.table.nbase :]):
                raise IntegrationError("right-hand side contains derivative symbols")
            for j, e in enumerate(vec[: sys.table.nbase]):
                if e and sys.table.base[j] not in names:
                    raise IntegrationError("right-hand side uses a non-state symbol")
            coeffs.append(float(c))
            owner.append(i)
            exps.extend(int(vec[col[m]]) for m in names)
            exps.append(0)  # primitive never feeds back
    # primitive' = last state symbol
    coeffs.append(1.0)
    owner.append(nstate - 1)
    exps.extend(1 if m == names[-1] else 0 for m in names)
    exps.append(0)
    return coeffs, exps, owner, nstate


def reference_closure_terms(deriv):
    """The four closure forms' term lists, with the forms' ``ends``."""
    table = deriv.struct.table
    coeffs, exps, owner, ends = [], [], [], []
    n = 0
    for form in (deriv.struct.Omega, deriv.cert.eta, deriv.d_Omega, deriv.cert.d_eta):
        for _, poly in form.sorted_terms():
            assert poly.table == table
            for vec, c in poly.sorted_terms():
                coeffs.append(float(c))
                exps.extend(vec)
                owner.append(n)
            n += 1
        ends.append(n)
    return coeffs, exps, owner, n, tuple(ends)


def reference_repr(poly):
    if not poly.terms:
        return "0"
    bits = []
    for vec, c in poly.sorted_terms():
        factors = [str(c)]
        for name, e in zip(poly.table.names, vec):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append(f"{name}^{e}")
        bits.append("*".join(factors))
    return " + ".join(bits)


def bits(floats):
    return [x.hex() for x in floats]


# ---------------------------------------------------------------------------
# strategies: random tables with derivative symbols, random polynomials
# ---------------------------------------------------------------------------

POOL = ("a", "b", "c", "f", "u", "v", "S")
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def tables(draw, min_derivatives=0):
    base = tuple(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=5, unique=True)))
    moving = draw(st.lists(st.sampled_from(base), unique=True, min_size=min_derivatives))
    derivative = tuple(x + "'" for x in base if x in moving)
    return SymbolTable(base, derivative)


@st.composite
def polys(draw, table, max_terms=5):
    """Base exponents in [-3, 3], derivative exponents in [0, 3]."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        vec = tuple(
            draw(st.integers(-3, 3) if i < table.nbase else st.integers(0, 3))
            for i in range(len(table.names))
        )
        terms[vec] = terms.get(vec, Fraction(0)) + draw(FRACTIONS)
    return LaurentPoly(table, {v: c for v, c in terms.items() if c})


@st.composite
def table_and_poly(draw, min_derivatives=0):
    table = draw(tables(min_derivatives))
    return table, draw(polys(table))


# ---------------------------------------------------------------------------
# symbols and named_terms
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(table_and_poly())
def test_named_terms_rebuild_the_polynomial_in_sorted_order(tp):
    table, p = tp
    named = p.named_terms()
    rebuilt = sum(
        (LaurentPoly.monomial(table, c, exps) for c, exps in named), LaurentPoly.zero(table)
    )
    assert rebuilt == p
    assert [c for c, _ in named] == [c for _, c in p.sorted_terms()]
    for c, exps in named:
        assert all(exps.values())
        assert list(exps) == [n for n in table.names if n in exps]
    assert repr(p) == reference_repr(p)


@settings(max_examples=150, deadline=None)
@given(table_and_poly())
def test_symbols_are_the_occurring_ones_in_table_order(tp):
    table, p = tp
    want = tuple(n for i, n in enumerate(table.names) if any(vec[i] for vec in p.terms))
    assert p.symbols() == want


# ---------------------------------------------------------------------------
# linear_in
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(table_and_poly(min_derivatives=1))
def test_linear_in_the_derivative_symbols_is_the_old_decomposition(tp):
    table, p = tp
    unknowns = [d[:-1] for d in table.derivative]
    dt_part = Multivector(("e0", "dt"), {1: p}, dt_index=1)
    try:
        want = reference_linear_system(dt_part, unknowns, table)
    except DerivationError as exc:
        assert "nonlinear" in str(exc)
        with pytest.raises(AlgebraError):
            p.linear_in(table.derivative)
        with pytest.raises(DerivationError, match="nonlinear in the derivative symbols"):
            _linear_system(dt_part, unknowns)
        return
    assert _linear_system(dt_part, unknowns) == want
    a, b = p.linear_in(table.derivative)
    got = [({x[:-1]: c for x, c in a.items()}, b)] if p.terms else []  # zero: no equation
    assert got == want
    assert list(a) == [d for d in table.derivative if d in a]  # in names order


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_in_any_names_reconstructs_or_raises(data):
    table, p = data.draw(table_and_poly())
    names = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    slots = [table.index(x) for x in names]
    # linear: no negative power of a name, and degree at most 1 in the names
    bad = any(
        any(vec[i] < 0 for i in slots) or sum(vec[i] for i in slots) > 1 for vec in p.terms
    )
    if bad:
        with pytest.raises(AlgebraError):
            p.linear_in(names)
        return
    a, b = p.linear_in(names)
    total = sum((c * LaurentPoly.variable(table, x) for x, c in a.items()), b)
    assert total == p
    assert all(not c.is_zero for c in a.values())
    assert list(a) == [x for x in names if x in a]
    assert not set(names) & {s for q in (b, *a.values()) for s in q.symbols()}


def test_linear_system_of_each_derived_model_is_the_old_decomposition():
    for kind, indices in MODELS:
        deriv = get_model(kind, indices).derivation
        _, dt_part = split_dt(deriv.d_Omega)
        unknowns = tuple(deriv.model.symbols.base)
        want = reference_linear_system(dt_part, unknowns, deriv.struct.table)
        assert _linear_system(dt_part, unknowns) == want


# ---------------------------------------------------------------------------
# coefficients_in
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coefficients_in_is_the_old_univariate_read(data):
    table = data.draw(tables())
    name = data.draw(st.sampled_from(table.names))
    i = table.index(name)
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        # mostly univariate, sometimes another symbol
        vec = [0] * len(table.names)
        vec[i] = data.draw(st.integers(0, 3))
        if data.draw(st.integers(0, 4)) == 0:
            j = data.draw(st.sampled_from(range(len(table.names))))
            if j != i:
                vec[j] = data.draw(st.integers(1, 3))
        terms[tuple(vec)] = data.draw(FRACTIONS.filter(bool))
    p = LaurentPoly(table, terms)
    try:
        want = reference_univariate_coeffs(p, name)
    except NotUnivariate:
        with pytest.raises(AlgebraError):
            p.coefficients_in(name)
        return
    assert p.coefficients_in(name) == want


def test_coefficients_in_refuses_a_negative_power():
    table = SymbolTable(("s_a", "s_f"))
    p = LaurentPoly.monomial(table, 2, {"s_a": -1}) + 3
    with pytest.raises(AlgebraError):
        p.coefficients_in("s_a")
    assert (p * LaurentPoly.monomial(table, 1, {"s_a": 3})).coefficients_in("s_a") == [0, 0, 2, 3]


# ---------------------------------------------------------------------------
# term_list
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,indices", MODELS)
def test_compiled_terms_of_each_model_are_the_old_lists(kind, indices):
    sys_ = get_model(kind, indices).derivation.sys
    want = reference_compile_terms(sys_)
    got = _compile_terms(sys_)
    assert bits(got[0]) == bits(want[0])
    assert got[1:] == want[1:]


@pytest.mark.parametrize("kind,indices", MODELS)
def test_closure_forms_compile_the_old_lists(kind, indices, monkeypatch):
    deriv = get_model(kind, indices).derivation
    seen = []
    make_rhs = _kernel.make_rhs

    def recording_make_rhs(*args):
        seen.append(args)
        return make_rhs(*args)

    monkeypatch.setattr(_kernel, "make_rhs", recording_make_rhs)
    fresh = Derivation(deriv.model)
    _, ends = fresh.closure_forms
    coeffs, exps, owner, nout, want_ends = reference_closure_terms(deriv)
    ((got_coeffs, got_exps, got_owner, nin, got_nout),) = seen
    assert bits(got_coeffs) == bits(coeffs)
    assert (got_exps, got_owner, got_nout, ends) == (exps, owner, nout, want_ends)
    assert nin == len(deriv.struct.table.names)


@st.composite
def hand_made_systems(draw):
    """A system over a random table: the state is some of the base symbols,
    and a right-hand side may use a derivative or a non-state symbol."""
    table = draw(tables())
    state = tuple(draw(st.lists(st.sampled_from(table.base), min_size=1, unique=True)))
    state = tuple(x for x in table.base if x in state)
    rhs = {x: draw(polys(table, max_terms=4)) for x in state}
    kind = draw(st.sampled_from(sorted(MODEL_SPECS)))
    return ODESystem(kind, (), state, rhs, len(state), len(state))


@settings(max_examples=200, deadline=None)
@given(hand_made_systems())
def test_compiled_terms_of_random_systems_are_the_old_lists(sys_):
    try:
        want = reference_compile_terms(sys_)
    except IntegrationError as exc:
        offending = {s for p in sys_.rhs.values() for s in p.symbols()} - set(sys_.state)
        with pytest.raises(IntegrationError) as err:
            _compile_terms(sys_)
        if offending <= set(sys_.table.derivative) or not offending & set(sys_.table.derivative):
            assert str(err.value) == str(exc)  # one kind of offence: the same message
        return
    got = _compile_terms(sys_)
    assert bits(got[0]) == bits(want[0])
    assert got[1:] == want[1:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_term_list_places_each_exponent_by_name(data):
    table = data.draw(tables())
    ps = data.draw(st.lists(polys(table), max_size=4))
    names = data.draw(st.permutations(table.names + ("Z",)))
    coeffs, exps, owner = term_list(ps, names)
    width = len(names)
    k = 0
    for i, p in enumerate(ps):
        for vec, c in p.sorted_terms():
            assert coeffs[k].hex() == float(c).hex() and owner[k] == i
            row = exps[k * width : (k + 1) * width]
            assert row == [vec[table.index(n)] if n in table.names else 0 for n in names]
            k += 1
    assert len(coeffs) == len(owner) == k and len(exps) == k * width
    dropped = data.draw(st.sampled_from(table.names))
    fewer = [n for n in names if n != dropped]
    if any(dropped in p.symbols() for p in ps):
        with pytest.raises(AlgebraError):
            term_list(ps, fewer)
    else:
        assert term_list(ps, fewer)[0] == coeffs
