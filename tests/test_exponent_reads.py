"""The exponent-layout reads of ``LaurentPoly`` and the code that reads
through them, held to their definitions.

``flow``, ``integrate`` and the display code read exponent vectors through
``linear_in``, ``coefficients_in``, ``term_list`` and ``named_terms``.  Each
read gives the decomposition or the term list that it is defined to give:
``linear_in`` and ``coefficients_in`` rebuild the polynomial they split, the
term lists hold each term by name, in ``named_terms`` order and bit for bit,
and ``repr`` reads back as the polynomial.  The names that say "old" mean
these outputs, which the loops that read exponent vectors by hand once gave.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow import _kernel
from holoflow.algebra import AlgebraError, LaurentPoly, Multivector, SymbolTable, term_list
from holoflow.flow import (
    Derivation,
    ODESystem,
    _linear_system,
    split_dt,
)
from holoflow.homogeneous import MODEL_SPECS, get_model
from holoflow.integrate import IntegrationError, _compile_terms

MODELS = [("Q", (1, 1, 1)), ("M", (1, 1))]


# ---------------------------------------------------------------------------
# the definitions the reads are held to
# ---------------------------------------------------------------------------


def derivative_degree(poly):
    """The largest total degree of a term in the derivative symbols."""
    derivative = set(poly.table.derivative)
    return max((sum(e for x, e in powers.items() if x in derivative) for _, powers in poly.named_terms()), default=0)


def assert_linear_split(poly, split, unknowns):
    """``split`` = ({x: A_x}, B) is poly = sum(A_x * x') + B with nonzero A_x
    in ``unknowns`` order, and no derivative symbol in any A_x or B."""
    a, b = split
    table = poly.table
    assert sum((c * LaurentPoly.variable(table, x + "'") for x, c in a.items()), b) == poly
    assert list(a) == [x for x in unknowns if x in a] and all(not c.is_zero for c in a.values())
    assert not set(table.derivative) & {s for q in (b, *a.values()) for s in q.symbols()}


def named_rows(polys, names):
    """(coeffs, exps, owner) of the polynomials by definition: each term of
    polys[k], in ``named_terms`` order, as its float coefficient, its
    exponent of each of ``names`` (0 where it has none) and k."""
    coeffs, exps, owner = [], [], []
    for k, poly in enumerate(polys):
        for c, powers in poly.named_terms():
            coeffs.append(float(c))
            exps.extend(powers.get(x, 0) for x in names)
            owner.append(k)
    return coeffs, exps, owner


def compiled_rows(sys):
    """``named_rows`` of the state's right-hand sides in state order and of
    primitive' = the last state symbol, over the state and the primitive,
    with the state count; or the IntegrationError message a right-hand side
    with a derivative or a non-state symbol gets."""
    used = {s for name in sys.state for s in sys.rhs[name].symbols()}
    if used & set(sys.table.derivative):
        return "right-hand side contains derivative symbols"
    if used - set(sys.state):
        return "right-hand side uses a non-state symbol"
    polys = [sys.rhs[name] for name in sys.state] + [LaurentPoly.variable(sys.table, sys.state[-1])]
    names = sys.state + (MODEL_SPECS[sys.model_kind].primitive_name,)
    return (*named_rows(polys, names), len(names))


def parsed(text):
    """The (coefficient, {symbol: exponent}) terms of a displayed polynomial."""
    terms = []
    for term in text.split(" + ") if text != "0" else ():
        c, *factors = term.split("*")
        terms.append((Fraction(c), {x: int(e or 1) for x, _, e in (f.partition("^") for f in factors)}))
    return terms


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


@seed(3564437744048545727464344124843425566597318197291522960923440321002598478022038492247295808267258519754859987306053)
@settings(max_examples=150, deadline=None, database=None)
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
    assert parsed(repr(p)) == named


@seed(29345289191484030068415715010331815960520020608816941718450696638878344491078143928359897625581482099265058255972756)
@settings(max_examples=150, deadline=None, database=None)
@given(table_and_poly())
def test_symbols_are_the_occurring_ones_in_table_order(tp):
    table, p = tp
    want = tuple(n for i, n in enumerate(table.names) if any(vec[i] for vec in p.terms))
    assert p.symbols() == want


# ---------------------------------------------------------------------------
# linear_in
# ---------------------------------------------------------------------------


@seed(18252940028362029930799051065914524919578678579776314498462159088852114729713969199824443349922906585111096714619625)
@settings(max_examples=200, deadline=None, database=None)
@given(table_and_poly(min_derivatives=1))
def test_linear_in_the_derivative_symbols_is_the_old_decomposition(tp):
    """A polynomial of degree at most 1 in the derivative symbols is one
    equation sum(A_x * x') + B, the same from ``_linear_system`` and
    ``linear_in``; the zero polynomial is none, and a higher degree raises."""
    table, p = tp
    unknowns = [d[:-1] for d in table.derivative]
    dt_part = Multivector(("e0", "dt"), {1: p}, dt_index=1)
    if derivative_degree(p) > 1:
        with pytest.raises(AlgebraError):
            p.linear_in(table.derivative)
        with pytest.raises(AlgebraError, match="is not linear in"):
            _linear_system(dt_part, unknowns)
        return
    eqs = _linear_system(dt_part, unknowns)
    assert len(eqs) == (1 if p.terms else 0)
    for split in eqs:
        assert_linear_split(p, split, unknowns)
    a, b = p.linear_in(table.derivative)
    assert eqs == ([({x[:-1]: c for x, c in a.items()}, b)] if p.terms else [])


@seed(31425472828847649609407638959919028919304149263994437661950813070578434499776998462600842701747284928090327881815019)
@settings(max_examples=200, deadline=None, database=None)
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
    """One equation sum(A_x * x') + B per term of d(Omega)'s dt part, in
    mask order."""
    for kind, indices in MODELS:
        deriv = get_model(kind, indices).derivation
        _, dt_part = split_dt(deriv.d_Omega)
        unknowns = tuple(deriv.model.symbols.base)
        terms, eqs = list(dt_part.sorted_terms()), _linear_system(dt_part, unknowns)
        assert len(eqs) == len(terms) > 0
        for (_, poly), split in zip(terms, eqs):
            assert_linear_split(poly, split, unknowns)


# ---------------------------------------------------------------------------
# coefficients_in
# ---------------------------------------------------------------------------


@seed(10034714773638544567473649314878869190409953742792830075807676354862286051695838887394129331355179698908481652381132)
@settings(max_examples=200, deadline=None, database=None)
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
    if any(set(powers) - {name} for _, powers in p.named_terms()):
        with pytest.raises(AlgebraError):
            p.coefficients_in(name)
        return
    coeffs = p.coefficients_in(name)
    assert len(coeffs) == 1 + max((powers.get(name, 0) for _, powers in p.named_terms()), default=0)
    assert sum((LaurentPoly.monomial(table, c, {name: k}) for k, c in enumerate(coeffs)), LaurentPoly.zero(table)) == p


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
    want = compiled_rows(sys_)
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
    forms = (deriv.struct.Omega, deriv.cert.eta, deriv.d_Omega, deriv.cert.d_eta)
    polys = [poly for form in forms for _, poly in form.sorted_terms()]
    coeffs, exps, owner = named_rows(polys, deriv.struct.table.names)
    ((got_coeffs, got_exps, got_owner, nin, nout),) = seen
    assert bits(got_coeffs) == bits(coeffs)
    assert (got_exps, got_owner, nout) == (exps, owner, len(polys))
    assert ends == tuple(itertools.accumulate(len(form.terms) for form in forms))
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


@seed(17832757071127922395623482278061453246301957584975679374473859018178068164175826940253891294244565298878287456529175)
@settings(max_examples=200, deadline=None, database=None)
@given(hand_made_systems())
def test_compiled_terms_of_random_systems_are_the_old_lists(sys_):
    want = compiled_rows(sys_)
    if isinstance(want, str):
        with pytest.raises(IntegrationError) as err:
            _compile_terms(sys_)
        assert str(err.value) == want
        return
    got = _compile_terms(sys_)
    assert bits(got[0]) == bits(want[0])
    assert got[1:] == want[1:]


@seed(11923913639550649797998582013511469627035234888508193034025696734077508972818562981604694804768749119760799712673943)
@settings(max_examples=150, deadline=None, database=None)
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
