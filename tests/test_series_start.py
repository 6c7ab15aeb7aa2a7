"""The exact series start: every way it can fail, and the prepared limits
against the oracle that rebuilds them on each call."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow import integrate
from holoflow.algebra import LaurentPoly, SymbolTable
from holoflow.flow import ODESystem, derive_flow
from holoflow.homogeneous import m_model, q_model
from holoflow.integrate import ORBIT_COLLAPSING, OrbitSpec, SeriesStartError, series_start
from mutations import perturbed_system
from series_start_oracle import series_start_oracle

M_TABLE = SymbolTable(("a", "b", "c"))
A, B, C = (LaurentPoly.variable(M_TABLE, x) for x in ("a", "b", "c"))


def const(v) -> LaurentPoly:
    return LaurentPoly.const(M_TABLE, v)


def m_system(a, b, c) -> ODESystem:
    """A hand-made M-shaped system a' = a, b' = b, c' = c."""
    return ODESystem("M", (1, 1), ("a", "b", "c"), {"a": a, "b": b, "c": c}, 3, 3)


#: hand-made M systems on the cp2xs2 orbit whose start depends on a and b
VALUE_DEPENDENT = {
    "pole cancelling in c'": m_system(C, C, const(2) + (A - B) * C**-1),
    "pole cancelling in a'": m_system((A - B) * C**-1, C, const(2)),
    "slope a/b": m_system(C, C, A * B**-1),
    "slope a/b or none": m_system(C, C, A * B**-1 - const(1)),
    "a' = a - b": m_system(A - B, C, const(2)),
}


#: hand-made systems and specs, one per failure of the series start
FAILURES = {
    "pole": (
        m_system(C, C, C**-1),
        OrbitSpec("M", "cp2xs2", {"a": 1, "b": 1}),
        "right-hand side has a pole at the singular orbit",
    ),
    "uncancelled pole in a collapsing rhs": (
        VALUE_DEPENDENT["pole cancelling in c'"],
        OrbitSpec("M", "cp2xs2", {"a": 1, "b": 2}),
        "right-hand side has a pole at the singular orbit",
    ),
    "uncancelled pole in a surviving rhs": (
        VALUE_DEPENDENT["pole cancelling in a'"],
        OrbitSpec("M", "cp2xs2", {"a": 1, "b": 2}),
        "right-hand side has a pole at the singular orbit",
    ),
    "nonzero surviving derivative": (
        m_system(const(1), C, const(2)),
        OrbitSpec("M", "cp2xs2", {"a": 1, "b": 1}),
        "surviving coefficient 'a' has a nonzero first derivative",
    ),
    "no rational slope": (
        m_system(B, const(2) * C * B**-1, const(1)),
        OrbitSpec("M", "cp2", {"a": 1}),
        "fixed-point system has no nonzero rational solution",
    ),
    "only a zero slope": (
        m_system(C, C, LaurentPoly.zero(M_TABLE)),
        OrbitSpec("M", "cp2xs2", {"a": 1, "b": 1}),
        "fixed-point system has no nonzero rational solution",
    ),
    "no slope on the branch": (
        m_system(B, Fraction(1, 3) * B**2 * C**-2 + Fraction(2, 3), const(1)),
        OrbitSpec("M", "cp2", {"a": 1}, negative_branch=True),
        "no solution on the requested sign branch",
    ),
    "underdetermined": (
        m_system(B, B * C**-1, const(1)),
        OrbitSpec("M", "cp2", {"a": 1}),
        "slope system is underdetermined",
    ),
    "not reducible": (
        m_system(B, C**2 * B**-2, B**2 * C**-2),
        OrbitSpec("M", "cp2", {"a": 1}),
        "slope system is not reducible",
    ),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_every_failure_raises_its_message(case):
    sys_, spec, message = FAILURES[case]
    with pytest.raises(SeriesStartError) as got:
        series_start(sys_, spec)
    assert str(got.value) == message
    with pytest.raises(SeriesStartError) as want:
        series_start_oracle(sys_, spec)
    assert str(want.value) == message


@pytest.mark.parametrize("case", ["pole cancelling in c'", "pole cancelling in a'"])
def test_a_pole_that_cancels_raises_only_off_the_cancelling_values(case):
    """(a - b)/c has a pole at c = 0 unless a = b."""
    sys_ = VALUE_DEPENDENT[case]
    for a, b in [(1, 1), (Fraction(-3, 7), Fraction(-3, 7)), (1, 2), (2, 1)]:
        spec = OrbitSpec("M", "cp2xs2", {"a": a, "b": b})
        if a == b:
            state, slopes = series_start(sys_, spec)
            assert slopes == {"c": Fraction(2)}
            assert (state, slopes) == series_start_oracle(sys_, spec)
        else:
            with pytest.raises(SeriesStartError, match="has a pole"):
                series_start(sys_, spec)


def test_the_branch_picks_the_smaller_positive_slope():
    sys_ = FAILURES["no slope on the branch"][0]
    assert series_start(sys_, OrbitSpec("M", "cp2", {"a": 1}))[1] == {"b": Fraction(1), "c": Fraction(1)}


# ---------------------------------------------------------------------------
# the prepared series start against the oracle
# ---------------------------------------------------------------------------

SYSTEMS = {"Q": derive_flow(q_model(1, 1, 1)), "M": derive_flow(m_model(1, 1))}
#: one right-hand side scaled, per model, name and factor
PERTURBED = [
    (kind, name, perturbed_system(sys_, name, factor))
    for kind, sys_ in SYSTEMS.items()
    for name in sys_.state
    for factor in (Fraction(2), Fraction(-1), Fraction(1001, 1000))
]
#: the five singular orbits
ORBITS = [(kind, orbit) for kind, orbits in ORBIT_COLLAPSING.items() for orbit in orbits if orbits[orbit]]


def outcome(start, sys_, spec, eps):
    """``(state bits, slopes)`` of a start, or the type and message it raised."""
    try:
        state, slopes = start(sys_, spec, eps)
    except Exception as exc:
        return type(exc), str(exc)
    values = [(x, v.hex()) for x, v in state.values.items()]
    return state.t.hex(), values, state.primitive.hex(), slopes


nonzero = st.builds(
    Fraction,
    st.integers(-(10**21), 10**21).filter(bool),
    st.integers(1, 10**21),
) | st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 7), Fraction(10**20 + 3)])
eps_values = st.none() | st.sampled_from([1e-6, 1e-9, 3.5e-4])


@st.composite
def specs(draw, kind, orbit):
    surviving = [x for x in SYSTEMS[kind].state if x not in ORBIT_COLLAPSING[kind][orbit]]
    values = {x: draw(nonzero) for x in surviving}
    return OrbitSpec(kind, orbit, values, negative_branch=draw(st.booleans()))


@seed(30944383086386172392410050391960008297820449228164144822942350724995839286759964954588279374131177785820256986528808)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), orbit=st.sampled_from(ORBITS), eps=eps_values)
def test_series_start_equals_the_oracle_on_the_five_orbits(data, orbit, eps):
    kind, name = orbit
    spec = data.draw(specs(kind, name))
    sys_ = SYSTEMS[kind]
    want = outcome(series_start_oracle, sys_, spec, eps)
    assert outcome(series_start, sys_, spec, eps) == want
    assert isinstance(want[-1], dict)  # the paper's orbits always start


@seed(39232902126403911567635296074331909921599424419152642624923698483402075223434893949114282271680692256003629337249798)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), perturbation=st.sampled_from(PERTURBED))
def test_a_perturbed_system_gets_its_own_slopes(data, perturbation):
    kind, _, perturbed = perturbation
    orbit = data.draw(st.sampled_from([name for k, name in ORBITS if k == kind]))
    spec = data.draw(specs(kind, orbit))
    # the unperturbed system's preparation and slopes are cached first
    series_start(SYSTEMS[kind], spec)
    assert outcome(series_start, perturbed, spec, None) == outcome(
        series_start_oracle, perturbed, spec, None
    )


def test_perturbed_systems_start_differently_or_fail():
    """Scaling the right-hand side of a coefficient that collapses on some
    orbit changes a slope or raises there, so the property test above would
    see another system's cached slopes; the other scalings change no start."""
    spec_of = {
        ("Q", "s2xs2xs2"): {"a": 1, "b": 2, "c": 3},
        ("Q", "s2xs2"): {"b": 1, "c": 1},
        ("M", "cp2xs2"): {"a": 1, "b": 1},
        ("M", "cp2"): {"a": 1},
        ("M", "s2"): {"b": 1},
    }
    for kind, name, perturbed in PERTURBED:
        starts = [
            (
                outcome(series_start, SYSTEMS[kind], OrbitSpec(kind, orbit, values), None),
                outcome(series_start, perturbed, OrbitSpec(kind, orbit, values), None),
            )
            for (k, orbit), values in spec_of.items()
            if k == kind
        ]
        collapses = any(name in ORBIT_COLLAPSING[kind][orbit] for orbit in ORBIT_COLLAPSING[kind])
        assert any(mine != theirs for mine, theirs in starts) == collapses, (kind, name)


# the rational-root search tries every divisor, so a slope that holds the
# values needs small ones
small = st.builds(Fraction, st.integers(-999, 999).filter(bool), st.integers(1, 999))


@pytest.mark.parametrize("case", list(VALUE_DEPENDENT))
@seed(14498294095054014010039834767948233129822619953059205254456131555999940702225961905913501124097381936517631658282820)
@settings(max_examples=100, deadline=None, database=None)
@given(a=small, b=small, equal=st.booleans(), negative=st.booleans())
def test_a_value_dependent_start_equals_the_oracle(case, a, b, equal, negative):
    sys_ = VALUE_DEPENDENT[case]
    spec = OrbitSpec("M", "cp2xs2", {"a": a, "b": a if equal else b}, negative_branch=negative)
    assert outcome(series_start, sys_, spec, None) == outcome(series_start_oracle, sys_, spec, None)


# ---------------------------------------------------------------------------
# what is built once per system
# ---------------------------------------------------------------------------


def test_a_second_start_substitutes_nothing(monkeypatch):
    """The paper's limits hold no initial value, so once an orbit's limits
    are built a start does no Laurent substitution."""
    sys_ = perturbed_system(SYSTEMS["M"], "a", Fraction(1))  # a fresh system
    spec = OrbitSpec("M", "s2", {"b": 3})
    first = series_start(sys_, spec)
    assert set(sys_.prepared.orbits) == {("a", "c")}

    def refuse(*args, **kwargs):
        raise AssertionError("substituted again")

    monkeypatch.setattr(LaurentPoly, "subs", refuse)
    monkeypatch.setattr(integrate, "_solve_slope_system", refuse)
    for values in ({"b": 3}, {"b": Fraction(-2, 9)}):
        got = series_start(sys_, OrbitSpec("M", "s2", values, negative_branch=True))
        assert got[1] == {"a": -first[1]["a"], "c": first[1]["c"]}


def test_a_dropped_system_is_collected_with_its_preparation():
    """The preparation is the system's own property, so no table in the
    package keeps a solved system alive."""
    sys_ = perturbed_system(SYSTEMS["M"], "a")
    integrate.solve_orbit(sys_, OrbitSpec("M", "cp2", {"a": 1}), integrate.IntegratorConfig(t_end=1.0))
    ref = weakref.ref(sys_)
    del sys_
    gc.collect()
    assert ref() is None


def test_the_term_list_is_compiled_once_per_system(monkeypatch):
    calls = []
    compile_terms = integrate._compile_terms
    monkeypatch.setattr(integrate, "_compile_terms", lambda s: calls.append(s) or compile_terms(s))
    sys_ = perturbed_system(SYSTEMS["M"], "a", Fraction(1))
    cfg = integrate.IntegratorConfig(t_end=1.0)
    runs = [integrate.solve_orbit(sys_, OrbitSpec("M", "cp2", {"a": 1}), cfg) for _ in range(3)]
    assert calls == [sys_]
    assert all(traj.ys == runs[0][0].ys for traj, _ in runs)
