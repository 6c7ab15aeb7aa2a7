"""Series starts, the adaptive integrator, and trajectory plumbing."""

import math
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow import _kernel
from holoflow.algebra import LaurentPoly, SymbolTable
from holoflow.flow import ODESystem, derive_flow
from holoflow.homogeneous import ModelError, m_model, q_model
from holoflow.integrate import (
    IntegrationError,
    IntegratorConfig,
    OrbitSpec,
    OrbitError,
    State,
    Trajectory,
    _rational_roots,
    integrate,
    series_start,
    solve_orbit,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sysq():
    return derive_flow(q_model(1, 1, 1))


@pytest.fixture(scope="module")
def sysm():
    return derive_flow(m_model(1, 1))


# ---------------------------------------------------------------------------
# orbit specs
# ---------------------------------------------------------------------------


def test_orbit_spec_validation():
    OrbitSpec("Q", "s2xs2xs2", {"a": 1, "b": 2, "c": 3})
    with pytest.raises(OrbitError):
        OrbitSpec("Q", "s2xs2xs2", {"a": 1, "b": 2})  # missing c
    with pytest.raises(OrbitError):
        OrbitSpec("Q", "s2xs2", {"a": 1, "b": 1, "c": 1})  # a collapses
    with pytest.raises(OrbitError):
        OrbitSpec("Q", "s2xs2", {"b": 0, "c": 1})  # zero value
    with pytest.raises(OrbitError):
        OrbitSpec("M", "nope", {"a": 1})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "name,value,message",
    [
        ("rtol", NAN, "tolerances"), ("rtol", 0.0, "tolerances"), ("atol", INF, "tolerances"),
        ("atol", -1e-12, "tolerances"), ("t_end", NAN, "t_end"), ("t_end", INF, "t_end"),
        ("t_end", -INF, "t_end"), ("initial_step", NAN, "initial_step"), ("initial_step", INF, "initial_step"),
        ("initial_step", -1e-3, "initial_step"), ("eps", NAN, "eps"), ("eps", INF, "eps"), ("eps", 0.0, "eps"),
    ],
)
def test_integrator_config_rejects_a_non_finite_or_out_of_range_value(name, value, message):
    """A NaN passes every order test, so each field is checked finite: a NaN
    rtol would spin to max_steps, an infinite t_end blow up."""
    with pytest.raises(ValueError, match=f"^{message} must be finite"):
        IntegratorConfig(**{name: value})
    assert IntegratorConfig(t_end=-1.0, initial_step=0.0, eps=1e-6).t_end == -1.0  # for a start before it


@pytest.mark.parametrize(
    "orbit,values,t_end,start",
    [
        ("principal", {"a": 1, "b": 1, "c": 1, "f": -1}, -5.0, 0.0),
        ("principal", {"a": 1, "b": 1, "c": 1, "f": -1}, 0.0, 0.0),
        ("s2xs2", {"b": 1, "c": 1}, 1e-7, 1e-6),
    ],
    ids=["principal-negative", "principal-zero", "s2xs2-before-offset"],
)
def test_a_t_end_at_or_before_the_start_is_rejected_before_any_loop(sysq, monkeypatch, orbit, values, t_end, start):
    """t only increases: a t_end at or before the start t raises, naming
    both, and no solve loop is generated or run."""

    def no_loop(*args):
        raise AssertionError("the solve loop was reached")

    monkeypatch.setattr(_kernel, "solve", no_loop)
    with pytest.raises(IntegrationError, match=re.escape(f"t_end {t_end!r} is not after the start t = {start!r}")):
        solve_orbit(sysq, OrbitSpec("Q", orbit, values), IntegratorConfig(t_end=t_end))


# ---------------------------------------------------------------------------
# series starts: the five singular orbits, exact
# ---------------------------------------------------------------------------


def test_series_start_q_s2xs2xs2(sysq):
    _, slopes = series_start(sysq, OrbitSpec("Q", "s2xs2xs2", {"a": 1, "b": 2, "c": 3}))
    assert slopes == {"f": Fraction(-3)}


def test_series_start_q_s2xs2(sysq):
    _, slopes = series_start(sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    assert slopes == {"a": Fraction(1, 2), "f": Fraction(-3, 2)}
    _, slopes = series_start(
        sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}, negative_branch=True)
    )
    assert slopes == {"a": Fraction(-1, 2), "f": Fraction(-3, 2)}
    # independent of the surviving values
    _, slopes = series_start(sysq, OrbitSpec("Q", "s2xs2", {"b": 5, "c": Fraction(1, 3)}))
    assert slopes["a"] == Fraction(1, 2)


def test_series_start_m_all_orbits(sysm):
    _, s1 = series_start(sysm, OrbitSpec("M", "cp2xs2", {"a": 1, "b": 1}))
    assert s1 == {"c": Fraction(8)}
    _, s2 = series_start(sysm, OrbitSpec("M", "cp2", {"a": 2}))
    assert s2 == {"b": Fraction(1), "c": Fraction(4)}
    _, s3 = series_start(sysm, OrbitSpec("M", "s2", {"b": 3}))
    assert s3 == {"a": Fraction(1), "c": Fraction(8, 3)}
    _, s3n = series_start(sysm, OrbitSpec("M", "s2", {"b": 3}, negative_branch=True))
    assert s3n == {"a": Fraction(-1), "c": Fraction(8, 3)}


def test_series_start_state_and_primitive(sysq):
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    st, slopes = series_start(sysq, spec, eps=1e-4)
    assert st.t == 1e-4
    assert st.values["a"] == pytest.approx(0.5e-4)
    assert st.values["b"] == 1.0
    assert st.primitive == pytest.approx(0.5 * (-1.5) * 1e-8)


def test_series_start_matches_half_eps_shooting(sysq):
    """Integrating from a hand-built state at eps/2 lands on the same
    trajectory as the series start at eps."""
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    eps = 1e-6
    st, slopes = series_start(sysq, spec, eps=eps)
    half = State(
        t=eps / 2,
        values={
            "a": float(slopes["a"]) * eps / 2,
            "b": 1.0,
            "c": 1.0,
            "f": float(slopes["f"]) * eps / 2,
        },
        primitive=0.5 * float(slopes["f"]) * (eps / 2) ** 2,
    )
    cfg = IntegratorConfig(t_end=1.0)
    t1 = integrate(sysq, st, cfg)
    t2 = integrate(sysq, half, cfg)
    v1 = np.asarray(t1.ys)[-1, :4]
    v2 = np.asarray(t2.ys)[-1, :4]
    assert np.allclose(v1, v2, rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------------------------
# rational roots of the slope equations, against the Fraction search
# ---------------------------------------------------------------------------


def fraction_rational_roots(coeffs):
    """Oracle: every candidate +-p/q (p, q divisors of the end coefficients
    scaled to integers) evaluated in Fraction arithmetic.  Pops trailing
    zeros off ``coeffs``."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    lo = 0
    while coeffs[lo] == 0:
        lo += 1
    coeffs = coeffs[lo:]
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    a0, alead = abs(ints[0]), abs(ints[-1])
    roots = []
    for p in _trial_divisors(a0):
        for q in _trial_divisors(alead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand**k for k, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return sorted(roots)


def _trial_divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _times(a, b):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_polynomials(draw):
    """sum c_k x^k as Fractions: chosen roots p/q (repeats likely), a power
    of x, a random factor whose middle coefficient may have 20 digits, an
    overall sign and denominator, and trailing zero entries."""
    roots = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 6)), max_size=3))
    roots += roots[: draw(st.integers(0, 2))]
    poly = [draw(st.sampled_from([1, -1, 2, -3, 6]))]
    for p, q in roots:
        poly = _times(poly, [-p, q])  # a p = 0 here is another zero root
    middle = st.one_of(
        st.integers(-50, 50),
        st.integers(10**19, 10**20 - 1),
        st.integers(-(10**20) + 1, -(10**19)),
    )
    factor = draw(st.lists(middle, min_size=0, max_size=2))
    poly = _times(poly, [draw(st.integers(1, 12))] + factor + [draw(st.sampled_from([1, -1, 4, -7]))])
    poly = [0] * draw(st.integers(0, 3)) + poly + [0] * draw(st.integers(0, 2))
    den = draw(st.integers(1, 12))
    return [Fraction(c, den) for c in poly]


@seed(18100050696528211350458185049565548579835577934948588826705767408975894172129877730226791804423445125438339510937917)
@settings(max_examples=200, deadline=None, database=None)
@given(root_polynomials())
def test_rational_roots_match_the_fraction_search(coeffs):
    given_coeffs = list(coeffs)
    roots = _rational_roots(coeffs)
    assert coeffs == given_coeffs
    assert roots == fraction_rational_roots(list(coeffs))
    assert all(type(r) is Fraction for r in roots)


@pytest.mark.parametrize(
    "coeffs,roots",
    [
        ([-3, -1], [-3]),  # Q s2xs2xs2: f
        ([0, 0, -3, 0, 12], [Fraction(-1, 2), Fraction(1, 2)]),  # Q s2xs2: a
        ([8, -1], [8]),  # M cp2xs2: c
        ([0, 0, 8, 0, -8], [-1, 1]),  # M cp2: b, and M s2: a
    ],
)
def test_rational_roots_of_the_orbit_equations(coeffs, roots):
    coeffs = [Fraction(c) for c in coeffs]
    assert _rational_roots(coeffs) == roots == fraction_rational_roots(coeffs)


#: a nonzero coefficient with numerator and denominator up to 10**30
LINEAR_COEFF = st.builds(
    Fraction,
    st.integers(-(10**30), 10**30).filter(bool),
    st.one_of(st.just(1), st.integers(1, 10**30)),
)


@seed(4814393095628513706590219081226088203197863853978359245299818246461533432878779180726416061013295191234563029811216)
@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 3), LINEAR_COEFF, LINEAR_COEFF, st.integers(0, 3))
def test_rational_roots_of_a_linear_polynomial(low_zeros, c0, c1, high_zeros):
    """A linear equation has one root, whatever the size of its coefficients."""
    coeffs = [Fraction(0)] * low_zeros + [c0, c1] + [Fraction(0)] * high_zeros
    roots = _rational_roots(coeffs)
    assert len(roots) == 1 and type(roots[0]) is Fraction
    assert c0 + c1 * roots[0] == 0


def test_rational_roots_of_a_linear_polynomial_with_a_large_prime():
    """No divisor search: trial division up to sqrt(10**14 + 7) takes seconds."""
    started = time.perf_counter()
    roots = _rational_roots([Fraction(10**14 + 7), Fraction(-1)])
    assert time.perf_counter() - started < 0.01
    assert roots == [10**14 + 7]


# ---------------------------------------------------------------------------
# integration invariants
# ---------------------------------------------------------------------------


def _relative_drift_q(traj, a0sq):
    a2 = np.asarray(traj.ys)[:, 0] ** 2
    F = np.asarray(traj.ys)[:, -1]
    scale = np.maximum(np.abs(a2), 1.0)
    return float(np.max(np.abs(a2 + F / 3 - a0sq) / scale))


def test_first_integral_drift_q(sysq):
    cfg = IntegratorConfig(t_end=200.0)
    traj, _ = solve_orbit(sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}), cfg)
    assert _relative_drift_q(traj, 0.0) <= 10 * cfg.rtol
    b2 = np.asarray(traj.ys)[:, 1] ** 2
    F = np.asarray(traj.ys)[:, -1]
    assert np.max(np.abs(b2 - 1 + F / 3) / np.maximum(b2, 1)) <= 10 * cfg.rtol


def test_first_integral_drift_m(sysm):
    cfg = IntegratorConfig(t_end=200.0)
    traj, _ = solve_orbit(sysm, OrbitSpec("M", "cp2", {"a": 1}), cfg)
    a2 = np.asarray(traj.ys)[:, 0] ** 2
    b2 = np.asarray(traj.ys)[:, 1] ** 2
    C = np.asarray(traj.ys)[:, -1]
    scale = np.maximum(a2, 1.0)
    assert np.max(np.abs(a2 - 0.75 * C - 1.0) / scale) <= 10 * cfg.rtol
    assert np.max(np.abs(b2 - 0.5 * C) / scale) <= 10 * cfg.rtol


def test_monotone_directions(sysq, sysm):
    cfg = IntegratorConfig(t_end=100.0)
    traj, _ = solve_orbit(sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}), cfg)
    assert np.all(np.diff(traj.ts) > 0)
    assert np.all(np.asarray(traj.ys)[:, 3] < 0)  # f stays negative
    assert np.all(np.diff(np.asarray(traj.ys)[:, -1]) < 0)  # F decreasing
    assert np.all(np.diff(np.asarray(traj.ys)[:, 0] ** 2) > 0)  # a^2 nondecreasing
    trajm, _ = solve_orbit(sysm, OrbitSpec("M", "cp2", {"a": 1}), cfg)
    assert np.all(np.diff(np.asarray(trajm.ys)[:, -1]) > 0)  # C increasing


def test_parity_reintegration_q(sysq):
    """Mapping (a,b,c,f)(t) -> (a,b,c,-f)(-t) gives a backward solution:
    integrating forward from the mapped endpoint retraces the run."""
    spec = OrbitSpec("Q", "s2xs2xs2", {"a": 1, "b": 1, "c": 1})
    traj, _ = solve_orbit(sysq, spec, IntegratorConfig(t_end=10.0))
    *values, primitive = traj.ys[-1]
    end = State(traj.ts[-1], dict(zip(traj.state_names, values)), primitive)
    mapped = State(
        t=-end.t,
        values={"a": end.values["a"], "b": end.values["b"], "c": end.values["c"],
                "f": -end.values["f"]},
        primitive=end.primitive,
    )
    # compare the end states of runs to matched absolute times
    for t_check in (2.0, 5.0, 8.0):
        fwd_run, _ = solve_orbit(sysq, spec, IntegratorConfig(t_end=t_check))
        bwd_run = integrate(sysq, mapped, IntegratorConfig(t_end=-t_check, rtol=1e-10))
        assert fwd_run.ts[-1] == t_check and bwd_run.ts[-1] == -t_check
        fwd = dict(zip(sysq.state, fwd_run.ys[-1]))
        bwd = dict(zip(sysq.state, bwd_run.ys[-1]))
        for n in ("a", "b", "c"):
            assert bwd[n] == pytest.approx(fwd[n], rel=1e-5)
        assert bwd["f"] == pytest.approx(-fwd["f"], rel=1e-5)


def test_tolerance_scaling_monotone(sysq):
    drifts = []
    for rtol in (1e-6, 1e-8, 1e-10):
        cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2, t_end=50.0)
        traj, _ = solve_orbit(sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}), cfg)
        drifts.append(_relative_drift_q(traj, 0.0))
    assert drifts[0] > drifts[1] > drifts[2]


def test_end_state_accuracy(sysq):
    """A run at the default tolerances ends within 10 rtol of a tight run."""
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    cfg = IntegratorConfig()
    for t in (0.5, 3.14159, 11.0, 19.5):
        traj, _ = solve_orbit(sysq, spec, IntegratorConfig(t_end=t))
        tight, _ = solve_orbit(sysq, spec, IntegratorConfig(rtol=1e-13, atol=1e-14, t_end=t))
        got = dict(zip(sysq.state, traj.ys[-1]))
        want = dict(zip(sysq.state, tight.ys[-1]))
        for n in ("a", "b", "c", "f"):
            scale = max(abs(want[n]), 1.0)
            assert abs(got[n] - want[n]) / scale < 10 * cfg.rtol


def test_sign_change_stops_and_reports(sysq):
    # with large a, b, c the f equation is f' ~ -3, so f crosses zero
    # cleanly; the run ends with a report, not an exception
    start = State(t=0.0, values={"a": 10.0, "b": 10.0, "c": 10.0, "f": 0.5})
    traj = integrate(sysq, start, IntegratorConfig(t_end=100.0))
    assert traj.status == "sign_change"
    assert traj.ts[-1] < 1.0
    assert np.asarray(traj.ys)[-1, 3] <= 0.0


def test_collapse_underflow_raises_with_state(sysq):
    # shrinking a hits the right-hand-side singularity: step underflow with
    # the last valid state attached
    start = State(t=0.0, values={"a": 0.3, "b": 0.3, "c": 0.3, "f": 1.0})
    with pytest.raises(IntegrationError) as err:
        integrate(sysq, start, IntegratorConfig(t_end=100.0))
    assert err.value.trajectory is not None
    assert err.value.trajectory.n_samples > 1


def test_max_steps_raises_with_partial_trajectory(sysq, monkeypatch):
    monkeypatch.setattr("holoflow.integrate.MAX_STEPS", 10)
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    with pytest.raises(IntegrationError, match="max_steps") as err:
        solve_orbit(sysq, spec, IntegratorConfig(t_end=1e4))
    assert err.value.trajectory is not None
    assert err.value.trajectory.n_samples >= 1


def _hand_made_system(table, rhs_c):
    """M-shaped system a' = 1, b' = 1, c' = rhs_c over ``table``."""
    one = LaurentPoly.const(table, 1)
    return ODESystem("M", (1, 1), ("a", "b", "c"), {"a": one, "b": one, "c": rhs_c}, 3, 3)


@pytest.mark.parametrize(
    "symbol,message",
    [("a'", "contains derivative symbols"), ("u", "uses a non-state symbol")],
)
def test_rhs_outside_the_state_is_rejected(symbol, message):
    table = SymbolTable(("a", "b", "c", "u"), ("a'",))
    sys_ = _hand_made_system(table, LaurentPoly.monomial(table, 2, {symbol: 1}))
    start = State(t=0.0, values={"a": 1.0, "b": 1.0, "c": 1.0})
    with pytest.raises(IntegrationError, match=message):
        integrate(sys_, start, IntegratorConfig(t_end=1.0))


def test_csv_round_trip(tmp_path, sysm):
    cfg = IntegratorConfig(t_end=10.0)
    traj, _ = solve_orbit(sysm, OrbitSpec("M", "cp2", {"a": 1}), cfg)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,a,b,c,C"
    loaded = Trajectory.from_csv(path, "M")
    assert loaded.n_samples == traj.n_samples
    assert np.allclose(loaded.ys, traj.ys, rtol=0, atol=0)  # 17 digits round-trip
    assert np.allclose(loaded.ts, traj.ts, rtol=0, atol=0)


@pytest.mark.parametrize("kind,name", [("m", "traj_m_cp2.csv"), ("q", "traj_q_s2xs2.csv")])
def test_from_csv_reads_a_lower_case_kind(kind, name):
    path = GOLDEN / name
    loaded = Trajectory.from_csv(path, kind)
    assert loaded == Trajectory.from_csv(path, kind.upper())
    assert loaded.model_kind == kind.upper()
    assert loaded.columns == tuple(path.read_text().splitlines()[0].split(","))


@pytest.mark.parametrize("kind", ["X", "", "qm"])
def test_from_csv_rejects_an_unknown_kind(kind):
    with pytest.raises(ModelError, match="unknown model kind"):
        Trajectory.from_csv(GOLDEN / "traj_m_cp2.csv", kind)


def test_principal_orbit_start(sysq):
    """A principal orbit starts at t = 0 from its values, with a zero
    primitive and no slopes."""
    spec = OrbitSpec("Q", "principal", {"a": 1, "b": 1, "c": 1, "f": -1})
    traj, slopes = solve_orbit(sysq, spec, IntegratorConfig(t_end=5.0))
    assert (traj.status, slopes) == ("done", {})
    assert (traj.ts[0], traj.ys[0]) == (0.0, [1.0, 1.0, 1.0, -1.0, 0.0])


def test_a_prepared_system_and_an_orbit_spec_cannot_be_changed():
    """``model.derivation.sys`` is shared by every caller in a process, and
    the integrator prepares each system once: a right-hand side changed after
    a solve would be integrated as the old one.  Neither mapping takes an
    assignment, and a system copies the mapping it is given."""
    model = m_model(1, 1)
    sys_ = model.derivation.sys
    spec = OrbitSpec("M", "cp2", {"a": 1})
    solve_orbit(sys_, spec, IntegratorConfig(t_end=10.0))
    with pytest.raises(TypeError):
        sys_.rhs["a"] = 2 * sys_.rhs["a"]
    with pytest.raises(TypeError):
        spec.values["a"] = Fraction(2)
    given = dict(sys_.rhs)
    copy = ODESystem("M", (1, 1), sys_.state, given, sys_.rank, sys_.n_equations)
    given["a"] = 2 * given["a"]
    assert copy == sys_


def test_the_right_hand_sides_of_a_system_cannot_be_changed_in_place():
    """Each polynomial of a system keeps its terms read-only: doubling them
    in place after a solve would leave the prepared system stale and change
    the shared derivation for every later caller."""
    sys_ = m_model(1, 1).derivation.sys
    solve_orbit(sys_, OrbitSpec("M", "cp2", {"a": 1}), IntegratorConfig(t_end=10.0))
    terms = sys_.rhs["a"].terms
    for key in list(terms):
        with pytest.raises(TypeError):
            terms[key] *= 2
    with pytest.raises(TypeError):
        terms[(0,) * len(next(iter(terms)))] = Fraction(1)
    assert str(sys_.rhs["a"]) == "3/8*a^-1*c"
    assert str(m_model(1, 1).derivation.sys.rhs["a"]) == "3/8*a^-1*c"


def test_the_polynomials_of_a_system_cannot_be_rebound():
    """Neither attribute of a system's polynomial takes an assignment or a
    deletion, so the shared derivation keeps the derived right-hand side."""
    poly = m_model(1, 1).derivation.sys.rhs["a"]
    with pytest.raises(AttributeError):
        poly.terms = {key: 2 * c for key, c in poly.terms.items()}
    with pytest.raises(AttributeError):
        poly.table = SymbolTable(("a", "b", "c"))
    with pytest.raises(AttributeError):
        del poly.terms
    assert str(m_model(1, 1).derivation.sys.rhs["a"]) == "3/8*a^-1*c"
    assert poly * 2 == 2 * poly and str(poly * 2) == "3/4*a^-1*c"
