"""Closed-form profiles: exactness, ODE identity, trajectory agreement."""

import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow.closed_form import DomainError, ProfileError, compare, profile
from holoflow.flow import derive_flow
from holoflow.homogeneous import m_model, q_model
from holoflow.integrate import IntegratorConfig, OrbitSpec, Trajectory, solve_orbit


@pytest.fixture(scope="module")
def sysq():
    return derive_flow(q_model(1, 1, 1))


@pytest.fixture(scope="module")
def sysm():
    return derive_flow(m_model(1, 1))


def test_profile_at_zero_returns_initial_square():
    p = profile("Q", OrbitSpec("Q", "principal", {"a": 1, "b": 2, "c": 3, "f": -5}))
    assert p.value_squared(Fraction(0)) == Fraction(25)
    m = profile("M", OrbitSpec("M", "principal", {"a": 1, "b": 2, "c": 7}))
    assert m.value_squared(Fraction(0)) == Fraction(49)
    s = profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    assert s.value_squared(Fraction(0)) == 0


def test_profile_spot_value_s2xs2():
    """Independent oracle: the quartic antiderivative of s(s-3)^2 is
    s^4/4 - 2 s^3 + 9 s^2 / 2, equal to 459/4 at s = -3, and the
    denominator product is -108; variation of constants multiplies the
    integral by -6."""
    anti = lambda s: s**4 / 4 - 2 * s**3 + Fraction(9, 2) * s**2
    assert anti(Fraction(-3)) == Fraction(459, 4)
    den = (-3 - 0) * (-3 - 3) * (-3 - 3)
    assert den == -108
    expected = Fraction(-6) * Fraction(459, 4) / den
    assert expected == Fraction(51, 8)
    p = profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    assert p.value_squared(Fraction(-3)) == Fraction(51, 8)


def test_profile_asymptotic_cone_ratio():
    """f^2 / |s| approaches 2 f1 = 3/2 for the cone with |f| = (3/4) t."""
    p = profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    s = Fraction(-(10**10))
    ratio = p.value_squared(s) / abs(s)
    assert abs(ratio - Fraction(3, 2)) < Fraction(1, 10**8)
    m = profile("M", OrbitSpec("M", "cp2", {"a": 1}))
    sm = Fraction(10**10)
    ratio_m = m.value_squared(sm) / sm
    assert abs(ratio_m - 4) < Fraction(1, 10**8)  # c = 2t, C = t^2: c^2/C = 4


def test_ode_identity_exact_at_random_rationals():
    rng = random.Random(11)
    cases = [
        profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 2})),
        profile("Q", OrbitSpec("Q", "s2xs2xs2", {"a": 2, "b": 1, "c": 1})),
        profile("Q", OrbitSpec("Q", "principal", {"a": 1, "b": 1, "c": 2, "f": -1})),
    ]
    for p in cases:
        for _ in range(20):
            s = Fraction(-rng.randint(1, 10**6), rng.randint(1, 997))
            assert p.ode_residual(s) == 0
    cases_m = [
        profile("M", OrbitSpec("M", "cp2", {"a": 1})),
        profile("M", OrbitSpec("M", "cp2xs2", {"a": 2, "b": 1})),
        profile("M", OrbitSpec("M", "s2", {"b": 2})),
    ]
    for p in cases_m:
        for _ in range(20):
            s = Fraction(rng.randint(1, 10**6), rng.randint(1, 997))
            assert p.ode_residual(s) == 0


def test_domain_errors_at_poles():
    p = profile("Q", OrbitSpec("Q", "principal", {"a": 1, "b": 1, "c": 1, "f": 1}))
    with pytest.raises(DomainError):
        p.value_squared(Fraction(3))
    with pytest.raises(DomainError):
        p.value_squared(Fraction(7))  # beyond the pole
    m = profile("M", OrbitSpec("M", "principal", {"a": 1, "b": 1, "c": 1}))
    with pytest.raises(DomainError):
        m.value_squared(Fraction(-2))


def test_compare_on_closed_form_sampled_trajectory():
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    p = profile("Q", spec)
    svals = np.linspace(-50.0, -0.01, 200)
    rows = []
    for s in svals:
        sq = p.coefficient_squares(float(s))
        rows.append(
            [
                np.sqrt(sq["a"]),
                np.sqrt(sq["b"]),
                np.sqrt(sq["c"]),
                -np.sqrt(sq["f"]),
                s,
            ]
        )
    traj = Trajectory(
        model_kind="Q",
        state_names=("a", "b", "c", "f"),
        ts=np.linspace(0.1, 20.0, 200),  # compare never uses t
        ys=np.asarray(rows),
        dense=None,
    )
    assert compare(traj, p) < 1e-13


def test_compare_numerical_agreement(sysq, sysm):
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=50.0)
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    traj, _ = solve_orbit(sysq, spec, cfg)
    assert compare(traj, profile("Q", spec)) <= 1e-8
    specm = OrbitSpec("M", "cp2", {"a": 1})
    trajm, _ = solve_orbit(sysm, specm, cfg)
    assert compare(trajm, profile("M", specm)) <= 1e-8


def test_compare_symmetric_under_sign_branch(sysq):
    cfg = IntegratorConfig(t_end=20.0)
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    spec_neg = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}, negative_branch=True)
    p = profile("Q", spec)
    t1, _ = solve_orbit(sysq, spec, cfg)
    t2, _ = solve_orbit(sysq, spec_neg, cfg)
    d1 = compare(t1, p)
    d2 = compare(t2, p)
    assert d1 == pytest.approx(d2, rel=1e-3)


def test_primitive_direction_conventions(sysq, sysm):
    cfg = IntegratorConfig(t_end=30.0)
    traj, _ = solve_orbit(sysq, OrbitSpec("Q", "s2xs2xs2", {"a": 1, "b": 1, "c": 1}), cfg)
    assert np.all(np.asarray(traj.ys)[:, -1] <= 0)
    for j in range(3):
        assert np.all(np.diff(np.asarray(traj.ys)[:, j] ** 2) >= 0)
    trajm, _ = solve_orbit(sysm, OrbitSpec("M", "s2", {"b": 1}), cfg)
    assert np.all(np.asarray(trajm.ys)[:, -1] >= 0)


def test_compare_model_mismatch_rejected(sysq):
    cfg = IntegratorConfig(t_end=5.0)
    traj, _ = solve_orbit(sysq, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}), cfg)
    with pytest.raises(ProfileError):
        compare(traj, profile("M", OrbitSpec("M", "cp2", {"a": 1})))



#: stored M cp2 rows (a, b, c, C) that compare cannot measure: a^2 beyond
#: float range, the closed form c^2 not finite at s = 1e300, and a deviation
#: past float range (c^2 = 1e308 against a closed form of 0 at s = 0)
UNMEASURABLE_ROWS = {
    "square-overflows": ([1e200, 1.0, 1.0, 1.0], "a squared coefficient is beyond float range"),
    "closed-form-not-finite": ([1.0, 1.0, 1.0, 1e300], "not finite at s = 1e+300"),
    "deviation-overflows": ([1.0, 1.0, 1e154, 0.0], "a deviation is beyond float range"),
}


@pytest.mark.parametrize("case", sorted(UNMEASURABLE_ROWS))
def test_compare_rejects_a_row_it_cannot_measure(case):
    row, message = UNMEASURABLE_ROWS[case]
    prof = profile("M", OrbitSpec("M", "cp2", {"a": 1}))

    def stored(ys):
        return Trajectory("M", ("a", "b", "c"), [0.0, 1.0, 2.0], ys, None, "loaded")

    good = [1.0, 0.0, 0.0, 0.0]  # the closed form at s = 0
    assert compare(stored([good] * 3), prof) == 0.0
    with pytest.raises(ProfileError, match=re.escape(message)):
        compare(stored([good, row, good]), prof)

# ---------------------------------------------------------------------------
# float evaluation against the Fraction coefficients
# ---------------------------------------------------------------------------

FLOAT_CASES = [
    ("Q", "principal", {"a": 1, "b": 2, "c": 3, "f": -5}),
    ("Q", "principal", {"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3), "f": 1}),
    ("Q", "s2xs2", {"b": 1, "c": 1}),
    ("Q", "s2xs2xs2", {"a": Fraction(1, 3), "b": 1, "c": 2}),
    ("M", "cp2", {"a": 1}),
    ("M", "cp2xs2", {"a": Fraction(1, 3), "b": Fraction(1, 7)}),
    ("M", "s2", {"b": 2}),
    ("M", "principal", {"a": 1, "b": Fraction(2, 3), "c": 7}),
]


def _horner_through_fractions(coeffs, s):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c  # Fraction op float rounds the Fraction to float first
    return acc


def _reference_value_squared(p, s):
    """float(const + k A(s)) / float(D(s)) with the exact domain check."""
    exact = Fraction(s)
    for pole in p.poles:
        if pole == 0:
            continue
        if exact == pole or (pole > 0 and exact > pole) or (pole < 0 and exact < pole):
            raise DomainError("at or beyond a pole")
    if s == 0:
        return float(p.collapsing_square0)
    num = p.constant + p.integral_factor * _horner_through_fractions(p.anti, s)
    den = _horner_through_fractions(p.denom, s)
    if den == 0:
        raise DomainError("denominator vanishes")
    return float(num) / float(den)


def _float_points(p, rng):
    pts = [0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6, 1e300, -1e300]
    pts += [rng.uniform(-50.0, 50.0) for _ in range(200)]
    for pole in p.poles:
        fp = float(pole)
        pts += [fp, np.nextafter(fp, -np.inf), np.nextafter(fp, np.inf), 2 * fp, fp / 2]
    return pts


@pytest.mark.parametrize("kind,orbit,values", FLOAT_CASES)
@pytest.mark.parametrize("as_type", [float, np.float64])
def test_float_value_squared_matches_fraction_coefficients(kind, orbit, values, as_type):
    p = profile(kind, OrbitSpec(kind, orbit, values))
    rng = random.Random(5)
    for x in _float_points(p, rng):
        s = as_type(x)
        try:
            want = _reference_value_squared(p, float(x))
        except DomainError:
            with pytest.raises(DomainError):
                p.value_squared(s)
            continue
        got = p.value_squared(s)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s, got, want)


def test_a_coefficient_beyond_float_range_is_a_profile_error():
    # a0 = 1e120: D(s) = (s + 4 a0^2 / 3)^2 (s + 2) has coefficients near 1e480
    p = profile("M", OrbitSpec("M", "principal", {"a": 10**120, "b": 1, "c": 1}))
    assert p.value_squared(0.0) == 1.0
    with pytest.raises(ProfileError, match="a closed-form coefficient is beyond float range"):
        p.value_squared(1.0)


@pytest.mark.parametrize("as_type", [float, np.float64])
def test_float_domain_errors_at_and_beyond_poles(as_type):
    """Every float on or beyond an exact pole is refused by the domain guard.

    Where float(p) rounds inward (1/3 rounds down for Q, -2/49 rounds up for
    M), the guard finds float(p) inside the domain; there the refusal comes
    from the float denominator D(float(p)) rounding to exactly 0.
    """
    q = profile("Q", OrbitSpec("Q", "s2xs2xs2", {"a": Fraction(1, 3), "b": 1, "c": 2}))
    m = profile("M", OrbitSpec("M", "cp2xs2", {"a": Fraction(1, 3), "b": Fraction(1, 7)}))
    inward = []
    for p, sign in ((q, 1), (m, -1)):
        outward = sign * np.inf
        guarded = [pole for pole in p.poles if sign * pole > 0]
        for pole in guarded:
            fp = float(pole)
            on_or_beyond = sign * (Fraction(fp) - pole) >= 0
            first = fp if on_or_beyond else float(np.nextafter(fp, outward))
            assert sign * (Fraction(first) - pole) >= 0
            for s in (first, 2 * fp, outward):
                with pytest.raises(DomainError, match="pole"):
                    p.value_squared(as_type(s))
            if all(sign * (Fraction(fp) - other) < 0 for other in guarded):
                inward.append((p, fp))
    assert [(p.model_kind, fp) for p, fp in inward] == [
        ("Q", float(Fraction(1, 3))),
        ("M", float(Fraction(-2, 49))),
    ]
    for p, fp in inward:
        with pytest.raises(DomainError, match="denominator vanishes"):
            p.value_squared(as_type(fp))


# ---------------------------------------------------------------------------
# the straight-line float profile against the Fraction coefficients
# ---------------------------------------------------------------------------

#: the squared coefficients affine in s, as the float branch of
#: coefficient_squares wrote them before it rounded its constants once
AFFINE_SLOPES = {
    "Q": {"a": Fraction(-1, 3), "b": Fraction(-1, 3), "c": Fraction(-1, 3)},
    "M": {"a": Fraction(3, 4), "b": Fraction(1, 2)},
}


def _reference_float_squares(p, s):
    out = {
        x: float(p.initial[x] ** 2) + float(m) * s for x, m in AFFINE_SLOPES[p.model_kind].items()
    }
    out["f" if p.model_kind == "Q" else "c"] = _reference_value_squared(p, s)
    return out


def _outcome(fn, s):
    """The bits of ``fn(s)``, or the type of the error it raises."""
    try:
        result = fn(s)
    except DomainError:
        return DomainError
    if isinstance(result, dict):
        return [(k, struct.pack("<d", v)) for k, v in result.items()]
    return struct.pack("<d", result)


VALUE = st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)


@st.composite
def profile_points(draw):
    """A profile of random initial data and a float s near one of its poles,
    on either side, or anywhere in float range."""
    kind, orbit, values = draw(st.sampled_from(FLOAT_CASES))
    p = profile(kind, OrbitSpec(kind, orbit, {x: draw(VALUE, label=x) for x in values}))
    pole = float(draw(st.sampled_from(p.poles)))
    near = st.floats(pole - 2 * abs(pole) - 1, pole + 2 * abs(pole) + 1)
    edges = st.sampled_from(
        [pole, math.nextafter(pole, -math.inf), math.nextafter(pole, math.inf), 0.0, -0.0]
    )
    s = draw(st.one_of(near, edges, st.floats(allow_nan=False, allow_infinity=False)))
    return p, s


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(profile_points())
def test_straight_line_profile_is_bit_identical_to_value_squared(case):
    p, s = case
    assert _outcome(p.float_value_squared, s) == _outcome(
        lambda x: _reference_value_squared(p, x), s
    )
    assert _outcome(p.coefficient_squares, s) == _outcome(
        lambda x: _reference_float_squares(p, x), s
    )
