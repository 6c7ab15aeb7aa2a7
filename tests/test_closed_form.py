"""Closed-form profiles: exactness, ODE identity, the table read from the
derived systems, trajectory agreement."""

import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow._record import replace
from holoflow.algebra import LaurentPoly, SymbolTable
from holoflow.cli import INPUT_ERRORS
from holoflow.closed_form import (
    DomainError,
    ProfileError,
    compare,
    profile,
    s_form,
)
from holoflow.flow import DerivationError, ODESystem, derive_flow
from holoflow.homogeneous import MODEL_SPECS, m_model, q_model
from holoflow.integrate import IntegratorConfig, OrbitSpec, Trajectory, solve_orbit
from holoflow.verify import DEFAULT_BARS, verify_trajectory
from mutations import perturbed_system
from oracles import exact_value_squared, horner
from paper_tables import AFFINE_SLOPES

UNIT_MODELS = {"Q": q_model(1, 1, 1), "M": m_model(1, 1)}


@pytest.fixture(scope="module")
def sysq():
    return derive_flow(q_model(1, 1, 1))


@pytest.fixture(scope="module")
def sysm():
    return derive_flow(m_model(1, 1))


def test_profile_at_zero_returns_initial_square():
    p = profile("Q", OrbitSpec("Q", "principal", {"a": 1, "b": 2, "c": 3, "f": -5}))
    assert exact_value_squared(p, Fraction(0)) == Fraction(25)
    m = profile("M", OrbitSpec("M", "principal", {"a": 1, "b": 2, "c": 7}))
    assert exact_value_squared(m, Fraction(0)) == Fraction(49)
    s = profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    assert exact_value_squared(s, Fraction(0)) == 0


def test_profile_asymptotic_cone_ratio():
    """f^2 / |s| approaches 2 f1 = 3/2 for the cone with |f| = (3/4) t."""
    p = profile("Q", OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}))
    s = Fraction(-(10**10))
    ratio = exact_value_squared(p, s) / abs(s)
    assert abs(ratio - Fraction(3, 2)) < Fraction(1, 10**8)
    m = profile("M", OrbitSpec("M", "cp2", {"a": 1}))
    sm = Fraction(10**10)
    ratio_m = exact_value_squared(m, sm) / sm
    assert abs(ratio_m - 4) < Fraction(1, 10**8)  # c = 2t, C = t^2: c^2/C = 4


# ---------------------------------------------------------------------------
# the ODE the closed form solves
# ---------------------------------------------------------------------------


def value_squared_prime(p, s):
    """d/ds of the squared profile, exact at rational s: G' = k - N D'/D^2
    with N = x0^2 D(0) + k A, since A' = D."""
    p._check_domain(s)
    den = horner(p.denom, s)
    if den == 0:
        raise DomainError(f"denominator vanishes at s = {s}")
    k = MODEL_SPECS[p.model_kind].factor
    num = p.constant + k * horner(p.anti, s)
    dprime = tuple(Fraction(j) * c for j, c in enumerate(p.denom) if j > 0)
    return k - num * horner(dprime, s) / (den * den)


def hand_written_residual(kind, initial, s, g, gp):
    """The s-form of each system written out by hand, zero on a solution:

    Q: (1/2) G' + G * sum(1/(2s - 6 x0^2)) + 3
    M: (1/2) G' + (1/4) G / b^2 + (3/4) G / a^2 - 8
    """
    if kind == "Q":
        acc = Fraction(1, 2) * gp + 3
        for x in ("a", "b", "c"):
            acc += g / (2 * s - 6 * initial[x] ** 2)
        return acc
    a2 = initial["a"] ** 2 + Fraction(3, 4) * s
    b2 = initial["b"] ** 2 + Fraction(1, 2) * s
    return Fraction(1, 2) * gp + Fraction(1, 4) * g / b2 + Fraction(3, 4) * g / a2 - 8


def ode_residual(p, s):
    return hand_written_residual(
        p.model_kind, p.initial, s, exact_value_squared(p, s), value_squared_prime(p, s)
    )


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
            assert ode_residual(p, s) == 0
    cases_m = [
        profile("M", OrbitSpec("M", "cp2", {"a": 1})),
        profile("M", OrbitSpec("M", "cp2xs2", {"a": 2, "b": 1})),
        profile("M", OrbitSpec("M", "s2", {"b": 2})),
    ]
    for p in cases_m:
        for _ in range(20):
            s = Fraction(rng.randint(1, 10**6), rng.randint(1, 997))
            assert ode_residual(p, s) == 0


def _table_residual(affine, k, initial, s, g, gp):
    """G' - k - sum(c_x G / (x0^2 + m_x s)), c_x = -p_x m_x."""
    return gp - k - sum(-p * m * g / (initial[x] ** 2 + m * s) for x, m, p in affine)


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_hand_written_residuals_are_the_table_s_form(kind):
    """At arbitrary rational (s, G, G', x0) the hand-written system is half
    of the one read from the derived system, so both state the same ODE."""
    affine, k = s_form(UNIT_MODELS[kind].derivation.sys)
    rng = random.Random(7)

    def rational():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 997))

    for _ in range(50):
        initial = {x: rational() for x in MODEL_SPECS[kind].state_names}
        s, g, gp = rational(), rational(), rational()
        assert hand_written_residual(kind, initial, s, g, gp) == _table_residual(
            affine, k, initial, s, g, gp
        ) / 2


def _antiderivative(poly, name):
    """The antiderivative in ``name`` vanishing at ``name`` = 0."""
    out = LaurentPoly.zero(poly.table)
    for c, exps in poly.named_terms():
        e = exps.get(name, 0)
        out = out + LaurentPoly.monomial(poly.table, c / (e + 1), {**exps, name: e + 1})
    return out


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_closed_form_solves_the_derived_s_form_identically(kind):
    """G' = k + sum(c_x G / (x0^2 + m_x s)) for G = (x0^2 D(0) + k A) / D, as
    one polynomial identity in s and symbolic initial data, both sides
    multiplied by D^2; the table is the one read from the derived system,
    and D is built as ``profile`` builds it."""
    affine, k = s_form(UNIT_MODELS[kind].derivation.sys)
    last = MODEL_SPECS[kind].state_names[-1]
    table = SymbolTable(("s",) + tuple(x + "0" for x in MODEL_SPECS[kind].state_names))
    s = LaurentPoly.variable(table, "s")
    one = LaurentPoly.const(table, 1)
    factor = {x: s + LaurentPoly.monomial(table, 1 / m, {x + "0": 2}) for x, m, _ in affine}

    def product(powers):
        out = one
        for x, power in powers.items():
            out = out * factor[x] ** power
        return out

    powers = {x: p for x, _, p in affine}
    den = product(powers)
    num = LaurentPoly.monomial(table, 1, {last + "0": 2}) * den.subs(
        {"s": LaurentPoly.zero(table)}
    ) + k * _antiderivative(den, "s")
    # D / (x0^2 + m_x s) = D / (m_x (s - r_x)), a polynomial since p_x >= 1
    den_over = {x: product({**powers, x: p - 1}) * (1 / m) for x, m, p in affine}
    lhs = k * den * den - num * den.diff("s")  # D^2 G'
    rhs = k * den * den + sum((-p * m * num * den_over[x] for x, m, p in affine), 0 * one)
    assert lhs == rhs
    assert not num.is_zero and not den.diff("s").is_zero


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_s_form_of_the_derived_system_is_the_profile_table(kind):
    table = MODEL_SPECS[kind]
    assert s_form(UNIT_MODELS[kind].derivation.sys) == (table.affine, table.factor)
    assert s_form(derive_flow(UNIT_MODELS[kind])) == s_form(UNIT_MODELS[kind].derivation.sys)


MUTATIONS = [
    (kind, name, factor)
    for kind in ("Q", "M")
    for name in MODEL_SPECS[kind].state_names
    for factor in (Fraction(2), Fraction(1001, 1000))
]


@pytest.mark.parametrize("kind,name,factor", MUTATIONS, ids=lambda v: str(v))
def test_every_perturbed_system_fails_the_table_check(kind, name, factor):
    sys = perturbed_system(UNIT_MODELS[kind].derivation.sys, name, factor)
    try:
        form = s_form(sys)
    except DerivationError:
        return
    assert form != (MODEL_SPECS[kind].affine, MODEL_SPECS[kind].factor)


def _with_rhs(sys, name, poly):
    return ODESystem(
        sys.model_kind, sys.indices, sys.state, {**sys.rhs, name: poly}, sys.rank, sys.n_equations
    )


@pytest.mark.parametrize(
    "name,extra,message",
    [
        ("a", {"b": 1}, "is not constant"),
        ("f", {"f": 1}, "has a term"),
        ("f", {"a": -2}, "has a term"),
        ("f", {"a": -2, "f": 3}, "has a term"),
        ("f", {"a": -2, "f": 2}, "not positive integers"),
    ],
)
def test_s_form_names_a_system_of_another_shape(name, extra, message):
    sys = UNIT_MODELS["Q"].derivation.sys
    poly = sys.rhs[name] + LaurentPoly.monomial(sys.table, Fraction(1, 7), extra)
    with pytest.raises(DerivationError, match=message):
        s_form(_with_rhs(sys, name, poly))


def test_a_table_that_disagrees_with_the_derived_system_is_a_bug(monkeypatch):
    model = UNIT_MODELS["M"]
    spec = OrbitSpec("M", "cp2", {"a": 1})
    traj, _ = solve_orbit(model.derivation.sys, spec, IntegratorConfig(t_end=50.0))
    bars = {**DEFAULT_BARS, "closure": None}
    assert verify_trajectory(model, spec, traj, bars)[1] == 0
    wrong = (("a", Fraction(3, 4), 2), ("b", Fraction(1, 2), 2))
    monkeypatch.setitem(MODEL_SPECS, "M", replace(MODEL_SPECS["M"], affine=wrong))
    with pytest.raises(DerivationError, match="s-form differs") as err:
        verify_trajectory(model, spec, traj, bars)
    assert not isinstance(err.value, INPUT_ERRORS)


def test_domain_errors_at_poles():
    p = profile("Q", OrbitSpec("Q", "principal", {"a": 1, "b": 1, "c": 1, "f": 1}))
    with pytest.raises(DomainError):
        exact_value_squared(p, Fraction(3))
    with pytest.raises(DomainError):
        exact_value_squared(p, Fraction(7))  # beyond the pole
    m = profile("M", OrbitSpec("M", "principal", {"a": 1, "b": 1, "c": 1}))
    with pytest.raises(DomainError):
        exact_value_squared(m, Fraction(-2))


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
    )
    assert compare(traj, p) < 1e-13


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


def test_profile_rejects_the_other_models_spec():
    with pytest.raises(ProfileError, match="^orbit spec does not match the model$"):
        profile(q_model(1, 1, 1), OrbitSpec("M", "cp2", {"a": 1}))


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
        return Trajectory("M", ("a", "b", "c"), [0.0, 1.0, 2.0], ys, "loaded")

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


def _reference_value_squared(p, s):
    """float(const + k A(s)) / float(D(s)) with the exact domain check."""
    exact = Fraction(s)
    for pole in p.poles:
        if pole == 0:
            continue
        if exact == pole or (pole > 0 and exact > pole) or (pole < 0 and exact < pole):
            raise DomainError("at or beyond a pole")
    if s == 0:
        return float(p.initial[MODEL_SPECS[p.model_kind].state_names[-1]] ** 2)
    num = p.constant + MODEL_SPECS[p.model_kind].factor * horner(p.anti, s)
    den = horner(p.denom, s)
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


#: (kind, orbit, initial values, a primitive s on or past a pole, the refusal)
POLE_RUNS = {
    "at-the-pole": ("Q", "s2xs2xs2", {"a": 1, "b": 1, "c": 1}, 3.0, "evaluation at the pole s = 3"),
    "past-the-pole": ("Q", "s2xs2xs2", {"a": 1, "b": 1, "c": 1}, 6.0, "s = 6.0 beyond the pole 3"),
    "past-a-negative-pole": ("M", "cp2xs2", {"a": Fraction(1, 3), "b": Fraction(1, 7)}, -1.0,
                             "s = -1.0 beyond the pole -4/27"),
    "rounded-pole": ("Q", "s2xs2xs2", {"a": Fraction(1, 3), "b": 1, "c": 2}, float(Fraction(1, 3)),
                     f"denominator vanishes at s = {float(Fraction(1, 3))}"),
}


@pytest.mark.parametrize("case", POLE_RUNS)
def test_compare_refuses_a_primitive_at_or_past_a_pole(case):
    """``compare`` on a trajectory whose primitive reaches a pole of the
    closed form, after a first sample at s = 0: the public path to the
    domain guard and to the float denominator's refusal where float(p)
    rounds inward."""
    kind, orbit, values, s, message = POLE_RUNS[case]
    names = MODEL_SPECS[kind].state_names
    traj = Trajectory(kind, names, [0.0, 1.0], [[1.0] * len(names) + [0.0], [1.0] * len(names) + [s]])
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        compare(traj, profile(kind, OrbitSpec(kind, orbit, values)))


# ---------------------------------------------------------------------------
# the straight-line float profile against the Fraction coefficients
# ---------------------------------------------------------------------------

def _reference_float_squares(p, s):
    """The squared coefficients, the affine ones as the float branch of
    ``coefficient_squares`` wrote them before it rounded its constants once."""
    out = {
        x: float(p.initial[x] ** 2) + float(m) * s for x, m in AFFINE_SLOPES[p.model_kind].items()
    }
    out["f" if p.model_kind == "Q" else "c"] = _reference_value_squared(p, s)
    return out


def _outcome(fn, s):
    """The type and bits of ``fn(s)``, or the type of the error it raises."""
    try:
        result = fn(s)
    except DomainError:
        return DomainError
    if isinstance(result, dict):
        return [(k, type(v), struct.pack("<d", v)) for k, v in result.items()]
    return type(result), struct.pack("<d", result)


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


def _assert_bit_identical(p, s, as_type=np.float64):
    """Each float evaluator of ``p`` at a float s, and ``value_squared`` at
    the same s as an ``as_type``, against the reference: a float with the
    reference's bits, or s refused as the reference refuses it."""
    want = _outcome(lambda x: _reference_value_squared(p, x), s)
    assert _outcome(p.float_value_squared, s) == want, s
    assert _outcome(p.value_squared, as_type(s)) == want, s
    assert _outcome(p.coefficient_squares, s) == _outcome(lambda x: _reference_float_squares(p, x), s), s


@pytest.mark.parametrize("kind,orbit,values", FLOAT_CASES)
@pytest.mark.parametrize("as_type", [float, np.float64])
def test_float_value_squared_matches_fraction_coefficients(kind, orbit, values, as_type):
    """One ``FLOAT_CASES`` profile at the float extremes, at 200 seeded
    uniform points and at each pole and its neighbours, ``value_squared``
    given s as an ``as_type``."""
    p = profile(kind, OrbitSpec(kind, orbit, values))
    for x in _float_points(p, random.Random(5)):
        _assert_bit_identical(p, float(x), as_type)


@seed(34714898673879551082795478383896745408111261626958006999104251953053677402350087871076961391244706370767536761829916)
@settings(max_examples=200, deadline=None, database=None)
@given(profile_points())
def test_straight_line_profile_is_bit_identical_to_value_squared(case):
    """The seeded draws of random initial data with s near a pole, at an
    edge or anywhere."""
    _assert_bit_identical(*case)
