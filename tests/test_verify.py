"""Closure residuals, cone fits, smoothness verdicts, SU(4) certificate."""

import math
import struct
import warnings
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from holoflow._record import replace
from holoflow.algebra import LaurentPoly, Multivector
from holoflow import verify
from holoflow.closed_form import ProfileM, ProfileQ, compare, profile, s_form
from holoflow.flow import derive_flow, exterior_d_time
from holoflow.homogeneous import MODEL_SPECS, get_model, invariant_d, m_model, q_model
from holoflow.integrate import IntegratorConfig, OrbitSpec, SeriesStartError, Trajectory, solve_orbit
from holoflow.structures import rotation_generator
from holoflow.verify import (
    CLOSURE_MAX_ROWS,
    CONE_REFS,
    DEFAULT_BARS,
    ProfileSampler,
    TrajectorySampler,
    VerifyError,
    _residuals,
    _cone_quantities,
    _linspace,
    catalog_row,
    check_closure,
    check_closure_samples,
    cone_fit,
    cone_location,
    evaluate_bars,
    fd_weights,
    orbit_catalog,
    s_action_circle,
    smoothness_report,
    su4_family_check,
    verify_trajectory,
)
from mutations import perturbed_system
from oracles import cone_quantities, exact_cone_fit, exact_value_squared, max_abs_coefficient
from paper_tables import CIRCLE, ORBIT_CATALOG, UNIT_ORBITS
from paper_tables import CONE_REFS as PAPER_CONE_REFS


@pytest.fixture(scope="module")
def q_setup():
    model = q_model(1, 1, 1)
    deriv = model.derivation
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    traj, _ = solve_orbit(deriv.sys, spec, IntegratorConfig(t_end=50.0))
    sampler = ProfileSampler(profile(model, spec), traj)
    return model, deriv, spec, traj, sampler


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_residual_meets_bar(q_setup):
    model, deriv, spec, traj, sampler = q_setup
    rep = check_closure(sampler, deriv)
    assert rep.d_omega_residual <= 1e-9
    assert rep.d_eta_residual <= 1e-9


def test_closure_refinement_order(q_setup):
    """Centered differences: halving the step divides the residual by ~4."""
    model, deriv, spec, traj, sampler = q_setup
    pts = [2.0, 5.0, 11.0]
    r1 = check_closure(sampler, deriv, t_points=pts, fd_step=2e-2)
    r2 = check_closure(sampler, deriv, t_points=pts, fd_step=1e-2)
    r4 = check_closure(sampler, deriv, t_points=pts, fd_step=5e-3)
    ratio1 = r1.max_residual / r2.max_residual
    ratio2 = r2.max_residual / r4.max_residual
    assert 3.0 < ratio1 < 5.0
    assert 3.0 < ratio2 < 5.0


def test_closure_detects_sign_tampering(q_setup):
    """Negating f only in the eta check leaves an O(1) residual."""
    model, deriv, spec, traj, sampler = q_setup

    class Tampered:
        t_min = sampler.t_min
        t_max = sampler.t_max

        def __call__(self, t):
            vals = dict(sampler(t))
            vals["f"] = -vals["f"]
            return vals

    rep = check_closure(Tampered(), deriv, t_points=[2.0, 5.0, 9.0])
    assert rep.d_eta_residual > 0.05


def test_closure_requires_three_samples(q_setup):
    model, deriv, spec, traj, sampler = q_setup
    with pytest.raises(VerifyError):
        check_closure(sampler, deriv, t_points=[1.0, 2.0])


@pytest.mark.parametrize("t_max", [2e-6, 1e-5, 3e-5, 1.5e-4])
def test_closure_refuses_a_span_within_twice_the_margin_before_sampling(q_setup, t_max):
    # margin = 2 * fd_step * (1 + t_max); a span of at most twice it leaves no
    # point inside the run, so no sampler method may be reached
    model, deriv, spec, traj, sampler = q_setup

    class Untouchable:
        t_min = 1e-6

        def __getattr__(self, name):
            raise AssertionError(f"sampler.{name} read")

        def __call__(self, t):
            raise AssertionError("sampler called")

    short = Untouchable()
    short.t_max = t_max
    fd_step = 1e-5 if t_max < 1e-4 else 4e-5
    margin = 2 * fd_step * (1 + t_max)
    message = f"spans {t_max - 1e-6:.3g} in t, at most twice its margin {margin:.3g}"
    with pytest.raises(VerifyError, match=message):
        check_closure(short, deriv, fd_step=fd_step)


def test_closure_checks_reuse_the_derived_forms(q_setup, monkeypatch):
    model, deriv, spec, traj, sampler = q_setup

    def no_derivative(*args, **kwargs):
        raise AssertionError("d recomputed")

    monkeypatch.setattr("holoflow.flow.exterior_d_time", no_derivative)
    assert check_closure(sampler, deriv, t_points=[2.0, 5.0, 9.0]).max_residual < 1e-6
    assert check_closure_samples(traj, deriv).max_residual < 1e-3


def test_each_check_names_its_worst_sample(q_setup, monkeypatch):
    """The location each check writes for the missed-bar line is the
    arg-max of its samples, the first of equal ones: the t and coefficient
    of the largest closed-form deviation, the t and form of the larger
    closure residual, and the cone quantity of the largest delta with t_end
    over the initial scale."""
    model, deriv, spec, traj, sampler = q_setup
    where = {}
    deviation = compare(traj, profile(model, spec), where)
    prof, devs = profile(model, spec), []
    for t, row in zip(traj.ts, traj.ys):
        want = prof.coefficient_squares(row[-1])
        floor = max(max(abs(v) for v in want.values()), 1e-300) * 1e-6
        for j, name in enumerate(traj.state_names):
            devs.append((abs(row[j] ** 2 - want[name]) / max(abs(want[name]), floor), t, name))
    worst = max(devs, key=lambda d: d[0])
    assert deviation == worst[0]
    assert where == {"closed_form": f"t={worst[1]:.3g} ({worst[2]})"}

    # each closure check's residuals, sample by sample, at its sample t
    real, seen = verify._residuals, []
    monkeypatch.setattr(verify, "_residuals", lambda d, assign: seen.append(real(d, assign)) or seen[-1])
    points = _linspace(1.0, 40.0, 9)
    n = traj.n_samples
    runs = [
        (lambda w: check_closure(sampler, deriv, t_points=points, where=w), points),
        (lambda w: check_closure_samples(traj, deriv, w), traj.ts[1 : n - 1 : max(1, (n - 2) // CLOSURE_MAX_ROWS)]),
    ]
    for check, ts in runs:
        where, seen[:] = {}, []
        rep = check(where)
        assert len(seen) == len(ts)
        t_omega, r_omega = max(zip(ts, (r for r, _ in seen)), key=lambda p: p[1])
        t_eta, r_eta = max(zip(ts, (r for _, r in seen)), key=lambda p: p[1])
        assert (rep.d_omega_residual, rep.d_eta_residual) == (r_omega, r_eta)
        at = f"t={t_omega:.3g} (d_omega)" if r_omega >= r_eta else f"t={t_eta:.3g} (d_eta)"
        assert where == {"closure": at}

    cone = cone_fit(traj)
    name = max(cone.deltas, key=cone.deltas.get)
    assert cone.deltas[name] == cone.max_delta
    span = traj.ts[-1] / max(abs(v) for v in traj.ys[0][:-1])
    assert cone_location(cone, traj) == f"{name} (t_end/scale={span:.3g})"


def test_closure_raw_samples(q_setup):
    model, deriv, spec, traj, sampler = q_setup
    rep = check_closure_samples(traj, deriv)
    assert rep.max_residual < 1e-3


def test_closure_raw_samples_need_three_samples(q_setup):
    model, deriv, spec, traj, sampler = q_setup
    two = Trajectory("Q", traj.state_names, traj.ts[:2], traj.ys[:2], "loaded")
    with pytest.raises(VerifyError, match="^need at least 3 samples for centered differences$"):
        check_closure_samples(two, deriv)


def test_closure_rejects_a_residual_beyond_float_range(q_setup):
    model, deriv, spec, traj, sampler = q_setup

    class Steep:
        """a, b, c of 1e-70 and f of 1e-140 at each whole t, every
        coefficient -1e300 a step before it and 1e300 a step after: Omega is
        of order 1e-280, the slopes of order 1e304, and d(Omega), with its
        term abc f', of order 1e95, so d(Omega) / Omega passes float range."""

        t_min, t_max = 0.0, 10.0

        def __call__(self, t):
            offset = t - round(t)
            if offset == 0:
                return {"a": 1e-70, "b": 1e-70, "c": 1e-70, "f": 1e-140}
            return dict.fromkeys("abcf", math.copysign(1e300, offset))

    with pytest.raises(VerifyError, match="^closure check: a residual is beyond float range$"):
        check_closure(Steep(), deriv, t_points=[2.0, 5.0, 9.0])


def test_profile_sampler_rejects_anchors_of_the_other_model(q_setup):
    model, deriv, spec, traj, sampler = q_setup
    with pytest.raises(VerifyError, match="^profile and anchor trajectory disagree on the model$"):
        ProfileSampler(profile("M", OrbitSpec("M", "cp2", {"a": 1})), traj)


def test_profile_sampler_rejects_anchors_past_the_profiles_zero():
    """M cp2 at a = 1 has c^2 < 0 for s < 0: an anchor at C = -1 leaves the
    inversion no speed."""
    prof = profile("M", OrbitSpec("M", "cp2", {"a": 1}))
    anchors = Trajectory("M", ("a", "b", "c"), [1.0, 2.0, 3.0], [[1.0, 1.0, 1.0, -1.0]] * 3, "loaded")
    with pytest.raises(VerifyError, match="^profile speed vanished during inversion$"):
        ProfileSampler(prof, anchors)(2.0)


# ---------------------------------------------------------------------------
# the compiled closure forms against eval_numeric
# ---------------------------------------------------------------------------


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _reference_residuals(deriv, assign):
    """The closure residuals from ``eval_numeric``, form by form."""
    mid = {n: assign[n] for n in deriv.model.symbols.base}
    omega_scale = max_abs_coefficient(deriv.struct.Omega.eval_numeric(mid))
    eta_scale = max_abs_coefficient(deriv.cert.eta.eval_numeric(mid))
    r_omega = max_abs_coefficient(deriv.d_Omega.eval_numeric(assign)) / omega_scale
    r_eta = max_abs_coefficient(deriv.cert.d_eta.eval_numeric(assign)) / eta_scale
    return r_omega, r_eta


SIGNED = st.builds(lambda m, neg: -m if neg else m, st.floats(1e-8, 1e8), st.booleans())


@pytest.mark.parametrize("kind,indices", [("Q", (1, 1, 1)), ("M", (1, 1))])
@seed(14386812660297997194485134119621459136812925897895325197388503838079872824879473264441607678129551267257059358111708)
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_compiled_closure_forms_are_bit_identical_to_eval_numeric(kind, indices, data):
    deriv = get_model(kind, indices).derivation
    names = deriv.struct.table.names
    assign = {n: data.draw(SIGNED, label=n) for n in names}
    evaluate, ends = deriv.closure_forms
    out = [0.0] * ends[-1]
    assert evaluate([assign[n] for n in names], out) is True
    forms = (deriv.struct.Omega, deriv.cert.eta, deriv.d_Omega, deriv.cert.d_eta)
    for form, lo, hi in zip(forms, (0,) + ends, ends):
        want = form.eval_numeric(assign).terms
        got = {m: c for (m, _), c in zip(form.sorted_terms(), out[lo:hi]) if c}
        assert list(got) == list(want)
        assert _bits(got.values()) == _bits(want.values())
    assert _bits(_residuals(deriv, assign)) == _bits(_reference_residuals(deriv, assign))


# ---------------------------------------------------------------------------
# the plain-list replacements of numpy's linspace and searchsorted
# ---------------------------------------------------------------------------

BOUNDED = st.floats(-1e300, 1e300)


@seed(32712876026671449302709289398626783882215229984312814478071720544561774184487069152960634099231642309453030718439298)
@settings(max_examples=300, deadline=None, database=None)
@given(t_min=BOUNDED, t_max=BOUNDED, margin=BOUNDED, n=st.integers(0, 60))
@example(t_min=0.0, t_max=5e-324, margin=0.0, n=4)  # the step underflows to 0
@example(t_min=-0.0, t_max=-0.0, margin=0.0, n=3)
def test_sample_points_are_bit_identical_to_linspace(t_min, t_max, margin, n):
    points = _linspace(t_min + margin, t_max - margin, n)
    want = np.linspace(t_min + margin, t_max - margin, n)
    assert np.array(points, dtype=float).tobytes() == want.tobytes()


increasing = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True).map(sorted)


@seed(11734764566857735477221069332332003983838264880878686448005886877819330818551842466699979355300991025134349041470364)
@settings(max_examples=300, deadline=None, database=None)
@given(ts=increasing, data=st.data())
def test_bisect_matches_searchsorted_on_increasing_times(ts, data):
    t = data.draw(st.one_of(st.sampled_from(ts), st.floats(-2e6, 2e6)))
    assert bisect_left(ts, t) == np.searchsorted(ts, t)
    assert bisect_right(ts, t) == np.searchsorted(ts, t, side="right")


def test_trajectory_sampler_reads_only_sample_times():
    ts = [0.0, 0.5, 2.0]
    ys = [[1.0, 2.0, 3.0, 0.0], [4.0, 5.0, 6.0, 0.5], [7.0, 8.0, 9.0, 1.0]]
    sampler = TrajectorySampler(Trajectory("M", ("a", "b", "c"), ts, ys))
    assert "__call__" in TrajectorySampler.__dict__  # the benchmark recorder wraps it
    for t, row in zip(ts, ys):
        assert sampler(t) == dict(zip(("a", "b", "c"), row))
    for t in (0.25, -1.0, 2.5, math.nan, math.inf):
        with pytest.raises(VerifyError, match="not a sample time"):
            sampler(t)


# ---------------------------------------------------------------------------
# finite-difference weights on stored samples
# ---------------------------------------------------------------------------

spacing = st.fractions(min_value=Fraction(1, 64), max_value=10, max_denominator=64)


@seed(21080819170384339650496759357877872184020605007982645841485558193875006242764593612546140999377714817587158897446687)
@settings(max_examples=200, deadline=None, database=None)
@given(
    gaps=st.lists(spacing, min_size=4, max_size=4),
    start=st.fractions(-10, 10, max_denominator=64),
    at=st.integers(0, 4),
    coeffs=st.lists(st.fractions(-100, 100, max_denominator=64), min_size=5, max_size=5),
)
def test_fd_weights_differentiate_quartics_exactly(gaps, start, at, coeffs):
    nodes = [start]
    for gap in gaps:
        nodes.append(nodes[-1] + gap)
    x0 = nodes[at]

    def poly(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    slope = sum(k * c * x0 ** (k - 1) for k, c in enumerate(coeffs) if k)
    weights = fd_weights(x0, nodes)
    assert sum(w * poly(x) for w, x in zip(weights, nodes)) == slope


@seed(6904393670056694602065551252021430776526701021220834142536556284491994984390569218775657958169746736652632762635544)
@settings(max_examples=100, deadline=None, database=None)
@given(hm=spacing, hp=spacing)
def test_three_rows_keep_the_three_point_stencil(hm, hp):
    """With three nodes the weights are the classic non-uniform formula."""
    weights = fd_weights(Fraction(0), [-hm, Fraction(0), hp])
    assert weights == [
        -hp / (hm * (hm + hp)),
        (hp - hm) / (hm * hp),
        hm / (hp * (hm + hp)),
    ]


# ---------------------------------------------------------------------------
# cone fits
# ---------------------------------------------------------------------------


def test_cone_fit_exact_on_pure_cone_data():
    t = np.linspace(10.0, 1e4, 400)
    a = t / math.sqrt(8.0)
    f = -0.75 * t
    F = -3.0 / 8.0 * t**2
    ys = np.stack([a, a, a, f, F], axis=1)
    traj = Trajectory("Q", ("a", "b", "c", "f"), t, ys)
    fit = cone_fit(traj)
    assert fit.max_delta < 1e-12
    assert all(abs(v) < 1e-9 for v in fit.corrections.values())
    assert not fit.partial


def test_cone_fit_on_integrated_run():
    model = m_model(1, 1)
    sys = derive_flow(model)
    traj, _ = solve_orbit(sys, OrbitSpec("M", "cp2", {"a": 1}), IntegratorConfig(t_end=1e4))
    fit = cone_fit(traj)
    assert fit.max_delta <= 1e-3
    assert fit.refs == PAPER_CONE_REFS["M"]
    # the fitted constants are even closer than the endpoint values
    assert abs(fit.limits["c/t"] - PAPER_CONE_REFS["M"]["c/t"]) < 1e-5


def test_cone_fit_flags_short_runs():
    model = q_model(1, 1, 1)
    sys = derive_flow(model)
    traj, _ = solve_orbit(sys, OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1}), IntegratorConfig(t_end=50.0))
    assert cone_fit(traj).partial


def test_cone_fit_on_principal_run_starting_at_t0_is_warning_free():
    sys = q_model(1, 1, 1).derivation.sys
    spec = OrbitSpec("Q", "principal", {"a": 1, "b": 1, "c": 1, "f": -1})
    traj, _ = solve_orbit(sys, spec, IntegratorConfig(t_end=5.0))
    assert traj.ts[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = cone_fit(traj)
    assert fit.partial
    assert all(math.isfinite(v) for v in (*fit.limits.values(), *fit.endpoint.values()))


UNIT_TRAJS = ["traj_q_s2xs2.csv", "traj_q_s2xs2xs2.csv", "traj_m_cp2.csv", "traj_m_cp2xs2.csv", "traj_m_s2.csv"]


@pytest.mark.parametrize("name", UNIT_TRAJS)
def test_exact_cone_fit_is_within_ulps_of_lapack(name):
    """The decision packet's exact fit against ``cone_fit`` on the five
    unit-data runs: limits within 4 ulps, corrections within 1e-11."""
    traj = Trajectory.from_csv(Path(__file__).parent / "golden" / name, name.split("_")[1].upper())
    fit = cone_fit(traj)
    limits, corrections = exact_cone_fit(traj)
    assert limits.keys() == fit.limits.keys() == corrections.keys() == fit.corrections.keys()
    for q, exact in limits.items():
        assert abs(fit.limits[q] - exact) <= 4 * math.ulp(exact), q
        assert abs(fit.corrections[q] - corrections[q]) <= 1e-11 * abs(corrections[q]), q


def test_closed_form_fails_every_perturbed_stored_run(tmp_path, capsys):
    """A stored run of a system with one right-hand side 0.1% too large:
    with each orbit's series start, 6 of the 17 (orbit, state) pairs have
    no start at all, and the closed-form bar fails the other 11 runs after
    they are written and read back.  Each prints one ``failed:`` line; the
    raw-sample closure check fails 4 of the 11 and passes the other 7."""
    no_start, runs, closure = [], 0, 0
    for kind, orbit, names in UNIT_ORBITS:
        model = get_model(kind, (1,) * len(MODEL_SPECS[kind].index_names))
        spec = OrbitSpec(kind, orbit, dict.fromkeys(names, 1))
        sys = model.derivation.sys
        for name in sys.state:
            try:
                traj, _ = solve_orbit(perturbed_system(sys, name, Fraction(1001, 1000)), spec, IntegratorConfig())
            except SeriesStartError:
                no_start.append((orbit, name))
                continue
            path = tmp_path / f"{orbit}_{name}.csv"
            traj.to_csv(path)
            bars = dict.fromkeys(("closure", "cone", "closed_form"))
            doc, code = verify_trajectory(model, spec, Trajectory.from_csv(path, kind), bars)
            assert code == 1 and "closed_form" in doc["bars_failed"], (orbit, name, doc["bars_failed"])
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("failed: ") and "closed_form " in line, (orbit, name, line)
            closure += "closure " in line
            runs += 1
    assert (len(no_start), runs, closure) == (6, 11, 4), no_start


@pytest.mark.parametrize("kind,orbit,names", UNIT_ORBITS, ids=[orbit for _, orbit, _ in UNIT_ORBITS])
def test_exact_cone_fit_holds_the_limits_over_the_scaled_unit_family(kind, orbit, names):
    """With every initial value equal to v, the exactly fitted cone limits
    lie within the default cone bar of the refs on every run, also where
    the endpoint deltas miss it (at v = 10)."""
    model = get_model(kind, (1,) * len(MODEL_SPECS[kind].index_names))
    for v in (Fraction(1, 10), Fraction(1, 3), Fraction(3), Fraction(10)):
        spec = OrbitSpec(kind, orbit, dict.fromkeys(names, v))
        traj, _ = solve_orbit(model.derivation.sys, spec, IntegratorConfig())
        limits, _ = exact_cone_fit(traj)
        assert limits.keys() == CONE_REFS[kind].keys()
        assert all(abs(limits[q] - ref) <= DEFAULT_BARS["cone"] for q, ref in CONE_REFS[kind].items()), (v, limits)


@pytest.mark.parametrize("kind,table", [("Q", ProfileQ), ("M", ProfileM)])
def test_cone_refs_follow_the_profile_table(kind, table):
    """For large |s|, G ~ g s with g = k / (1 + sum p_x), so t ~ 2 sqrt(s/g)
    and x^2/t^2 -> m_x g / 4, |x_coll|/t -> |g| / 2: the paper's limits
    follow from the table read from the derived system, the package's
    computed ones equal them, and so does the slope of the profile's G."""
    model = get_model(kind, (1,) * len(MODEL_SPECS[kind].index_names))
    affine, k = s_form(model.derivation.sys)
    g = k / (1 + sum(p for _, _, p in affine))
    refs = PAPER_CONE_REFS[kind]
    *squares, last = refs
    assert squares == [f"{x}^2/t^2" for x, _, _ in affine]
    assert [refs[q] for q in squares] == [float(m * g / 4) for _, m, _ in affine]
    vertical = MODEL_SPECS[kind].state_names[-1]
    assert last in (f"|{vertical}|/t", f"{vertical}/t")
    assert refs[last] == float(abs(g) / 2)
    assert CONE_REFS[kind] == refs and list(CONE_REFS[kind]) == list(refs)
    unit = {x: 1 for x in MODEL_SPECS[kind].state_names}
    prof = profile(model, OrbitSpec(kind, "principal", unit))
    assert type(prof) is table
    s = Fraction(10**40) if g > 0 else Fraction(-(10**40))
    assert abs(exact_value_squared(prof, s) / s - g) < Fraction(1, 10**30)


@pytest.mark.parametrize("kind,name", [("Q", "traj_q_s2xs2.csv"), ("M", "traj_m_cp2.csv")])
def test_cone_quantities_match_the_hand_written_formulas(kind, name):
    traj = Trajectory.from_csv(Path(__file__).parent / "golden" / name, kind)
    t, ys = np.asarray(traj.ts), np.asarray(traj.ys)
    derived = _cone_quantities(kind, t, ys)
    expected = cone_quantities(kind, t, ys)
    assert list(derived) == list(expected)
    assert all(derived[q].tobytes() == expected[q].tobytes() for q in expected)


# ---------------------------------------------------------------------------
# collapsing-circle data and smoothness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_s_action_circle_is_the_papers(kind):
    assert s_action_circle(kind) == CIRCLE[kind]


def test_s_action_circle_reads_either_case_and_rejects_an_unknown_kind():
    assert s_action_circle("m") == s_action_circle("M")
    assert s_action_circle("q") == s_action_circle("Q")
    for kind in ("X", "", "QM"):
        with pytest.raises(VerifyError, match="unknown model kind"):
            s_action_circle(kind)


def test_catalog_vertical_slopes_are_the_circle_action_slopes():
    """The paper's vertical slopes are the circle action's, and the catalog
    that the package completes with them is the paper's."""
    rows = [(kind, r) for kind, rows in ORBIT_CATALOG.items() for r in rows if r.orbit_key]
    assert len(rows) == 5
    for kind, row in rows:
        vertical = MODEL_SPECS[kind].state_names[-1]
        assert row.required[vertical] == s_action_circle(kind)["required_slope"], row.orbit_key
    for kind, paper in ORBIT_CATALOG.items():
        assert orbit_catalog(kind) == paper
        assert [list(r.required) for r in orbit_catalog(kind)] == [list(r.required) for r in paper]


def test_smoothness_rejects_non_singular_orbit():
    with pytest.raises(VerifyError, match="^'principal' is not a singular orbit of the Q model$"):
        smoothness_report(q_model(1, 1, 1), "principal")


# ---------------------------------------------------------------------------
# SU(4) certificate
# ---------------------------------------------------------------------------


def test_su4_certificate_rejects_a_pole_in_the_vertical_rhs():
    """(4) sets the vertical coefficient to 0, where c' = ... + 1/c has a pole."""
    model = m_model(1, 1)
    sys = model.derivation.sys
    c = LaurentPoly.variable(sys.table, "c")
    polar = replace(sys, rhs={**sys.rhs, "c": sys.rhs["c"] + c**-1})
    with pytest.raises(VerifyError, match="^cannot evaluate a pole at the collapsing locus$"):
        su4_family_check(model, polar)


@pytest.mark.parametrize("model", [q_model(1, 1, 1), m_model(1, 1)], ids=["Q", "M"])
def test_rotation_generator_commutes_with_d(model):
    """L and d commute on every coframe generator, and L kills the
    coefficients and dt, so d(L Omega) = L d(Omega): once d(Omega) vanishes
    under a system, so do d(V) and d(W), and the certificate checks only
    d(Omega)."""
    deriv = model.derivation
    struct = deriv.struct
    gens, dt = struct.Omega.gens, struct.Omega.dt_index
    one = LaurentPoly.const(struct.table, 1)
    for i in range(len(gens)):
        e = Multivector.basis(gens, [i], one, dt)
        assert rotation_generator(struct, invariant_d(e, model)) == invariant_d(
            rotation_generator(struct, e), model
        ), gens[i]
    V = rotation_generator(struct, struct.Omega)
    W = rotation_generator(struct, V)
    assert not V.is_zero
    assert exterior_d_time(V, model) == rotation_generator(struct, deriv.d_Omega)
    assert exterior_d_time(W, model) == rotation_generator(
        struct, rotation_generator(struct, deriv.d_Omega)
    )


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("model", [q_model(1, 1, 1), m_model(1, 1)], ids=["Q", "M"])
def test_su4_certificate_fails_with_a_wrong_family_weight(monkeypatch, model, shift):
    sys = model.derivation.sys
    assert su4_family_check(model, sys).family_parallel
    spec = MODEL_SPECS[model.kind]
    monkeypatch.setitem(MODEL_SPECS, model.kind, replace(spec, family_weight=spec.family_weight + shift))
    assert not su4_family_check(model, sys).family_parallel


def test_su4_certificate_lets_a_bug_in_the_kaehler_search_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed certificate")

    monkeypatch.setattr("holoflow.verify.kaehler_search", broken)
    model = q_model(1, 1, 1)
    with pytest.raises(TypeError):
        su4_family_check(model, derive_flow(model))


def test_su4_certificate_of_the_derived_system_is_the_derivations(monkeypatch):
    """``derive_flow`` has shown that d(Omega) vanishes under the derived
    system and the derivation holds its Kaehler certificate: neither is
    computed again for it, and both are for any other system."""

    def searched(*args, **kwargs):
        raise AssertionError("the derived system's certificate is computed again")

    for model in (q_model(1, 1, 1), m_model(1, 1)):
        sys = model.derivation.sys
        with monkeypatch.context() as patch:
            patch.setattr("holoflow.verify.kaehler_search", searched)
            patch.setattr("holoflow.verify.under_system", searched)
            assert su4_family_check(model, sys).passed
        for name in ("kaehler_search", "under_system"):
            with monkeypatch.context() as patch:
                patch.setattr(f"holoflow.verify.{name}", searched)
                with pytest.raises(AssertionError):
                    su4_family_check(model, perturbed_system(sys, "a"))


# ---------------------------------------------------------------------------
# orbit catalog
# ---------------------------------------------------------------------------


def test_orbit_catalog_q():
    rows = orbit_catalog("Q")
    admissible = [r for r in rows if r.orbit_key]
    assert [(r.orbit_key, r.collapsing) for r in admissible] == [
        ("s2xs2xs2", ("f",)),
        ("s2xs2", ("a", "f")),
    ]
    excluded = [r for r in rows if r.orbit_key is None]
    assert len(excluded) == 2
    assert all("no cohomogeneity-one space" in r.note for r in excluded)


def test_orbit_catalog_m():
    rows = orbit_catalog("M")
    admissible = [r for r in rows if r.orbit_key]
    assert [(r.orbit_key, r.collapsing) for r in admissible] == [
        ("cp2xs2", ("c",)),
        ("cp2", ("b", "c")),
        ("s2", ("a", "c")),
    ]
    s2 = catalog_row("M", "s2")
    assert "orbifold" in s2.note
    assert s2.collapsing_sphere == "S^5/Z_3"


def test_catalog_rejects_unknown_orbit():
    with pytest.raises(VerifyError, match="^'cp2' is not a singular orbit of the Q model$"):
        catalog_row("q", "cp2")
    with pytest.raises(VerifyError, match="unknown model kind 'X'"):
        orbit_catalog("X")


# ---------------------------------------------------------------------------
# bars
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stored", [False, True], ids=["integrated", "stored"])
def test_bars_of_none_take_the_default_bars(stored):
    """Every bar left None reads as its default: the closure bar of the
    closure check run, and the cone and closed-form bars of ``DEFAULT_BARS``."""
    model = m_model(1, 1)
    spec = OrbitSpec("M", "cp2", {"a": 1})
    if stored:
        traj = Trajectory.from_csv(Path(__file__).parent / "golden" / "traj_m_cp2.csv", "M")
    else:
        traj, _ = solve_orbit(model.derivation.sys, spec, IntegratorConfig())
    closure = DEFAULT_BARS["closure_trajectory" if stored else "closure"]
    defaults = {"closure": closure, "cone": DEFAULT_BARS["cone"], "closed_form": DEFAULT_BARS["closed_form"]}
    doc, code = verify_trajectory(model, spec, traj, defaults)
    assert doc["bars"] == defaults
    assert verify_trajectory(model, spec, traj, dict.fromkeys(defaults)) == (doc, code)

    cone = cone_fit(traj)
    want, got = {}, {}
    code = evaluate_bars(want, {"cone": DEFAULT_BARS["cone"]}, cone)
    assert evaluate_bars(got, {"cone": None}, cone) == code
    assert got == want
