"""Quantitative verification: closure residuals, cone fits, smoothness,
the SU(4) evidence certificate and the singular-orbit catalog.

Closure checks recompute time derivatives by centered finite differences of
a coefficient sampler, never from the ODE right-hand sides, so they probe
the derived systems rather than restating them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import record, replace
from .algebra import AlgebraError, LaurentPoly
from .closed_form import ProfileM, ProfileQ, compare, profile, s_form
from .flow import (
    Derivation,
    DerivationError,
    ODESystem,
    derivation,
    derive_flow,  # noqa: F401  (kept importable; perfbench/test_recorder.py patches it here)
    kaehler_search,
    under_system,
)
from .homogeneous import MODEL_SPECS, CatalogRow, CosetModel, ModelSpec, model_spec
from .integrate import IntegratorConfig, OrbitSpec, Trajectory, series_start, start_offset
from .structures import rotation_generator


class VerifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# samplers: coefficient values as functions of arclength
# ---------------------------------------------------------------------------


class _SpanSampler:
    """Coefficient values on the arclength span [t_min, t_max]."""

    t_min: float
    t_max: float

    def sample_points(self, n: int, margin: float) -> List[float]:
        """``n`` evenly spaced points, bit for bit as ``numpy.linspace``."""
        lo = self.t_min + margin
        hi = self.t_max - margin
        if n < 2:
            return [lo] * n
        step = (hi - lo) / (n - 1)
        if step == 0:
            points = [i / (n - 1) * (hi - lo) + lo for i in range(n)]
        else:
            points = [i * step + lo for i in range(n)]
        points[-1] = hi
        return points


class TrajectorySampler(_SpanSampler):
    """Coefficient values at the sample times of an integrated run.

    No check reads a run between its samples; the class stays as the
    benchmark recorder's counted target."""

    def __init__(self, traj: Trajectory):
        self.traj = traj
        self.names = traj.state_names
        self.t_min = traj.ts[0]
        self.t_max = traj.ts[-1]

    def __call__(self, t: float) -> Dict[str, float]:
        ts = self.traj.ts
        i = bisect_left(ts, t)
        if i == len(ts) or ts[i] != t:
            raise VerifyError(f"t={t} is not a sample time of the run")
        return dict(zip(self.names, self.traj.ys[i]))


class ProfileSampler(_SpanSampler):
    """Closed-form coefficient values as a function of arclength.

    Inverts t(s) locally by Newton iteration anchored on an integrated
    trajectory; evaluation error is at machine-epsilon level, which makes
    the finite-difference closure residual purely a truncation effect.
    """

    _GAUSS_X = (
        -0.8611363115940526,
        -0.3399810435848563,
        0.3399810435848563,
        0.8611363115940526,
    )
    _GAUSS_W = (
        0.34785484513745385,
        0.6521451548625461,
        0.6521451548625461,
        0.34785484513745385,
    )

    def __init__(self, prof: Union[ProfileQ, ProfileM], anchors: Trajectory):
        if model_spec(anchors.model_kind, VerifyError) is not model_spec(prof.model_kind):
            raise VerifyError("profile and anchor trajectory disagree on the model")
        self.prof = prof
        self.anchors = anchors
        self.names = anchors.state_names
        self.collapsing_name = self.names[-1]  # f or c
        i0 = min(2, anchors.n_samples - 1)
        self.sign = {
            n: (1.0 if anchors.ys[i0][j] >= 0 else -1.0)
            for j, n in enumerate(self.names)
        }
        self.t_min = anchors.ts[0]
        self.t_max = anchors.ts[-1]
        self._value_squared = prof.float_value_squared
        self._speed_sign = self.sign[self.collapsing_name]

    def _speed(self, s: float) -> float:
        g = self._value_squared(s)
        if g <= 0:
            raise VerifyError("profile speed vanished during inversion")
        return self._speed_sign * math.sqrt(g)

    def _gauss_panel(self, s0: float, s1: float) -> float:
        mid = 0.5 * (s0 + s1)
        half = 0.5 * (s1 - s0)
        acc = 0.0
        for x, w in zip(self._GAUSS_X, self._GAUSS_W):
            acc += w / self._speed(mid + half * x)
        return acc * half

    def _dt_integral(self, s0: float, s1: float) -> float:
        # t(s1) - t(s0) = int ds / xtilde(s); composite Gauss with panel
        # widths small relative to |s| (the integrand varies on that scale)
        total = s1 - s0
        if total == 0.0:
            return 0.0
        n = 1 + int(abs(total) / (0.05 * (min(abs(s0), abs(s1)) + 1.0)))
        n = min(n, 256)
        acc = 0.0
        prev = s0
        for i in range(1, n + 1):
            nxt = s0 + total * i / n
            acc += self._gauss_panel(prev, nxt)
            prev = nxt
        return acc

    def s_of_t(self, t: float) -> float:
        ts = self.anchors.ts
        k = bisect_left(ts, t)
        k = min(max(k, 1), len(ts) - 1)
        if abs(ts[k - 1] - t) < abs(ts[k] - t):
            k -= 1
        t_k = ts[k]
        s_k = self.anchors.ys[k][-1]
        s = s_k
        for _ in range(4):
            resid = t_k + self._dt_integral(s_k, s) - t
            s -= resid * self._speed(s)
        return s

    def __call__(self, t: float) -> Dict[str, float]:
        s = self.s_of_t(t)
        squares = self.prof.coefficient_squares(s)
        return {n: self.sign[n] * math.sqrt(max(squares[n], 0.0)) for n in self.names}


# ---------------------------------------------------------------------------
# closure residuals
# ---------------------------------------------------------------------------


@record(frozen=True)
class ClosureReport:
    d_omega_residual: float
    d_eta_residual: float
    n_samples: int
    fd_step: float

    @property
    def max_residual(self) -> float:
        return max(self.d_omega_residual, self.d_eta_residual)


def _residuals(deriv: Derivation, assign: Dict[str, float]) -> Tuple[float, float]:
    """d(Omega) and d(eta) at one sample, each over the largest coefficient
    of its form; ``assign`` holds the coefficients and their slopes.

    One call of the compiled forms (``Derivation.closure_forms``) gives the
    bits of ``eval_numeric(...).max_abs_coefficient()``.  A sample where a
    zero meets a negative power, a value leaves float range, Omega or eta
    vanishes, or a residual is not finite is bad input, not a residual.
    """
    evaluate, ends = deriv.closure_forms
    values = [float(assign[n]) for n in deriv.struct.table.names]
    out = [0.0] * ends[-1]
    try:
        finite = evaluate(values, out)
    except OverflowError:
        finite = False
    if not finite:
        raise VerifyError(
            "closure check: the forms are not finite at a sample"
            " (a zero to a negative power, or beyond float range)"
        )
    omega, eta, d_omega, d_eta = (
        max(map(abs, out[lo:hi]), default=0.0) for lo, hi in zip((0,) + ends, ends)
    )
    if omega == 0.0 or eta == 0.0:
        raise VerifyError("closure check: Omega or eta vanishes at a sample")
    r_omega = d_omega / omega
    r_eta = d_eta / eta
    if not (math.isfinite(r_omega) and math.isfinite(r_eta)):
        raise VerifyError("closure check: a residual is beyond float range")
    return r_omega, r_eta


#: points of the profile-backed closure check
CLOSURE_POINTS = 40
#: most rows the raw-sample closure check reads
CLOSURE_MAX_ROWS = 200


def check_closure(
    sampler,
    deriv: Derivation,
    t_points: Optional[Sequence[float]] = None,
    fd_step: float = 1e-5,
) -> ClosureReport:
    """Finite-difference closure residuals of Omega and eta along a run.

    The residual of each form is the largest coefficient of its exterior
    derivative (with chain-rule slopes replaced by centered differences of
    the sampler), normalized by the largest coefficient of the form itself.
    """
    names = tuple(deriv.model.symbols.base)
    if t_points is None:
        margin = 2 * fd_step * (1 + abs(sampler.t_max))
        span = sampler.t_max - sampler.t_min
        if span <= 2 * margin:  # the sample points would leave the run
            raise VerifyError(
                f"closure check: the run spans {span:.3g} in t, at most twice its margin {margin:.3g}"
            )
        t_points = sampler.sample_points(CLOSURE_POINTS, margin=margin)
    if len(t_points) < 3:
        raise VerifyError("need at least 3 samples for centered differences")

    worst_omega = 0.0
    worst_eta = 0.0
    for t in t_points:
        h = fd_step * max(1.0, abs(t))
        lo = sampler(t - h)
        hi = sampler(t + h)
        mid = sampler(t)
        assign = dict(mid)
        for n in names:
            assign[n + "'"] = (hi[n] - lo[n]) / (2 * h)
        r_omega, r_eta = _residuals(deriv, assign)
        worst_omega = max(worst_omega, r_omega)
        worst_eta = max(worst_eta, r_eta)
    return ClosureReport(worst_omega, worst_eta, len(t_points), fd_step)


def fd_weights(x0: float, xs: Sequence[float]) -> List[float]:
    """First-derivative weights at ``x0`` on the distinct nodes ``xs``.

    Fornberg's recursion (B. Fornberg, "Generation of finite difference
    formulas on arbitrarily spaced grids", Math. Comp. 51 (1988) 699-706):
    ``sum(w * f(x))`` is exact for polynomials of degree below ``len(xs)``.
    Exact ``Fraction`` nodes give exact weights.
    """
    # c[j] holds the weights of node j for the value and the first derivative
    c = [[0, 0] for _ in xs]
    c[0][0] = 1
    c1 = 1
    c4 = xs[0] - x0
    for i in range(1, len(xs)):
        c2 = 1
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                c[i][1] = c1 * (c[i - 1][0] - c5 * c[i - 1][1]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            c[j][1] = (c4 * c[j][1] - c[j][0]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [w for _, w in c]


def check_closure_samples(traj: Trajectory, deriv: Derivation) -> ClosureReport:
    """Closure residuals from raw accepted steps (non-uniform differences).

    Used when only a stored trajectory is available.  Slopes come from
    five-point Fornberg weights on the accepted steps, centred where the
    rows allow and offset next to the ends; the sample spacing still limits
    the attainable residual, so the appropriate bar is looser than for the
    profile-backed check.
    """
    names = tuple(deriv.model.symbols.base)
    n = traj.n_samples
    if n < 3:
        raise VerifyError("need at least 3 samples for centered differences")
    width = min(5, n)
    stride = max(1, (n - 2) // CLOSURE_MAX_ROWS)
    ts, ys = traj.ts, traj.ys
    worst_omega = 0.0
    worst_eta = 0.0
    count = 0
    for i in range(1, n - 1, stride):
        first = min(max(i - width // 2, 0), n - width)
        try:
            weights = fd_weights(ts[i], ts[first : first + width])
        except ZeroDivisionError:  # node gaps whose product underflows to 0.0
            raise VerifyError(
                "closure check: the samples are too close together for finite differences"
            ) from None
        window = ys[first : first + width]
        assign = dict(zip(names, ys[i]))
        for j, name in enumerate(names):
            assign[name + "'"] = sum(w * row[j] for w, row in zip(weights, window))
        r_omega, r_eta = _residuals(deriv, assign)
        worst_omega = max(worst_omega, r_omega)
        worst_eta = max(worst_eta, r_eta)
        count += 1
    return ClosureReport(worst_omega, worst_eta, count, 0.0)


# ---------------------------------------------------------------------------
# cone asymptotics
# ---------------------------------------------------------------------------


def _cone_refs(spec: ModelSpec) -> Dict[str, float]:
    """The cone limits from the closed-form table: for large |s|, G ~ g s
    with g = k / (1 + sum p_x), so t ~ 2 sqrt(s / g), x^2/t^2 -> m_x g / 4
    and |x_coll|/t -> |g| / 2."""
    g = spec.factor / (1 + sum(p for _, _, p in spec.affine))
    refs = {f"{x}^2/t^2": float(m * g / 4) for x, m, _ in spec.affine}
    refs[spec.cone_label] = float(abs(g) / 2)
    return refs


CONE_REFS = {kind: _cone_refs(spec) for kind, spec in MODEL_SPECS.items()}
#: a run reaches the cone regime once t_end is this many initial scales
CONE_SPAN_RATIO = 1e3


@record(frozen=True)
class ConeFit:
    limits: Dict[str, float]  # fitted constants over the final decade
    endpoint: Dict[str, float]  # quantities at the final sample
    refs: Dict[str, float]
    deltas: Dict[str, float]  # |endpoint - ref|
    corrections: Dict[str, float]  # fitted 1/t coefficients
    fit_residual: float
    partial: bool = False

    @property
    def max_delta(self) -> float:
        return max(self.deltas.values())

    def to_json_dict(self, with_corrections: bool = True) -> dict:
        doc = {
            "limits": self.limits,
            "refs": self.refs,
            "deltas": self.deltas,
            "endpoint": self.endpoint,
            "partial": self.partial,
        }
        if with_corrections:
            doc["corrections"] = self.corrections
        return doc


def _cone_quantities(kind: str, t, ys) -> dict:
    """The cone quantities of numpy rows ``ys`` at arclengths ``t``, one per
    ``CONE_REFS`` column in order: x^2/t^2, and |x|/t for the last."""
    *squares, last = CONE_REFS[kind]
    out = {name: ys[:, j] ** 2 / t**2 for j, name in enumerate(squares)}
    out[last] = abs(ys[:, len(squares)]) / t
    return out


def cone_fit(traj: Trajectory) -> ConeFit:
    """Fit coefficient/t against a constant plus 1/t on the final decade.

    The only numpy user in the package, so it is imported here.
    """
    import numpy as np

    t_last = traj.ts[-1]
    initial_scale = max(abs(v) for v in traj.ys[0][:-1])
    # a stored trajectory ("loaded") is judged by its span alone
    partial = bool(
        traj.status not in ("done", "loaded")
        or t_last < CONE_SPAN_RATIO * max(initial_scale, 1e-300)
    )
    first = bisect_left(traj.ts, t_last / 10.0)
    tt = np.asarray(traj.ts[first:])
    refs = CONE_REFS[traj.model_kind]
    limits = {}
    corrections = {}
    endpoint = {}
    deltas = {}
    residual = 0.0
    # a stored run may square or divide past float range: numpy's warnings
    # are silenced and any value that is not finite is bad input
    with np.errstate(all="ignore"):
        quantities = _cone_quantities(traj.model_kind, tt, np.asarray(traj.ys[first:]))
        design = np.vstack([np.ones_like(tt), 1.0 / tt]).T
        if not (np.isfinite(design).all() and all(np.isfinite(q).all() for q in quantities.values())):
            raise VerifyError("cone fit: a cone quantity is beyond float range")
        for name, series in quantities.items():
            sol, res, *_ = np.linalg.lstsq(design, series, rcond=None)
            limits[name] = float(sol[0])
            corrections[name] = float(sol[1])
            if not (math.isfinite(limits[name]) and math.isfinite(corrections[name])):
                raise VerifyError(f"cone fit: the fitted limit or correction of {name} is not finite")
            endpoint[name] = float(series[-1])
            deltas[name] = abs(endpoint[name] - refs[name])
            if len(res):
                residual = max(residual, float(np.sqrt(res[0] / len(tt))))
    return ConeFit(limits, endpoint, refs, deltas, corrections, residual, partial)


# ---------------------------------------------------------------------------
# collapsing-sphere geometry and smoothness verdicts
# ---------------------------------------------------------------------------


def _lattice_gcd(*gens: Fraction) -> Fraction:
    """The generator of the group sum_i gens_i Z inside Q."""
    den = math.lcm(*(g.denominator for g in gens))
    return Fraction(math.gcd(*(g.numerator * (den // g.denominator) for g in gens)), den)


def s_action_circle(kind: str) -> Dict[str, object]:
    """Exact period data of the vertical circle action: its period and the
    step at which it meets the isotropy group, the generator of the
    record's circle lattice, both in multiples of pi."""
    spec = model_spec(kind, VerifyError)
    step = _lattice_gcd(*spec.circle_lattice)
    order = int(spec.circle_period / step)
    return {
        "period_over_pi": spec.circle_period,
        "intersection_order": order,
        "circle_step_over_pi": step,
        "required_slope": Fraction(2) * order / spec.circle_period,
    }


@record(frozen=True)
class SmoothnessReport:
    computed: Dict[str, Fraction]
    required: Dict[str, Fraction]
    verdict: str  # "smooth" | "non-smooth"
    note: str

    def to_json_dict(self) -> dict:
        return {
            "computed": {k: str(v) for k, v in self.computed.items()},
            "required": {k: str(v) for k, v in self.required.items()},
            "verdict": self.verdict,
            "note": self.note,
        }


def smoothness_report(model: CosetModel, orbit: str) -> SmoothnessReport:
    """Exact limiting derivatives against the catalog's requirements."""
    row = catalog_row(model, orbit)
    sys = derivation(model).sys
    values = {x: Fraction(1) for x in sys.state if x not in row.collapsing}
    _, slopes = series_start(sys, OrbitSpec(model.kind, orbit, values))
    required = row.required
    computed = {k: slopes[k] for k in required}
    smooth = all(abs(computed[k]) == required[k] for k in required)
    circle = s_action_circle(model.kind)
    note = (
        f"{row.geometry}; vertical circle: period {circle['period_over_pi']} pi,"
        f" isotropy intersection of order {circle['intersection_order']}"
    )
    return SmoothnessReport(computed, required, "smooth" if smooth else "non-smooth", note)


# ---------------------------------------------------------------------------
# SU(4) family certificate
# ---------------------------------------------------------------------------


@record(frozen=True)
class SU4Certificate:
    family_parallel: bool  # d Omega_phi = 0 for every phi, exactly
    family_moves: bool  # Omega_phi differs from Omega off the period
    kaehler_unique: bool
    no_parallel_vector: bool

    @property
    def passed(self) -> bool:
        return (
            self.family_parallel
            and self.family_moves
            and self.kaehler_unique
            and self.no_parallel_vector
        )


def su4_family_check(model: CosetModel, sys: ODESystem) -> SU4Certificate:
    """Certify the SU(4) evidence: a full circle of parallel structures,
    a unique closed invariant two-form, and no invariant parallel vector.

    ``sys`` may be any system for the model; the certificate judges it.  The
    derived system's Kaehler certificate is the derivation's own; any other
    system is searched."""
    deriv = derivation(model)
    struct = deriv.struct

    # (1) the whole rotation family stays parallel.  With the generator L,
    # V = L Omega, W = L V and L W = -k^2 V, the family is
    # Omega + (sin k phi / k) V + ((1 - cos k phi) / k^2) W for every phi,
    # so it is parallel exactly when Omega, V and W are closed.  L moves only
    # the coframe and commutes with d on every generator, so d(V) = L d(Omega)
    # and d(W) = L^2 d(Omega) vanish under the system whenever d(Omega) does
    V = rotation_generator(struct, struct.Omega)
    W = rotation_generator(struct, V)
    k = model_spec(model).family_weight
    closed = under_system(deriv.d_Omega, sys, struct.table).is_zero
    family_parallel = closed and rotation_generator(struct, W) == V.scaled(-k * k)

    # (2) the family genuinely moves
    family_moves = not V.is_zero

    # (3) unique Kaehler candidate up to global sign
    try:
        cert = deriv.cert if sys is deriv.sys else kaehler_search(model, sys, struct)
        kaehler_unique = cert.unique_up_to_sign
    except DerivationError:
        kaehler_unique = False

    # (4) no invariant parallel vector field: the vertical coefficient cannot
    # be constant (its derivative is forced nonzero at the collapsing locus),
    # and a pure d/dt field would freeze every coefficient
    last = sys.state[-1]
    try:
        collapsed = sys.rhs[last].subs({last: LaurentPoly.zero(sys.table)})
    except AlgebraError as exc:
        raise VerifyError("cannot evaluate a pole at the collapsing locus") from exc
    no_parallel_vector = (not collapsed.is_zero) and (not sys.rhs[sys.state[0]].is_zero)

    return SU4Certificate(family_parallel, family_moves, kaehler_unique, no_parallel_vector)


# ---------------------------------------------------------------------------
# singular-orbit catalog
# ---------------------------------------------------------------------------


def orbit_catalog(model: Union[CosetModel, str]) -> Tuple[CatalogRow, ...]:
    """The model's singular orbits, each collapsing vertical coefficient
    with the slope that the circle action requires of it."""
    spec = model_spec(model, VerifyError)
    vertical = spec.state_names[-1]
    slope = s_action_circle(spec.kind)["required_slope"]
    return tuple(
        replace(row, required={**row.required, vertical: slope}) if vertical in row.collapsing else row
        for row in spec.catalog
    )


def catalog_row(model: Union[CosetModel, str], orbit: str) -> CatalogRow:
    for row in orbit_catalog(model):
        if row.orbit_key == orbit:
            return row
    raise VerifyError(f"{orbit!r} is not a singular orbit of the {model_spec(model).kind} model")


# ---------------------------------------------------------------------------
# the verification report
# ---------------------------------------------------------------------------


#: default pass/fail bars; the raw-sample closure check is limited by the
#: accepted step spacing, hence its much looser bar
DEFAULT_BARS = {
    "closure": 1e-9,
    "closure_trajectory": 1e-3,
    "cone": 1e-3,
    "closed_form": 1e-8,
}


def evaluate_bars(doc: dict, bars: dict, cone, closure=None, deviation=None, su4=None) -> int:
    """Record the bars and the checks that miss them in ``doc``; the exit
    code is 1 when any check misses its bar.  A partial cone fit is never
    held to the cone bar."""
    failures = []
    if closure is not None and closure.max_residual > bars["closure"]:
        failures.append("closure")
    if cone.max_delta > bars["cone"] and not cone.partial:
        failures.append("cone")
    if deviation is not None and deviation > bars["closed_form"]:
        failures.append("closed_form")
    if su4 is not None and not su4.passed:
        failures.append("su4")
    doc["bars"] = bars
    doc["bars_failed"] = failures
    doc["passed"] = not failures
    return 1 if failures else 0


def verify_trajectory(
    model: CosetModel, spec: OrbitSpec, traj: Trajectory, bars: Dict[str, Optional[float]]
) -> Tuple[dict, int]:
    """Every check of one run of a singular orbit, as a report document and
    an exit code (1 when a check misses its bar).

    A stored trajectory (status ``loaded``) gets the raw-sample closure
    check; an integrated one gets the profile-backed check.  ``bars`` holds
    the closure, cone and closed-form bars; a closure bar of None takes the
    default of the closure check used.
    """
    loaded = traj.status == "loaded"
    deriv = derivation(model)
    prof = profile(model, spec)
    stated = model_spec(model)
    if s_form(deriv.sys) != (stated.affine, stated.factor):
        raise DerivationError("the derived system's s-form differs from the closed form's table")
    if loaded:
        closure = check_closure_samples(traj, deriv)
    else:
        closure = check_closure(ProfileSampler(prof, traj), deriv)
    cone = cone_fit(traj)
    smooth = smoothness_report(model, spec.orbit)
    su4 = su4_family_check(model, deriv.sys)
    deviation = compare(traj, prof)
    residual = {
        "d_omega": closure.d_omega_residual,
        "d_eta": closure.d_eta_residual,
        "n_samples": closure.n_samples,
    }
    kaehler = {"signs": list(deriv.cert.signs)}
    if loaded:
        residual["mode"] = "raw-samples"
    else:
        residual["fd_step"] = closure.fd_step
        kaehler["residual"] = 0.0
    doc = {
        "model": model.label,
        "orbit": spec.orbit,
        "closure_residual": residual,
        "cone": cone.to_json_dict(with_corrections=not loaded),
        "kaehler": kaehler,
        "smoothness": smooth.to_json_dict(),
        "su4_certificate": su4.passed,
        "closed_form_deviation": deviation,
    }
    if bars["closure"] is None:
        bars = {**bars, "closure": DEFAULT_BARS["closure_trajectory" if loaded else "closure"]}
    code = evaluate_bars(doc, bars, cone, closure, deviation, su4)
    return doc, code


def run_report(
    model: CosetModel,
    spec: OrbitSpec,
    cfg: IntegratorConfig,
    bars: Dict[str, Optional[float]],
) -> Tuple[dict, int, Trajectory]:
    """Full pipeline for one singular orbit: derive, solve, verify.

    Returns the report document with its provenance, the exit code of
    :func:`verify_trajectory` and the trajectory.  Raises IntegrationError
    when the run does not reach its end.
    """
    from .integrate import solve_orbit  # looked up per call, as the module holds it now

    traj, _ = solve_orbit(derivation(model).sys, spec, cfg)
    traj.require_done()
    doc, code = verify_trajectory(model, spec, traj, bars)
    doc["provenance"] = {
        "rtol": cfg.rtol,
        "atol": cfg.atol,
        "t_end": cfg.t_end,
        "eps": start_offset(spec, cfg.eps),
        "fd_step": doc["closure_residual"]["fd_step"],
    }
    return doc, code, traj
