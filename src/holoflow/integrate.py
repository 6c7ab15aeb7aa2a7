"""Initial value problems from singular-orbit data.

The ODE systems degenerate at t = 0 when coefficients collapse; the start
state is produced by an exact first-order series solve (the l'Hopital limit
of the right-hand sides under odd/even parity), after which an adaptive
embedded Runge-Kutta pair with dense output takes over.  The integrated
primitive (F with F' = f, or C with C' = c) rides along as an extra state
component.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import _kernel
from .algebra import AlgebraError, LaurentPoly, SymbolTable
from .flow import ODESystem

#: collapsing coefficient pattern per model and singular orbit
ORBIT_COLLAPSING: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "Q": {"principal": (), "s2xs2xs2": ("f",), "s2xs2": ("a", "f")},
    "M": {"principal": (), "cp2xs2": ("c",), "cp2": ("b", "c"), "s2": ("a", "c")},
}

#: metric coefficients per model, in state order
STATE_NAMES = {"Q": ("a", "b", "c", "f"), "M": ("a", "b", "c")}

#: the primitive integrates the last state symbol
PRIMITIVE_NAME = {"Q": "F", "M": "C"}


class OrbitError(ValueError):
    """Invalid orbit specification."""


class SeriesStartError(RuntimeError):
    """The degenerate-limit fixed-point system has no usable solution."""


class CSVError(ValueError):
    """A trajectory CSV file is malformed."""


class IntegrationError(RuntimeError):
    def __init__(self, message: str, trajectory: Optional["Trajectory"] = None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class OrbitSpec:
    """Singular-orbit (or principal) initial data for one model."""

    model_kind: str
    orbit: str
    values: Mapping[str, Fraction]
    negative_branch: bool = False

    def __post_init__(self):
        kind = self.model_kind.upper()
        object.__setattr__(self, "model_kind", kind)
        if kind not in ORBIT_COLLAPSING:
            raise OrbitError(f"unknown model kind {kind!r}")
        orbits = ORBIT_COLLAPSING[kind]
        if self.orbit not in orbits:
            raise OrbitError(f"unknown orbit {self.orbit!r} for model {kind}")
        expected = tuple(s for s in STATE_NAMES[kind] if s not in orbits[self.orbit])
        vals = {k: Fraction(v) for k, v in self.values.items()}
        if set(vals) != set(expected):
            raise OrbitError(
                f"orbit {self.orbit!r} needs nonzero values exactly for {expected}"
            )
        if any(v == 0 for v in vals.values()):
            raise OrbitError("initial values must be nonzero")
        object.__setattr__(self, "values", vals)

    @property
    def collapsing(self) -> Tuple[str, ...]:
        return ORBIT_COLLAPSING[self.model_kind][self.orbit]


@dataclass
class State:
    """One integrator state: arclength, coefficients, running primitive."""

    t: float
    values: Dict[str, float]
    primitive: float = 0.0


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    t_end: float = 1e4
    initial_step: float = 0.0  # 0 means chosen by the stepper
    eps: Optional[float] = None  # series-start offset; default 1e-6 * min value
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


# ---------------------------------------------------------------------------
# exact series start
# ---------------------------------------------------------------------------


def _univariate_coeffs(poly: LaurentPoly, name: str) -> List[Fraction]:
    idx = poly.table.index(name)
    deg = 0
    for vec, _ in poly.terms.items():
        for i, e in enumerate(vec):
            if i != idx and e != 0:
                raise SeriesStartError("expected a univariate slope equation")
        deg = max(deg, vec[idx])
    coeffs = [Fraction(0)] * (deg + 1)
    for vec, c in poly.terms.items():
        coeffs[vec[idx]] += c
    return coeffs


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """Nonzero rational roots of a rational-coefficient polynomial."""
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
    for p in _divisors(a0):
        for q in _divisors(alead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand**k for k, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> List[int]:
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


def _solve_slope_system(
    eqs: List[LaurentPoly], unknowns: List[str]
) -> List[Dict[str, Fraction]]:
    """All assignments with every slope a nonzero rational."""
    eqs = [e.cleared()[0] for e in eqs if not e.is_zero]
    if not unknowns:
        if any(not e.is_zero for e in eqs):
            return []
        return [{}]
    table = None
    for e in eqs:
        table = e.table
        break
    if table is None:
        raise SeriesStartError("slope system is underdetermined")

    def unknowns_in(e):
        present = set()
        for vec in e.terms:
            for name in unknowns:
                if vec[e.table.index(name)] != 0:
                    present.add(name)
        return present

    # univariate equation first
    for e in eqs:
        present = unknowns_in(e)
        if len(present) == 1:
            (name,) = present
            sols = []
            for root in _rational_roots(_univariate_coeffs(e, name)):
                rest = [q.subs({name: LaurentPoly.const(table, root)}) for q in eqs]
                for tail in _solve_slope_system(rest, [u for u in unknowns if u != name]):
                    tail = dict(tail)
                    tail[name] = root
                    sols.append(tail)
            return sols
    # otherwise eliminate a slope appearing linearly with constant coefficient
    for e in eqs:
        for name in unknowns_in(e):
            idx = table.index(name)
            coeff = Fraction(0)
            rest_terms = {}
            linear = True
            for vec, c in e.terms.items():
                if vec[idx] == 0:
                    rest_terms[vec] = c
                elif vec[idx] == 1 and not any(
                    vec[table.index(u)] for u in unknowns if u != name
                ):
                    coeff += c
                else:
                    linear = False
            if linear and coeff != 0:
                image = LaurentPoly(table, rest_terms) * Fraction(-1, 1) * (1 / coeff)
                rest = [q.subs({name: image}) for q in eqs if q is not e]
                sols = []
                for tail in _solve_slope_system(
                    rest, [u for u in unknowns if u != name]
                ):
                    values = {u: LaurentPoly.const(table, v) for u, v in tail.items()}
                    root = image.subs(values).constant_value()
                    if root == 0:
                        continue
                    out = dict(tail)
                    out[name] = root
                    sols.append(out)
                return sols
    raise SeriesStartError("slope system is not reducible")


def start_offset(spec: OrbitSpec, eps: Optional[float] = None) -> float:
    """The series-start offset: ``eps`` if given, else 1e-6 times the
    smallest initial value in absolute terms."""
    if eps is None:
        eps = 1e-6 * float(min(abs(v) for v in spec.values.values()))
    return eps


def series_start(
    sys: ODESystem, spec: OrbitSpec, eps: Optional[float] = None
) -> Tuple[State, Dict[str, Fraction]]:
    """Exact limiting derivatives at t = 0 and the state stepped to t = eps.

    Collapsing coefficients are odd (x ~ x'(0) t); surviving ones are even,
    so they receive no first-order correction.  The accumulated primitive
    starts as half the collapsing slope times eps squared.
    """
    if sys.model_kind != spec.model_kind:
        raise OrbitError("orbit spec does not match the ODE system")
    collapsing = list(spec.collapsing)
    if not collapsing:
        raise OrbitError("series_start needs at least one collapsing coefficient")
    surviving = [s for s in sys.state if s not in collapsing]

    # x = s_x t for each collapsing x, then t -> 0
    slope_table = SymbolTable(tuple("s_" + x for x in collapsing) + ("t",))
    limit_table = SymbolTable(slope_table.base[:-1])
    images = {x: LaurentPoly.monomial(slope_table, 1, {"s_" + x: 1, "t": 1}) for x in collapsing}
    for y in surviving:
        images[y] = LaurentPoly.const(slope_table, spec.values[y])
    at_t0 = {"t": LaurentPoly.zero(limit_table)}

    def limit(name: str) -> LaurentPoly:
        try:
            return sys.rhs[name].subs(images, slope_table).subs(at_t0, limit_table)
        except AlgebraError as exc:
            raise SeriesStartError("right-hand side has a pole at the singular orbit") from exc

    eqs = [limit(x) - LaurentPoly.variable(limit_table, "s_" + x) for x in collapsing]
    for y in surviving:
        if not limit(y).is_zero:
            raise SeriesStartError(
                f"surviving coefficient {y!r} has a nonzero first derivative"
            )

    unknowns = ["s_" + x for x in collapsing]
    solutions = _solve_slope_system(eqs, unknowns)
    if not solutions:
        raise SeriesStartError("fixed-point system has no nonzero rational solution")
    if len(solutions) == 1:
        pick = solutions[0]
    else:
        want = -1 if spec.negative_branch else 1
        designated = "s_" + collapsing[0]
        pick = None
        for sol in sorted(solutions, key=lambda s: sorted(s.items())):
            if (sol[designated] > 0) == (want > 0):
                pick = sol
                break
        if pick is None:
            raise SeriesStartError("no solution on the requested sign branch")
    slopes = {x: pick["s_" + x] for x in collapsing}

    eps = start_offset(spec, eps)
    values = {y: float(spec.values[y]) for y in surviving}
    for x in collapsing:
        values[x] = float(slopes[x]) * eps
    primitive_source = sys.state[-1]
    if primitive_source in slopes:
        primitive = 0.5 * float(slopes[primitive_source]) * eps * eps
    else:
        primitive = float(spec.values[primitive_source]) * eps
    return State(t=eps, values=values, primitive=primitive), slopes


def principal_start(sys: ODESystem, spec: OrbitSpec) -> State:
    if spec.orbit != "principal":
        raise OrbitError("principal_start needs a principal-orbit spec")
    return State(t=0.0, values={k: float(v) for k, v in spec.values.items()})


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Accepted integrator steps plus a dense continuous extension."""

    model_kind: str
    state_names: Tuple[str, ...]
    ts: List[float]
    ys: List[List[float]]  # one row of nstate + 1 per sample; the primitive last
    dense: Optional[List[float]]  # flat continuous-extension coefficients
    status: str = "done"
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def primitive_name(self) -> str:
        return PRIMITIVE_NAME[self.model_kind]

    @property
    def columns(self) -> Tuple[str, ...]:
        return ("t",) + self.state_names + (self.primitive_name,)

    @property
    def n_samples(self) -> int:
        return len(self.ts)

    def interpolate(self, t: float) -> List[float]:
        """Dense-output evaluation anywhere inside the integration span."""
        if self.dense is None:
            raise IntegrationError("trajectory carries no dense output")
        if not (self.ts[0] <= t <= self.ts[-1]):
            raise IntegrationError(f"t={t} outside the integration span")
        k = bisect_right(self.ts, t) - 1
        k = min(max(k, 0), len(self.ts) - 2)
        h = self.ts[k + 1] - self.ts[k]
        theta = (t - self.ts[k]) / h
        dim = len(self.ys[0])
        out = [0.0] * dim
        _kernel.dense_eval(self.dense, dim, k, theta, out)
        return out

    def require_done(self) -> None:
        """Raise IntegrationError unless the run reached its end."""
        if self.status != "done":
            raise IntegrationError(f"integration stopped: {self.status}", self)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for i in range(self.n_samples):
                row = [self.ts[i]] + self.ys[i]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @staticmethod
    def from_csv(path, model_kind: str) -> "Trajectory":
        """Read a file written by :meth:`to_csv`.

        Raises CSVError unless the header matches the model, every row holds
        one finite number per column, t is non-negative (arclength from the
        singular orbit) and increases strictly, and there are at least 3 rows.
        """
        expected = ("t",) + STATE_NAMES[model_kind] + (PRIMITIVE_NAME[model_kind],)
        rows = []
        with open(path) as fh:
            header = tuple(fh.readline().strip().split(","))
            if header != expected:
                raise CSVError(
                    f"header {','.join(header)!r} does not match {','.join(expected)!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                if len(cells) != len(expected):
                    raise CSVError(
                        f"line {lineno}: {len(cells)} values, expected {len(expected)}"
                    )
                try:
                    row = [float(cell) for cell in cells]
                except ValueError:
                    raise CSVError(f"line {lineno}: not a number") from None
                if not all(math.isfinite(v) for v in row):
                    raise CSVError(f"line {lineno}: non-finite value")
                if row[0] < 0:
                    raise CSVError(f"line {lineno}: t is negative")
                if rows and not row[0] > rows[-1][0]:
                    raise CSVError(f"line {lineno}: t does not increase")
                rows.append(row)
        if len(rows) < 3:
            raise CSVError(f"{len(rows)} rows, at least 3 are needed")
        return Trajectory(
            model_kind=model_kind,
            state_names=STATE_NAMES[model_kind],
            ts=[row[0] for row in rows],
            ys=[row[1:] for row in rows],
            dense=None,
            status="loaded",
        )


def _compile_terms(sys: ODESystem) -> Tuple[List[float], List[int], List[int], int]:
    names = sys.state
    nstate = len(names) + 1  # plus primitive
    coeffs: List[float] = []
    exps: List[int] = []
    owner: List[int] = []
    col = {n: sys.table.index(n) for n in names}
    for i, n in enumerate(names):
        poly = sys.rhs[n]
        for vec, c in poly.sorted_terms():
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


def integrate(sys: ODESystem, start: State, cfg: IntegratorConfig) -> Trajectory:
    """Integrate forward to cfg.t_end with per-component error control.

    Stops early (status ``sign_change``) when a metric coefficient crosses
    zero; that is reported, not fatal.  Step-size underflow raises with the
    partial trajectory attached.
    """
    terms = _compile_terms(sys)
    names = sys.state
    y0 = [start.values[n] for n in names] + [start.primitive]
    watch = [True] * len(names) + [False]
    status, ts, ys, dense, naccept, nreject, nfev, max_err = _kernel.solve(
        terms,
        y0,
        start.t,
        cfg.t_end,
        cfg.rtol,
        cfg.atol,
        cfg.initial_step,
        watch,
        cfg.max_steps,
    )
    traj = Trajectory(
        model_kind=sys.model_kind,
        state_names=names,
        ts=ts,
        ys=ys,
        dense=dense or None,
        status=status,
        stats={
            "naccept": naccept,
            "nreject": nreject,
            "nfev": nfev,
            "max_error_estimate": max_err,
            "rtol": cfg.rtol,
            "atol": cfg.atol,
        },
    )
    # a nonfinite right-hand side (blow-up) is reported, not fatal; a step
    # underflow without blow-up is an integration failure
    if status in ("underflow", "max_steps"):
        raise IntegrationError(f"integration stopped: {status}", traj)
    return traj


def solve_orbit(
    sys: ODESystem, spec: OrbitSpec, cfg: IntegratorConfig
) -> Tuple[Trajectory, Dict[str, Fraction]]:
    """Series start (if singular) followed by the adaptive integration."""
    if spec.orbit == "principal":
        return integrate(sys, principal_start(sys, spec), cfg), {}
    start, slopes = series_start(sys, spec, cfg.eps)
    return integrate(sys, start, cfg), slopes
