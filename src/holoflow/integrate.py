"""Initial value problems from singular-orbit data.

The ODE systems degenerate at t = 0 when coefficients collapse; the start
state is produced by an exact first-order series solve (the l'Hopital limit
of the right-hand sides under odd/even parity), after which an adaptive
embedded Runge-Kutta pair takes over.  The integrated primitive (F with
F' = f, or C with C' = c) rides along as an extra state component.  The
singular-orbit catalog, which fixes the collapsing coefficients of each
orbit, lives here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from . import _kernel
from ._record import field, record
from .algebra import AlgebraError, LaurentPoly, SymbolTable, term_list
from .flow import ODESystem
from .homogeneous import STATE_NAMES


@record(frozen=True)
class CatalogRow:
    """One singular orbit, by isotropy group.  An admissible row names its
    orbit, the coefficients that collapse there, the slopes that smoothness
    requires of them and the geometry behind those slopes; the other rows
    give no cohomogeneity-one space."""

    isotropy: str
    collapsing_sphere: str
    singular_orbit: str
    orbit_key: Optional[str] = None  # None for excluded rows
    collapsing: Tuple[str, ...] = ()
    required: Mapping[str, Fraction] = field(default_factory=dict)
    geometry: str = ""
    note: str = ""


_NO_SPACE = "no cohomogeneity-one space"

#: the singular orbits of each model, with the isotropy group of each
ORBIT_CATALOG: Dict[str, Tuple[CatalogRow, ...]] = {
    "Q": (
        CatalogRow(
            "U(1)^3", "S^1", "S^2 x S^2 x S^2", "s2xs2xs2", ("f",), {"f": Fraction(3, 2)},
            "collapsing circle of length (4 pi / 3) |f|",
        ),
        CatalogRow(
            "U(1)^2 x SU(2)", "S^3", "S^2 x S^2", "s2xs2", ("a", "f"),
            {"a": Fraction(1, 2), "f": Fraction(3, 2)},
            "collapsing 3-sphere; great circles along e1 and e7",
        ),
        CatalogRow("U(1) x SU(2)^2", "not a sphere quotient", "S^2", note=_NO_SPACE),
        CatalogRow("SU(2)^3", "not a sphere quotient", "point", note=_NO_SPACE),
    ),
    "M": (
        CatalogRow(
            "U(2) x U(1)", "S^1", "CP^2 x S^2", "cp2xs2", ("c",), {"c": Fraction(4)},
            "collapsing circle of length (pi / 2) |c| in display units",
        ),
        CatalogRow(
            "U(2) x SU(2)", "S^3", "CP^2", "cp2", ("b", "c"), {"b": Fraction(1), "c": Fraction(4)},
            "collapsing 3-sphere; sectional curvature 1/t^2 condition",
        ),
        CatalogRow(
            "SU(3) x U(1)", "S^5/Z_3", "S^2", "s2", ("a", "c"),
            {"a": Fraction(1), "c": Fraction(4)},
            "collapsing S^5/Z_3; orbifold smoothness condition",
            note="orbifold, not a manifold",
        ),
        CatalogRow("SU(3) x SU(2)", "not a sphere quotient", "point", note=_NO_SPACE),
    ),
}

#: collapsing coefficient pattern per model and orbit, the principal one first
ORBIT_COLLAPSING: Dict[str, Dict[str, Tuple[str, ...]]] = {
    kind: {"principal": (), **{row.orbit_key: row.collapsing for row in rows if row.orbit_key}}
    for kind, rows in ORBIT_CATALOG.items()
}

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


@record(frozen=True)
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


@record
class State:
    """One integrator state: arclength, coefficients, running primitive."""

    t: float
    values: Dict[str, float]
    primitive: float = 0.0


@record(frozen=True)
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


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """Nonzero rational roots, ascending, of the polynomial sum c_k x^k.

    Scaled to integers, a root p/q in lowest terms (q > 0) has p dividing
    the lowest nonzero coefficient and q the leading one; each such
    candidate is tested by the integer identity sum c_k p^k q^(deg - k) = 0.
    ``coeffs`` is not modified.
    """
    hi = len(coeffs)
    while hi and coeffs[hi - 1] == 0:
        hi -= 1
    lo = 0
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    if hi - lo <= 1:
        return []
    den_lcm = 1
    for c in coeffs[lo:hi]:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [c.numerator * (den_lcm // c.denominator) for c in coeffs[lo:hi]]
    lead, rest = ints[-1], ints[-2::-1]  # rest: the lower coefficients, highest first
    roots = []
    for p in _divisors(ints[0]):
        for q in _divisors(lead):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                acc, q_power = lead, q
                for c in rest:
                    acc = acc * num + c * q_power
                    q_power *= q
                if acc == 0:
                    roots.append(Fraction(num, q))
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    n = abs(n)
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
        return [] if eqs else [{}]
    if not eqs:
        raise SeriesStartError("slope system is underdetermined")
    # univariate equation first
    for e in eqs:
        present = e.symbols()
        if len(present) == 1:
            (name,) = present
            sols = []
            for root in _rational_roots(e.coefficients_in(name)):
                rest = [q.subs({name: LaurentPoly.const(e.table, root)}) for q in eqs]
                for tail in _solve_slope_system(rest, [u for u in unknowns if u != name]):
                    tail = dict(tail)
                    tail[name] = root
                    sols.append(tail)
            return sols
    # otherwise eliminate a slope appearing linearly with constant coefficient
    for e in eqs:
        for name in e.symbols():
            try:
                linear, rest_poly = e.linear_in([name])
                coeff = linear[name].constant_value()
            except AlgebraError:
                continue
            image = rest_poly * (-1 / coeff)
            rest = [q.subs({name: image}) for q in eqs if q is not e]
            sols = []
            for tail in _solve_slope_system(rest, [u for u in unknowns if u != name]):
                values = {u: LaurentPoly.const(e.table, v) for u, v in tail.items()}
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


@record
class Trajectory:
    """The samples of a run: its start and every accepted step."""

    model_kind: str
    state_names: Tuple[str, ...]
    ts: List[float]
    ys: List[List[float]]  # one row of nstate + 1 per sample; the primitive last
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
            status="loaded",
        )


def _compile_terms(sys: ODESystem) -> Tuple[List[float], List[int], List[int], int]:
    names = sys.state
    # the primitive' = last state symbol; the primitive never feeds back
    polys = [sys.rhs[n] for n in names] + [LaurentPoly.variable(sys.table, names[-1])]
    try:
        coeffs, exps, owner = term_list(polys, names + (PRIMITIVE_NAME[sys.model_kind],))
    except AlgebraError:
        if any(set(sys.table.derivative).intersection(p.symbols()) for p in polys):
            raise IntegrationError("right-hand side contains derivative symbols") from None
        raise IntegrationError("right-hand side uses a non-state symbol") from None
    return coeffs, exps, owner, len(names) + 1


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
    status, ts, ys, naccept, nreject, nfev, max_err = _kernel.solve(
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
