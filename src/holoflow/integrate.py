"""Initial value problems from singular-orbit data.

The ODE systems degenerate at t = 0 when coefficients collapse; the start
state is produced by an exact first-order series solve (the l'Hopital limit
of the right-hand sides under odd/even parity), after which an adaptive
embedded Runge-Kutta pair takes over.  The integrated primitive (F with
F' = f, or C with C' = c) rides along as an extra state component.  The
collapsing coefficients of each orbit come from the singular-orbit catalog
in each model's record, ``homogeneous.MODEL_SPECS``.  The exact part of a
start (each orbit's limits and slope solutions) and the term list of the
solve loop are built once per system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import _kernel
from ._record import field, record
from .algebra import AlgebraError, LaurentPoly, SymbolTable, term_list
from .errors import CSVError, IntegrationError, OrbitError, SeriesStartError
from .flow import ODESystem
from .homogeneous import MODEL_SPECS, model_spec

#: collapsing coefficient pattern per model and orbit, the principal one first
ORBIT_COLLAPSING: Dict[str, Dict[str, Tuple[str, ...]]] = {
    kind: {"principal": (), **{row.orbit_key: row.collapsing for row in spec.catalog if row.orbit_key}}
    for kind, spec in MODEL_SPECS.items()
}


@record(frozen=True)
class OrbitSpec:
    """Singular-orbit (or principal) initial data for one model."""

    model_kind: str
    orbit: str
    values: Mapping[str, Fraction]
    negative_branch: bool = False

    def __post_init__(self):
        spec = model_spec(self.model_kind, OrbitError)
        object.__setattr__(self, "model_kind", spec.kind)
        orbits = ORBIT_COLLAPSING[spec.kind]
        if self.orbit not in orbits:
            raise OrbitError(f"unknown orbit {self.orbit!r} for model {spec.kind}")
        expected = tuple(s for s in spec.state_names if s not in orbits[self.orbit])
        vals = {k: Fraction(v) for k, v in self.values.items()}
        if set(vals) != set(expected):
            raise OrbitError(f"orbit {self.orbit!r} needs nonzero values exactly for {expected}")
        if any(v == 0 for v in vals.values()):
            raise OrbitError("initial values must be nonzero")
        object.__setattr__(self, "values", MappingProxyType(vals))

    @property
    def collapsing(self) -> Tuple[str, ...]:
        return ORBIT_COLLAPSING[self.model_kind][self.orbit]


@record
class State:
    """One integrator state: arclength, coefficients, running primitive."""

    t: float
    values: Dict[str, float]
    primitive: float = 0.0


#: the most steps one integration takes before it stops as ``max_steps``
MAX_STEPS = 2_000_000


@record(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    t_end: float = 1e4
    initial_step: float = 0.0  # 0 means chosen by the stepper
    eps: Optional[float] = None  # series-start offset; default 1e-6 * min value

    def __post_init__(self):
        # each test fails on NaN; t only increases, so a negative t_end
        # needs a start before it (``integrate`` rejects any other)
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if not 0 <= self.initial_step < math.inf:
            raise ValueError("initial_step must be finite and >= 0")
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError("eps must be finite and > 0")


# ---------------------------------------------------------------------------
# exact series start
# ---------------------------------------------------------------------------


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """Nonzero rational roots, ascending, of the polynomial sum c_k x^k.

    Scaled to integers, a root p/q in lowest terms (q > 0) has p dividing
    the lowest nonzero coefficient and q the leading one; each such
    candidate is tested by the integer identity sum c_k p^k q^(deg - k) = 0.
    A linear polynomial's one root is read off directly.  ``coeffs`` is not
    modified.
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
    if len(ints) == 2:  # linear: no divisor search
        return [Fraction(-ints[0], ints[1])]
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


_POLE = "right-hand side has a pole at the singular orbit"
#: the most slope solutions kept per system and orbit; only a system whose
#: limits hold an initial value needs more than one
_SOLUTIONS_KEPT = 64


class _OrbitLimits:
    """The t -> 0 limits of one system's right-hand sides on one orbit.

    Under x = s_x t for each collapsing x, a right-hand side becomes a
    Laurent polynomial in the slopes, t and the surviving coefficients,
    which stay symbols here.  Its t^0 part is the limit and its negative
    powers of t the pole part.  Both are split off once per right-hand
    side; a start substitutes its initial values only into a part that
    holds a surviving coefficient.  The slope solutions are kept per set of
    exact equations.
    """

    def __init__(self, sys: ODESystem, collapsing: Tuple[str, ...]):
        self.sys = sys
        self.collapsing = collapsing
        self.surviving = tuple(s for s in sys.state if s not in collapsing)
        self.unknowns = ["s_" + x for x in collapsing]
        self.limit_table = SymbolTable(tuple(self.unknowns))
        self.table = SymbolTable(tuple(self.unknowns) + ("t",) + self.surviving)
        self.images = {x: LaurentPoly.monomial(self.table, 1, {"s_" + x: 1, "t": 1}) for x in collapsing}
        for y in self.surviving:
            self.images[y] = LaurentPoly.variable(self.table, y)
        self.parts: Dict[str, Union[str, Tuple[LaurentPoly, Optional[LaurentPoly]]]] = {}
        # the sorted solutions, or the message the solve raised
        self.solutions: Dict[Tuple[LaurentPoly, ...], Union[List[Dict[str, Fraction]], str]] = {}

    def _split(self, name: str) -> Union[str, Tuple[LaurentPoly, Optional[LaurentPoly]]]:
        """``(limit, pole)`` of one right-hand side, minus s_x for a
        collapsing x; the limit is on the slope table unless it holds a
        surviving coefficient, and the pole is None when there is none.
        A message instead when the right-hand side holds a symbol outside
        the state: every state symbol has a monomial image, so only such a
        symbol makes ``subs`` raise."""
        try:
            poly = self.sys.rhs[name].subs(self.images, self.table)
        except AlgebraError:
            return _outside_state(self.sys, [self.sys.rhs[name]])
        t = len(self.unknowns)
        limit = LaurentPoly(self.table, {v: c for v, c in poly.terms.items() if v[t] == 0})
        pole = LaurentPoly(self.table, {v: c for v, c in poly.terms.items() if v[t] < 0})
        if name in self.collapsing:
            limit = limit - LaurentPoly.variable(self.table, "s_" + name)
        if not set(self.surviving).intersection(limit.symbols()):
            limit = limit.subs({}, self.limit_table)
        return limit, None if pole.is_zero else pole

    def limit(self, name: str, values: Mapping[str, Fraction]) -> LaurentPoly:
        """The limit of ``name``'s right-hand side at these surviving
        values, minus s_x for a collapsing x; raises at a pole."""
        if name not in self.parts:
            self.parts[name] = self._split(name)
        parts = self.parts[name]
        if isinstance(parts, str):
            raise SeriesStartError(parts)
        limit, pole = parts
        if pole is not None and not pole.subs(self._at(values, self.table)).is_zero:
            raise SeriesStartError(_POLE)
        if limit.table is self.table:
            limit = limit.subs(self._at(values, self.limit_table), self.limit_table)
        return limit

    @staticmethod
    def _at(values: Mapping[str, Fraction], table: SymbolTable) -> Dict[str, LaurentPoly]:
        return {y: LaurentPoly.const(table, v) for y, v in values.items()}

    def solve(self, eqs: List[LaurentPoly]) -> List[Dict[str, Fraction]]:
        """The nonzero rational solutions of the slope equations, in the
        order the sign branch is picked from."""
        key = tuple(eqs)
        found = self.solutions.get(key)
        if found is None:
            try:
                found = sorted(
                    _solve_slope_system(eqs, self.unknowns), key=lambda s: sorted(s.items())
                )
            except SeriesStartError as exc:
                found = str(exc)
            if len(self.solutions) < _SOLUTIONS_KEPT:
                self.solutions[key] = found
        if isinstance(found, str):
            raise SeriesStartError(found)
        return found


class _Prepared:
    """What a series start and an integration read of one ODE system, built
    on first use: the term list and the limits per orbit.  It is the
    system's ``prepared`` property and dies with it."""

    def __init__(self, sys: ODESystem):
        self.sys = sys
        self.orbits: Dict[Tuple[str, ...], _OrbitLimits] = {}

    @cached_property
    def terms(self) -> Tuple[List[float], List[int], List[int], int]:
        return _compile_terms(self.sys)

    def orbit(self, collapsing: Tuple[str, ...]) -> _OrbitLimits:
        limits = self.orbits.get(collapsing)
        if limits is None:
            limits = self.orbits[collapsing] = _OrbitLimits(self.sys, collapsing)
        return limits


def series_start(
    sys: ODESystem, spec: OrbitSpec, eps: Optional[float] = None
) -> Tuple[State, Dict[str, Fraction]]:
    """Exact limiting derivatives at t = 0 and the state stepped to t = eps.

    Collapsing coefficients are odd (x ~ x'(0) t); surviving ones are even,
    so they receive no first-order correction.  The accumulated primitive
    starts as half the collapsing slope times eps squared.  The limits and
    slope solutions are built once per system and orbit.
    """
    if model_spec(sys.model_kind) is not model_spec(spec.model_kind):
        raise OrbitError("orbit spec does not match the ODE system")
    collapsing = spec.collapsing
    if not collapsing:
        raise OrbitError("series_start needs at least one collapsing coefficient")
    surviving = [s for s in sys.state if s not in collapsing]
    values = {y: spec.values[y] for y in surviving}
    limits = sys.prepared.orbit(collapsing)

    eqs = [limits.limit(x, values) for x in collapsing]
    for y in surviving:
        if not limits.limit(y, values).is_zero:
            raise SeriesStartError(f"surviving coefficient {y!r} has a nonzero first derivative")

    solutions = limits.solve(eqs)
    if not solutions:
        raise SeriesStartError("fixed-point system has no nonzero rational solution")
    if len(solutions) == 1:
        pick = solutions[0]
    else:
        designated = "s_" + collapsing[0]
        want_positive = not spec.negative_branch
        pick = next((s for s in solutions if (s[designated] > 0) == want_positive), None)
        if pick is None:
            raise SeriesStartError("no solution on the requested sign branch")
    slopes = {x: pick["s_" + x] for x in collapsing}

    eps = start_offset(spec, eps)
    state = {y: float(v) for y, v in values.items()}
    for x in collapsing:
        state[x] = float(slopes[x]) * eps
    primitive_source = sys.state[-1]
    if primitive_source in slopes:
        primitive = 0.5 * float(slopes[primitive_source]) * eps * eps
    else:
        primitive = float(spec.values[primitive_source]) * eps
    return State(t=eps, values=state, primitive=primitive), slopes


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def _columns(model_kind: str, state_names: Tuple[str, ...]) -> Tuple[str, ...]:
    """The CSV columns: t, the state, then the primitive."""
    return ("t",) + state_names + (model_spec(model_kind).primitive_name,)


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
    def columns(self) -> Tuple[str, ...]:
        return _columns(self.model_kind, self.state_names)

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

        Raises CSVError unless the file is UTF-8 text, the header matches the
        model, every row holds one finite number per column, t is non-negative
        (arclength from the singular orbit) and increases strictly, and there
        are at least 3 rows.
        """
        spec = model_spec(model_kind)
        expected = _columns(spec.kind, spec.state_names)
        rows = []
        try:
            with open(path, encoding="utf-8") as fh:
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
        except UnicodeDecodeError:
            raise CSVError("not UTF-8 text") from None
        if len(rows) < 3:
            raise CSVError(f"{len(rows)} rows, at least 3 are needed")
        return Trajectory(
            model_kind=spec.kind,
            state_names=spec.state_names,
            ts=[row[0] for row in rows],
            ys=[row[1:] for row in rows],
            status="loaded",
        )


def _outside_state(sys: ODESystem, polys: List[LaurentPoly]) -> str:
    """The message for right-hand sides of ``sys`` that hold a non-state symbol."""
    if any(set(sys.table.derivative).intersection(p.symbols()) for p in polys):
        return "right-hand side contains derivative symbols"
    return "right-hand side uses a non-state symbol"


def _compile_terms(sys: ODESystem) -> Tuple[List[float], List[int], List[int], int]:
    names = sys.state
    # the primitive' = last state symbol; the primitive never feeds back
    polys = [sys.rhs[n] for n in names] + [LaurentPoly.variable(sys.table, names[-1])]
    try:
        coeffs, exps, owner = term_list(polys, names + (model_spec(sys.model_kind).primitive_name,))
    except AlgebraError:
        raise IntegrationError(_outside_state(sys, polys)) from None
    return coeffs, exps, owner, len(names) + 1


def integrate(sys: ODESystem, start: State, cfg: IntegratorConfig) -> Trajectory:
    """Integrate forward to cfg.t_end with per-component error control.

    Stops early (status ``sign_change``) when a metric coefficient crosses
    zero; that is reported, not fatal.  Step-size underflow raises with the
    partial trajectory attached.  A t_end at or before the start raises
    before any loop is generated.
    """
    if not cfg.t_end > start.t:
        raise IntegrationError(f"t_end {cfg.t_end!r} is not after the start t = {start.t!r}")
    terms = sys.prepared.terms
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
        MAX_STEPS,
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
        start = State(t=0.0, values={k: float(v) for k, v in spec.values.items()})
        return integrate(sys, start, cfg), {}
    start, slopes = series_start(sys, spec, cfg.eps)
    return integrate(sys, start, cfg), slopes
