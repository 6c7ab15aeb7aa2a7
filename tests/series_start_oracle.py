"""The series start as one function, rebuilding every limit per call.

This is ``integrate.series_start`` before the per-system preparation: it
substitutes the spec's values into every right-hand side in the Laurent
ring and solves the slope equations anew on each call.  The tests hold the
prepared ``series_start`` to it, state, slopes and error messages alike.
"""

from fractions import Fraction
from typing import Dict, Optional, Tuple

from holoflow.algebra import AlgebraError, LaurentPoly, SymbolTable
from holoflow.flow import ODESystem
from holoflow.homogeneous import model_spec
from holoflow.integrate import (
    OrbitError,
    OrbitSpec,
    SeriesStartError,
    State,
    _solve_slope_system,
    start_offset,
)


def series_start_oracle(
    sys: ODESystem, spec: OrbitSpec, eps: Optional[float] = None
) -> Tuple[State, Dict[str, Fraction]]:
    if model_spec(sys.model_kind) is not model_spec(spec.model_kind):
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
