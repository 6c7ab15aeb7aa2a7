"""Exact closed-form solution profiles and trajectory comparison.

Both holonomy systems linearize in the squared collapsing coefficient once
time is traded for the integrated primitive s (s = F for the Q model, s = C
for the M model).  The other squared coefficients are affine in s,
x^2 = x0^2 + m_x s, and variation of constants gives for both models

    G(s) = (x0^2 D(0) + k A(s)) / D(s),   D(s) = prod_x (s - r_x)^(p_x),

with r_x = -x0^2 / m_x the zero of x^2 and A the antiderivative of D
vanishing at 0.  The table of slopes m_x, powers p_x and k is each model's
record's (``homogeneous.MODEL_SPECS``); G is the square of the last state
symbol.  The coefficients of D and A are exact and the profile evaluates
them in float; :func:`s_form` reads the table from a system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from ._record import record
from .algebra import AlgebraError, LaurentPoly
from .errors import ProfileError
from .flow import DerivationError, ODESystem
from .homogeneous import CosetModel, ModelSpec, model_spec
from .integrate import OrbitSpec, Trajectory


class DomainError(ProfileError):
    """Evaluation at or beyond a pole of the closed form."""


def _poly_mul(p: List[Fraction], q: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_antiderivative(p: List[Fraction]) -> List[Fraction]:
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(p)]


def _rounded(p: Fraction) -> float:
    """float(p), or an infinity of p's sign where p is beyond float range."""
    try:
        return float(p)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


@record(frozen=True)
class _Profile:
    """The closed form of one orbit's data, built from its model's table."""

    initial: Dict[str, Fraction]
    denom: Tuple[Fraction, ...]  # coefficients of D(s), ascending
    anti: Tuple[Fraction, ...]  # antiderivative of D, A(0) = 0
    constant: Fraction  # x0^2 * D(0)
    poles: Tuple[Fraction, ...]
    model_kind: str

    @cached_property
    def _spec(self) -> ModelSpec:
        return model_spec(self.model_kind)

    def _check_domain(self, s: float) -> None:
        """A nonzero pole is hit at s = p and passed beyond it, away from 0."""
        for p in self.poles:
            if p == 0:
                continue  # removable when the orbit collapses there
            if s == p:
                raise DomainError(f"evaluation at the pole s = {p}")
            if s > p > 0 or s < p < 0:
                raise DomainError(f"s = {s} beyond the pole {p}")

    @cached_property
    def float_value_squared(self):
        """``value_squared`` at a float ``s``, as one function of ``s``.

        The coefficients are rounded to float once, as Fraction-float
        arithmetic rounds them, and D is a cubic in both models, so A is a
        quartic written out by Horner's rule.  A float strictly between the
        rounded poles nearest 0 is strictly inside the exact domain, so only
        the rest needs the exact check.
        """
        try:
            const, factor, a0, a1, a2, a3, a4, d0, d1, d2, d3 = map(
                float, (self.constant, self._spec.factor, *self.anti, *self.denom)
            )
        except OverflowError:
            const = None  # a coefficient beyond float range: only s = 0 has a value
        square0 = self.initial[self._spec.state_names[-1]] ** 2  # f0^2 or c0^2
        check = self._check_domain
        below = min((_rounded(p) for p in self.poles if p > 0), default=math.inf)
        above = max((_rounded(p) for p in self.poles if p < 0), default=-math.inf)

        def value_squared(s: float) -> float:
            if not above < s < below:
                check(s)  # at or beyond a rounded pole: decide exactly
            if s == 0:
                return float(square0)
            if const is None:
                raise ProfileError("a closed-form coefficient is beyond float range")
            num = const + factor * ((((a4 * s + a3) * s + a2) * s + a1) * s + a0)
            den = ((d3 * s + d2) * s + d1) * s + d0
            if den == 0:
                raise DomainError(f"denominator vanishes at s = {s}")
            return num / den

        return value_squared

    def value_squared(self, s: float) -> float:
        """The squared collapsing-profile value at the primitive s,
        ``float_value_squared(float(s))``."""
        return self.float_value_squared(float(s))

    @cached_property
    def _float_lines(self) -> Tuple[Tuple[str, float, float], ...]:
        return tuple((x, float(self.initial[x] ** 2), float(m)) for x, m, _ in self._spec.affine)

    def coefficient_squares(self, s: float) -> Dict[str, float]:
        """Every squared coefficient at s; the affine ones from the
        coefficients rounded once, as Fraction-float arithmetic rounds them."""
        out = {x: x0 + m * s for x, x0, m in self._float_lines}
        out[self._spec.state_names[-1]] = self.value_squared(s)
        return out


@record(frozen=True)
class ProfileQ(_Profile):
    # an entry of its own, so that per-class instrumentation can wrap it
    coefficient_squares = _Profile.coefficient_squares


@record(frozen=True)
class ProfileM(_Profile):
    # an entry of its own, so that per-class instrumentation can wrap it
    coefficient_squares = _Profile.coefficient_squares


#: the profile class of each model kind K is ProfileK
_PROFILE_CLASSES = {cls.__name__[-1]: cls for cls in (ProfileQ, ProfileM)}


def s_form(sys: ODESystem) -> Tuple[Tuple[Tuple[str, Fraction, int], ...], Fraction]:
    """``(((x, m_x, p_x), ...), k)``, the profile table read exactly from ``sys``: with
    x_coll its last symbol, m_x = 2 x x'/x_coll is constant, 2 x_coll' = k + sum(c_x
    x_coll^2/x^2) and p_x = -c_x/m_x is a positive integer, or DerivationError."""
    *affine, last = sys.state
    try:
        slopes = {
            x: (LaurentPoly.monomial(sys.table, 2, {x: 1, last: -1}) * sys.rhs[x]).constant_value()
            for x in affine
        }
    except AlgebraError:
        raise DerivationError(f"some 2 x x'/{last} is not constant") from None
    weights = {}
    for coeff, exps in (2 * sys.rhs[last]).named_terms():
        x = next((y for y in affine if exps == {y: -2, last: 2}), None)
        if x is None and exps:
            raise DerivationError(f"2 {last}' has a term {exps} besides k and c_x {last}^2/x^2")
        weights[x] = coeff  # x is None for the constant k
    powers = {x: -weights.get(x, 0) / m if m else Fraction(0) for x, m in slopes.items()}
    if any(p <= 0 or p.denominator != 1 for p in powers.values()):
        raise DerivationError(f"the powers of the zeros in D are not positive integers: {powers}")
    return tuple((x, m, int(powers[x])) for x, m in slopes.items()), weights.get(None, Fraction(0))


def profile(model: Union[CosetModel, str], init: OrbitSpec) -> Union[ProfileQ, ProfileM]:
    """Closed-form profile evaluator for one orbit's initial data."""
    spec = model_spec(model, ProfileError)
    if spec is not model_spec(init.model_kind):
        raise ProfileError("orbit spec does not match the model")
    vals = {k: Fraction(v) for k, v in init.values.items()}
    full = {x: vals.get(x, Fraction(0)) for x in spec.state_names}
    roots = []
    den = [Fraction(1)]
    for x, m, power in spec.affine:
        roots.append(-full[x] ** 2 / m)
        for _ in range(power):
            den = _poly_mul(den, [-roots[-1], Fraction(1)])
    square0 = full[spec.state_names[-1]] ** 2
    return _PROFILE_CLASSES[spec.kind](
        initial=full,
        denom=tuple(den),
        anti=tuple(_poly_antiderivative(den)),
        constant=square0 * den[0],
        poles=tuple(sorted(set(roots))),
        model_kind=spec.kind,
    )


def compare(
    traj: Trajectory, prof: Union[ProfileQ, ProfileM], where: Optional[Dict[str, str]] = None
) -> float:
    """Maximum relative deviation of a trajectory from the closed form.

    At every accepted sample the profile is evaluated at s = accumulated
    primitive and compared against the squared coefficients; no numerical
    inversion of the primitive is ever needed.  ``where["closed_form"]``,
    if given, names the t and the coefficient of the worst deviation.
    """
    if model_spec(traj.model_kind, ProfileError) is not prof._spec:
        raise ProfileError("trajectory and profile belong to different models")
    names = traj.state_names
    worst = 0.0
    at = None
    try:
        for t, row in zip(traj.ts, traj.ys):
            want = prof.coefficient_squares(row[-1])
            floor = max(max(abs(v) for v in want.values()), 1e-300) * 1e-6
            for j, n in enumerate(names):
                w = want[n]
                dev = abs(row[j] ** 2 - w) / max(abs(w), floor)
                if dev > worst:
                    worst, at = dev, (t, n)
                elif not dev <= worst:  # NaN: the closed form is not finite here
                    raise ProfileError(
                        f"closed-form comparison: the closed form is not finite at s = {row[-1]!r}"
                    )
    except OverflowError:
        raise ProfileError(
            "closed-form comparison: a squared coefficient is beyond float range"
        ) from None
    if worst == math.inf:
        raise ProfileError("closed-form comparison: a deviation is beyond float range")
    if where is not None and at is not None:
        where["closed_form"] = f"t={at[0]:.3g} ({at[1]})"
    return worst
