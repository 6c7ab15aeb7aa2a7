"""Exact closed-form solution profiles and trajectory comparison.

Both holonomy systems linearize in the squared collapsing coefficient once
time is traded for the integrated primitive s (s = F for the Q model, s = C
for the M model).  Variation of constants then gives

    Q:  f(s)^2 = (f0^2 D(0) - 6 A(s)) / D(s),   D(s) = (s-3a0^2)(s-3b0^2)(s-3c0^2)
    M:  c(s)^2 = (c0^2 D(0) + 16 B(s)) / D(s),  D(s) = (s+2b0^2)(s+4a0^2/3)^2

with A, B the antiderivatives of D vanishing at 0.  The remaining squared
coefficients are affine in s.  Everything here is exact at rational s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple, Union

from .homogeneous import CosetModel
from .integrate import STATE_NAMES, OrbitSpec, Trajectory

Number = Union[Fraction, float]


class ProfileError(ValueError):
    pass


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


def _horner(p: Sequence[Number], s: Number) -> Number:
    """p(s) by Horner's rule; at a float s each Fraction coefficient is rounded
    to float first, as Fraction-float arithmetic does."""
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * s + c
    return acc


@dataclass(frozen=True)
class _Profile:
    """Shared closed-form evaluator; subclasses fix the model data."""

    initial: Dict[str, Fraction]
    denom: Tuple[Fraction, ...]  # coefficients of D(s), ascending
    anti: Tuple[Fraction, ...]  # antiderivative of D, A(0) = 0
    constant: Fraction  # x0^2 * D(0)
    integral_factor: Fraction  # -6 for Q, +16 for M
    poles: Tuple[Fraction, ...]
    model_kind: str = ""
    collapsing_square0: Fraction = Fraction(0)  # f0^2 or c0^2

    def _check_domain(self, s: Number) -> None:
        for p in self.poles:
            if p == 0:
                continue  # removable when the orbit collapses there
            if s == p:
                raise DomainError(f"evaluation at the pole s = {p}")
            if self.model_kind == "Q" and s > p > 0:
                raise DomainError(f"s = {s} beyond the pole {p}")
            if self.model_kind == "M" and s < p < 0:
                raise DomainError(f"s = {s} beyond the pole {p}")

    @cached_property
    def _float_poles(self) -> Tuple[float, ...]:
        """The poles the domain check guards, rounded to nearest (inf on overflow).

        A float strictly on the near side of a rounded pole is strictly on the
        near side of the exact pole, so only the rest needs the exact check.
        """
        out = []
        for p in self.poles:
            if (self.model_kind == "Q" and p > 0) or (self.model_kind == "M" and p < 0):
                try:
                    out.append(float(p))
                except OverflowError:
                    out.append(math.inf if p > 0 else -math.inf)
        return tuple(out)

    @cached_property
    def _float_coeffs(self) -> Tuple[float, float, Tuple[float, ...], Tuple[float, ...]]:
        return (
            float(self.constant),
            float(self.integral_factor),
            tuple(float(c) for c in self.anti),
            tuple(float(c) for c in self.denom),
        )

    @cached_property
    def float_value_squared(self):
        """``value_squared`` at a float ``s``, as one function of ``s``.

        The same rounded coefficients, Horner steps and domain checks as
        ``value_squared``, written out straight (D is a cubic, so A is a
        quartic), give the same bits without the per-call dispatch.
        """
        const, factor, (a0, a1, a2, a3, a4), (d0, d1, d2, d3) = self._float_coeffs
        at_zero = float(self.collapsing_square0)
        check = self._check_domain
        if self.model_kind == "Q":
            below = min(self._float_poles, default=math.inf)
            above = -math.inf
        else:
            below = math.inf
            above = max(self._float_poles, default=-math.inf)

        def value_squared(s: float) -> float:
            if not above < s < below:
                check(s)  # at or beyond a rounded pole: decide exactly
            if s == 0:
                return at_zero
            num = const + factor * ((((a4 * s + a3) * s + a2) * s + a1) * s + a0)
            den = ((d3 * s + d2) * s + d1) * s + d0
            if den == 0:
                raise DomainError(f"denominator vanishes at s = {s}")
            return num / den

        return value_squared

    def _value_squared_float(self, s: float) -> float:
        if self.model_kind == "Q":
            clear = all(s < p for p in self._float_poles)
        else:
            clear = all(s > p for p in self._float_poles)
        if not clear:
            self._check_domain(s)  # at or beyond a rounded pole: decide exactly
        if s == 0:
            return float(self.collapsing_square0)
        const, factor, anti, denom = self._float_coeffs
        num = const + factor * _horner(anti, s)
        den = _horner(denom, s)
        if den == 0:
            raise DomainError(f"denominator vanishes at s = {s}")
        return num / den

    def value_squared(self, s: Number) -> Number:
        """The squared collapsing-profile value at the primitive s.

        Float input runs on float coefficients and gives the same bits as the
        rational coefficients would, since Fraction-float arithmetic rounds
        each Fraction to float first.
        """
        if not isinstance(s, Fraction):
            return self._value_squared_float(float(s))
        self._check_domain(s)
        if s == 0:
            return self.collapsing_square0
        num = self.constant + self.integral_factor * _horner(self.anti, s)
        den = _horner(self.denom, s)
        if den == 0:
            raise DomainError(f"denominator vanishes at s = {s}")
        return num / den

    def value_squared_prime(self, s: Number) -> Number:
        """d/ds of the squared profile (exact at rational s)."""
        self._check_domain(s)
        den = _horner(self.denom, s)
        if den == 0:
            raise DomainError(f"denominator vanishes at s = {s}")
        num = self.constant + self.integral_factor * _horner(self.anti, s)
        dprime = tuple(Fraction(k) * c for k, c in enumerate(self.denom) if k > 0)
        dp = _horner(dprime, s)
        return self.integral_factor - num * dp / (den * den)

    #: (name, slope) of each squared coefficient affine in s; not a field
    _SLOPES = ()

    @cached_property
    def _float_lines(self) -> Tuple[Tuple[str, float, float], ...]:
        return tuple((x, float(self.initial[x] ** 2), float(m)) for x, m in self._SLOPES)

    def _affine_squares(self, s: Number) -> Dict[str, Number]:
        """The squared coefficients affine in s; at a float s from the
        coefficients rounded once, as Fraction-float arithmetic rounds them."""
        if isinstance(s, Fraction):
            return {x: self.initial[x] ** 2 + m * s for x, m in self._SLOPES}
        return {x: x0 + m * s for x, x0, m in self._float_lines}

    def coefficient_squares(self, s: Number) -> Dict[str, Number]:
        raise NotImplementedError

    def ode_residual(self, s: Fraction) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class ProfileQ(_Profile):
    _SLOPES = (("a", Fraction(-1, 3)), ("b", Fraction(-1, 3)), ("c", Fraction(-1, 3)))

    def coefficient_squares(self, s: Number) -> Dict[str, Number]:
        out = self._affine_squares(s)
        out["f"] = self.value_squared(s)
        return out

    def ode_residual(self, s: Fraction) -> Fraction:
        """(1/2) G' + G * sum(1/(2s - 6 x0^2)) + 3, identically zero."""
        g = self.value_squared(s)
        gp = self.value_squared_prime(s)
        acc = Fraction(1, 2) * gp + 3
        for x in ("a", "b", "c"):
            acc += g / (2 * s - 6 * self.initial[x] ** 2)
        return acc


@dataclass(frozen=True)
class ProfileM(_Profile):
    _SLOPES = (("a", Fraction(3, 4)), ("b", Fraction(1, 2)))

    def coefficient_squares(self, s: Number) -> Dict[str, Number]:
        out = self._affine_squares(s)
        out["c"] = self.value_squared(s)
        return out

    def ode_residual(self, s: Fraction) -> Fraction:
        """(1/2) G' + (1/4) G / b^2 + (3/4) G / a^2 - 8, identically zero."""
        g = self.value_squared(s)
        gp = self.value_squared_prime(s)
        a2 = self.initial["a"] ** 2 + Fraction(3, 4) * s
        b2 = self.initial["b"] ** 2 + Fraction(1, 2) * s
        return Fraction(1, 2) * gp + Fraction(1, 4) * g / b2 + Fraction(3, 4) * g / a2 - 8


def profile(model: Union[CosetModel, str], init: OrbitSpec) -> Union[ProfileQ, ProfileM]:
    """Closed-form profile evaluator for one orbit's initial data."""
    kind = model.kind if isinstance(model, CosetModel) else str(model).upper()
    if kind != init.model_kind:
        raise ProfileError("orbit spec does not match the model")
    vals = {k: Fraction(v) for k, v in init.values.items()}
    full = {x: vals.get(x, Fraction(0)) for x in STATE_NAMES[kind]}

    if kind == "Q":
        roots = [3 * full[x] ** 2 for x in ("a", "b", "c")]
        den = [Fraction(1)]
        for r in roots:
            den = _poly_mul(den, [-r, Fraction(1)])
        anti = _poly_antiderivative(den)
        constant = full["f"] ** 2 * _horner(tuple(den), Fraction(0))
        return ProfileQ(
            initial=full,
            denom=tuple(den),
            anti=tuple(anti),
            constant=constant,
            integral_factor=Fraction(-6),
            poles=tuple(sorted(set(roots))),
            model_kind="Q",
            collapsing_square0=full["f"] ** 2,
        )

    # D(s) = (s - p0)(s - p1)^2 with p0 = -2 b0^2, p1 = -4/3 a0^2
    poles = [Fraction(-2) * full["b"] ** 2, Fraction(-4, 3) * full["a"] ** 2]
    den = _poly_mul(
        [-poles[0], Fraction(1)],
        _poly_mul([-poles[1], Fraction(1)], [-poles[1], Fraction(1)]),
    )
    anti = _poly_antiderivative(den)
    constant = full["c"] ** 2 * _horner(tuple(den), Fraction(0))
    return ProfileM(
        initial=full,
        denom=tuple(den),
        anti=tuple(anti),
        constant=constant,
        integral_factor=Fraction(16),
        poles=tuple(sorted(set(poles))),
        model_kind="M",
        collapsing_square0=full["c"] ** 2,
    )


def compare(traj: Trajectory, prof: Union[ProfileQ, ProfileM]) -> float:
    """Maximum relative deviation of a trajectory from the closed form.

    At every accepted sample the profile is evaluated at s = accumulated
    primitive and compared against the squared coefficients; no numerical
    inversion of the primitive is ever needed.
    """
    if traj.model_kind != prof.model_kind:
        raise ProfileError("trajectory and profile belong to different models")
    names = traj.state_names
    worst = 0.0
    try:
        for row in traj.ys:
            want = prof.coefficient_squares(row[-1])
            floor = max(max(abs(v) for v in want.values()), 1e-300) * 1e-6
            for j, n in enumerate(names):
                w = want[n]
                dev = abs(row[j] ** 2 - w) / max(abs(w), floor)
                if dev > worst:
                    worst = dev
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
    return worst
