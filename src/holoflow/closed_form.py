"""Exact closed-form solution profiles and trajectory comparison.

Both holonomy systems linearize in the squared collapsing coefficient once
time is traded for the integrated primitive s (s = F for the Q model, s = C
for the M model).  The other squared coefficients are affine in s,
x^2 = x0^2 + m_x s, and variation of constants gives for both models

    G(s) = (x0^2 D(0) + k A(s)) / D(s),   D(s) = prod_x (s - r_x)^(p_x),

with r_x = -x0^2 / m_x the zero of x^2 and A the antiderivative of D
vanishing at 0.  Each model is a table of slopes m_x, powers p_x and k:

    Q:  G = f^2;  a, b, c: m = -1/3, p = 1;             k = -6
    M:  G = c^2;  a: m = 3/4, p = 2;  b: m = 1/2, p = 1;  k = 16

Everything here is exact at rational s.
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


def _rounded(p: Fraction) -> float:
    """float(p), or an infinity of p's sign where p is beyond float range."""
    try:
        return float(p)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


@dataclass(frozen=True)
class _Profile:
    """The closed form of one orbit's data; subclasses hold the model table."""

    initial: Dict[str, Fraction]
    denom: Tuple[Fraction, ...]  # coefficients of D(s), ascending
    anti: Tuple[Fraction, ...]  # antiderivative of D, A(0) = 0
    constant: Fraction  # x0^2 * D(0)
    integral_factor: Fraction  # k
    poles: Tuple[Fraction, ...]
    model_kind: str = ""
    collapsing_square0: Fraction = Fraction(0)  # f0^2 or c0^2

    #: (name, slope m, power of the zero -x0^2/m in D) of each squared
    #: coefficient affine in s, and the factor k of A; not fields
    _AFFINE = ()
    _FACTOR = Fraction(0)

    def _check_domain(self, s: Number) -> None:
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
                float, (self.constant, self.integral_factor, *self.anti, *self.denom)
            )
        except OverflowError:
            const = None  # a coefficient beyond float range: only s = 0 has a value
        square0 = self.collapsing_square0
        check = self._check_domain
        below = min((_rounded(p) for p in self.poles if p > 0), default=math.inf)
        above = max((_rounded(p) for p in self.poles if p < 0), default=-math.inf)

        def value_squared(s: float) -> float:
            if not above < s < below:
                check(s)  # at or beyond a rounded pole: decide exactly
            if s == 0:
                return float(square0)
            if const is None:
                raise OverflowError("a closed-form coefficient is beyond float range")
            num = const + factor * ((((a4 * s + a3) * s + a2) * s + a1) * s + a0)
            den = ((d3 * s + d2) * s + d1) * s + d0
            if den == 0:
                raise DomainError(f"denominator vanishes at s = {s}")
            return num / den

        return value_squared

    def value_squared(self, s: Number) -> Number:
        """The squared collapsing-profile value at the primitive s: exact at a
        Fraction, ``float_value_squared(float(s))`` at anything else."""
        if not isinstance(s, Fraction):
            return self.float_value_squared(float(s))
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

    @cached_property
    def _float_lines(self) -> Tuple[Tuple[str, float, float], ...]:
        return tuple((x, float(self.initial[x] ** 2), float(m)) for x, m, _ in self._AFFINE)

    def coefficient_squares(self, s: Number) -> Dict[str, Number]:
        """Every squared coefficient at s; the affine ones at a float s from
        the coefficients rounded once, as Fraction-float arithmetic rounds them."""
        if isinstance(s, Fraction):
            out = {x: self.initial[x] ** 2 + m * s for x, m, _ in self._AFFINE}
        else:
            out = {x: x0 + m * s for x, x0, m in self._float_lines}
        out[STATE_NAMES[self.model_kind][-1]] = self.value_squared(s)
        return out


@dataclass(frozen=True)
class ProfileQ(_Profile):
    _AFFINE = (("a", Fraction(-1, 3), 1), ("b", Fraction(-1, 3), 1), ("c", Fraction(-1, 3), 1))
    _FACTOR = Fraction(-6)
    # an entry of its own, so that per-class instrumentation can wrap it
    coefficient_squares = _Profile.coefficient_squares

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
    _AFFINE = (("a", Fraction(3, 4), 2), ("b", Fraction(1, 2), 1))
    _FACTOR = Fraction(16)
    # an entry of its own, so that per-class instrumentation can wrap it
    coefficient_squares = _Profile.coefficient_squares

    def ode_residual(self, s: Fraction) -> Fraction:
        """(1/2) G' + (1/4) G / b^2 + (3/4) G / a^2 - 8, identically zero."""
        g = self.value_squared(s)
        gp = self.value_squared_prime(s)
        a2 = self.initial["a"] ** 2 + Fraction(3, 4) * s
        b2 = self.initial["b"] ** 2 + Fraction(1, 2) * s
        return Fraction(1, 2) * gp + Fraction(1, 4) * g / b2 + Fraction(3, 4) * g / a2 - 8


_PROFILES = {"Q": ProfileQ, "M": ProfileM}


def profile(model: Union[CosetModel, str], init: OrbitSpec) -> Union[ProfileQ, ProfileM]:
    """Closed-form profile evaluator for one orbit's initial data."""
    kind = model.kind if isinstance(model, CosetModel) else str(model).upper()
    if kind != init.model_kind:
        raise ProfileError("orbit spec does not match the model")
    vals = {k: Fraction(v) for k, v in init.values.items()}
    full = {x: vals.get(x, Fraction(0)) for x in STATE_NAMES[kind]}
    cls = _PROFILES[kind]
    roots = []
    den = [Fraction(1)]
    for x, m, power in cls._AFFINE:
        roots.append(-full[x] ** 2 / m)
        for _ in range(power):
            den = _poly_mul(den, [-roots[-1], Fraction(1)])
    square0 = full[STATE_NAMES[kind][-1]] ** 2
    return cls(
        initial=full,
        denom=tuple(den),
        anti=tuple(_poly_antiderivative(den)),
        constant=square0 * den[0],
        integral_factor=cls._FACTOR,
        poles=tuple(sorted(set(roots))),
        model_kind=kind,
        collapsing_square0=square0,
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
