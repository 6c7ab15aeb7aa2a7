"""Canonical G2/Spin(7) forms and the invariant structures on both orbits.

The canonical three-form is written out with its textbook signs and the
four-form built from it as Omega = *omega + dx0 ^ omega; the invariant
structures are obtained by substituting each model's orthonormal frame and
carrying the metric coefficients a, b, c, f into the coefficients.  A
one-parameter rotation family acts on every structure; its exact generator
L gives the whole family in closed form, Omega plus the multiples
sin(k phi)/k and (1 - cos(k phi))/k^2 of L(Omega) and L(L(Omega)), so three
exact forms certify every angle at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from ._record import record, replace
from .algebra import LaurentPoly, Multivector, SymbolTable, wedge
from .homogeneous import CosetModel, classify_invariant_g2, group_gens, is_basic, model_spec

CANON7 = tuple(f"dx{i}" for i in range(1, 8))
CANON8 = tuple(f"dx{i}" for i in range(8))

#: canonical G2 three-form: signed index triples on dx1..dx7
OMEGA3_TERMS = (
    ((1, 2, 3), 1),
    ((1, 4, 5), 1),
    ((1, 6, 7), -1),
    ((2, 4, 6), 1),
    ((2, 5, 7), 1),
    ((3, 4, 7), 1),
    ((3, 5, 6), -1),
)


class StructureError(ValueError):
    pass


@record(frozen=True)
class CanonicalForms:
    """The canonical three-form and four-form with integer coefficients."""

    omega: Multivector  # degree 3 on dx1..dx7
    Omega: Multivector  # degree 4 on dx0..dx7, dx0 tagged as dt


def canonical_forms() -> CanonicalForms:
    """omega from its table and Omega = *omega + dx0 ^ omega, with Omega's
    terms in lexicographic order of their index tuples."""
    omega = Multivector.zero(CANON7)
    for idx, sign in OMEGA3_TERMS:
        omega = omega + Multivector.basis(CANON7, [i - 1 for i in idx], Fraction(sign))
    embed = {i: ((i + 1, 1),) for i in range(7)}
    dx0 = Multivector.basis(CANON8, [0], Fraction(1), dt_index=0)
    Omega = omega.hodge_star().substitute(embed, CANON8, dt_index=0) + wedge(
        dx0, omega.substitute(embed, CANON8, dt_index=0)
    )
    terms = sorted(Omega.terms.items(), key=lambda term: Omega.indices_of(term[0]))
    return CanonicalForms(omega, Multivector(CANON8, dict(terms), dt_index=0))


@record(frozen=True)
class Spin7Structure:
    """Invariant Spin(7) four-form and its induced G2 data on one orbit.

    ``Omega`` lives on the full group coframe (isotropy generators carry no
    terms) with a trailing dt generator; ``omega`` and ``star_omega`` are its
    dt-slice companions.  Coefficients are monomials in the metric symbols.
    """

    model: CosetModel
    table: SymbolTable
    Omega: Multivector
    omega: Multivector
    star_omega: Multivector

    @property
    def gens(self) -> Tuple[str, ...]:
        return self.Omega.gens

    @property
    def dt_index(self) -> int:
        return self.Omega.dt_index

    def dt_form(self) -> Multivector:
        one = LaurentPoly.const(self.table, 1)
        return Multivector.basis(self.gens, [self.dt_index], one, dt_index=self.dt_index)


def build_invariant_structure(model: CosetModel) -> Spin7Structure:
    """Substitute the model's frame into the canonical forms.

    Raises for models that do not admit an invariant G2-structure.
    """
    if not classify_invariant_g2(model):
        raise StructureError(f"{model.label} admits no invariant G2-structure")
    can = canonical_forms()
    gens = group_gens(model)
    dt_index = len(gens) - 1
    table = model.symbols

    map8 = {0: ((dt_index, LaurentPoly.const(table, 1)),)}
    for slot, (target, sym) in model_spec(model).frame_map.items():
        map8[slot] = ((target - 1, LaurentPoly.variable(table, sym)),)
    map7 = {slot - 1: image for slot, image in map8.items() if slot}

    Omega = can.Omega.substitute(map8, gens, dt_index)
    omega = can.omega.substitute(map7, gens, dt_index)
    star_omega = can.omega.hodge_star().substitute(map7, gens, dt_index)

    struct = Spin7Structure(model, table, Omega, omega, star_omega)
    if Omega != star_omega + wedge(struct.dt_form(), omega):
        raise StructureError("invariant structure fails Omega = *omega + dt ^ omega")
    for form in (Omega, omega, star_omega):
        if not is_basic(form, model):
            raise StructureError("invariant structure is not basic")
    return struct


# ---------------------------------------------------------------------------
# the rotation family
# ---------------------------------------------------------------------------

AngleLike = Union[float, Tuple[Fraction, Fraction]]


def _multi_angle(c: Fraction, s: Fraction, n: int) -> Tuple[Fraction, Fraction]:
    """(cos, sin) of n times the fundamental angle from (cos, sin) of it."""
    ck, sk = Fraction(1), Fraction(0)
    for _ in range(abs(n)):
        ck, sk = c * ck - s * sk, s * ck + c * sk
    return ck, (sk if n >= 0 else -sk)


def _rotation(theta: AngleLike, unit: Fraction, multiples):
    """The exact (cos, sin) pair of each plane.

    A float angle is measured in multiples of ``unit``.
    """
    if isinstance(theta, tuple):
        c, s = theta
        if c * c + s * s != 1:
            raise StructureError("exact rotation pair must satisfy c^2 + s^2 = 1")
    else:
        angle = float(unit) * theta
        c, s = Fraction(math.cos(angle)), Fraction(math.sin(angle))
    return [_multi_angle(c, s, n) for n in multiples]


def _rotate_form(form: Multivector, cs_pairs) -> Multivector:
    """Pull a form back by simultaneous plane rotations of the coframe."""
    images = {}
    for (i, j), (c, s) in zip(CosetModel.PLANES, cs_pairs):
        images[i] = ((i, c), (j, -s))
        images[j] = ((i, s), (j, c))
    return form.substitute(images)


def _rotate_all(struct: Spin7Structure, cs_pairs) -> Spin7Structure:
    return replace(
        struct,
        Omega=_rotate_form(struct.Omega, cs_pairs),
        omega=_rotate_form(struct.omega, cs_pairs),
        star_omega=_rotate_form(struct.star_omega, cs_pairs),
    )


def rotate_structure(struct: Spin7Structure, theta: AngleLike) -> Spin7Structure:
    """Pull the structure back by the model's isometric rotation action.

    ``theta`` is a float angle or an exact ``(cos, sin)`` pair of the
    model's fundamental angle unit.
    """
    spec = model_spec(struct.model)
    return _rotate_all(struct, _rotation(theta, spec.fundamental_unit, spec.rotation_multiples))


def rotation_generator(struct: Spin7Structure, form: Multivector) -> Multivector:
    """L(form), for L the derivative at angle 0 of :func:`rotate_structure`.

    L is the derivation with L(e^i) = -n e^j and L(e^j) = n e^i on each
    plane (i, j) of multiple n, so L(form) = sum_a L(e^a) ^ i_a(form).
    When V = L(Omega) and W = L(V) satisfy L(W) = -k^2 V, the family at
    fundamental angle phi is exp(phi L) Omega
    = Omega + (sin k phi / k) V + ((1 - cos k phi) / k^2) W.
    """
    gens, dt = form.gens, form.dt_index
    out = Multivector.zero(gens, dt)
    for (i, j), n in zip(CosetModel.PLANES, model_spec(struct.model).rotation_multiples):
        out = out + wedge(Multivector.basis(gens, [j], Fraction(-n), dt), form.contract(i))
        out = out + wedge(Multivector.basis(gens, [i], Fraction(n), dt), form.contract(j))
    return out
