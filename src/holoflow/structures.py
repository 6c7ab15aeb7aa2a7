"""Canonical G2/Spin(7) forms and the invariant structures on both orbits.

The canonical three-form and four-form are hardcoded with their textbook
signs; the invariant structures are obtained by substituting each model's
orthonormal frame and carrying the metric coefficients a, b, c, f into the
coefficients.  A one-parameter rotation family acts on every structure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from ._record import record, replace
from .algebra import LaurentPoly, Multivector, SymbolTable, wedge
from .homogeneous import CosetModel, classify_invariant_g2, group_gens, is_basic

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

#: canonical Spin(7) four-form: signed index quadruples on dx0..dx7
OMEGA4_TERMS = (
    ((0, 1, 2, 3), 1),
    ((0, 1, 4, 5), 1),
    ((0, 1, 6, 7), -1),
    ((0, 2, 4, 6), 1),
    ((0, 2, 5, 7), 1),
    ((0, 3, 4, 7), 1),
    ((0, 3, 5, 6), -1),
    ((1, 2, 4, 7), -1),
    ((1, 2, 5, 6), 1),
    ((1, 3, 4, 6), 1),
    ((1, 3, 5, 7), 1),
    ((2, 3, 4, 5), -1),
    ((2, 3, 6, 7), 1),
    ((4, 5, 6, 7), 1),
)

#: orthonormal-frame assignment: canonical slot -> (generator index, scale symbol)
FRAME_MAP = {
    "Q": {1: (7, "f"), 2: (1, "a"), 3: (2, "a"), 4: (3, "b"), 5: (4, "b"), 6: (6, "c"), 7: (5, "c")},
    "M": {1: (7, "c"), 2: (6, "b"), 3: (5, "b"), 4: (1, "a"), 5: (2, "a"), 6: (4, "a"), 7: (3, "a")},
}

#: coframe rotation data on the model's planes: integer multiples of the
#: fundamental angle unit (theta for Q, theta/2 for the M ad-action)
ROTATION_MULTIPLES = {"Q": (1, 1, 1), "M": (3, 3, -2)}
FUNDAMENTAL_UNIT = {"Q": Fraction(1), "M": Fraction(1, 2)}


class StructureError(ValueError):
    pass


@record(frozen=True)
class CanonicalForms:
    """The canonical three-form and four-form with integer coefficients."""

    omega: Multivector  # degree 3 on dx1..dx7
    Omega: Multivector  # degree 4 on dx0..dx7, dx0 tagged as dt


def canonical_forms() -> CanonicalForms:
    omega = Multivector.zero(CANON7)
    for idx, sign in OMEGA3_TERMS:
        omega = omega + Multivector.basis(CANON7, [i - 1 for i in idx], Fraction(sign))
    Omega = Multivector.zero(CANON8, dt_index=0)
    for idx, sign in OMEGA4_TERMS:
        Omega = Omega + Multivector.basis(CANON8, list(idx), Fraction(sign), dt_index=0)
    # self-check: Omega = *omega + dx0 ^ omega, exactly
    embed = {i: ((i + 1, 1),) for i in range(7)}
    star8 = omega.hodge_star().substitute(embed, CANON8, dt_index=0)
    omega8 = omega.substitute(embed, CANON8, dt_index=0)
    dx0 = Multivector.basis(CANON8, [0], Fraction(1), dt_index=0)
    if Omega != star8 + wedge(dx0, omega8):
        raise StructureError("canonical forms fail Omega = *omega + dx0 ^ omega")
    return CanonicalForms(omega, Omega)


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
    time_reversed: bool = False

    @property
    def gens(self) -> Tuple[str, ...]:
        return self.Omega.gens

    @property
    def dt_index(self) -> int:
        return self.Omega.dt_index

    def dt_form(self) -> Multivector:
        one = LaurentPoly.const(self.table, 1)
        return Multivector.basis(self.gens, [self.dt_index], one, dt_index=self.dt_index)


def build_invariant_structure(model: CosetModel, time_reversed: bool = False) -> Spin7Structure:
    """Substitute the model's frame into the canonical forms.

    Raises for models that do not admit an invariant G2-structure.
    """
    if not classify_invariant_g2(model):
        raise StructureError(f"{model.label} admits no invariant G2-structure")
    can = canonical_forms()
    gens = group_gens(model)
    dt_index = len(gens) - 1
    table = model.symbols
    fmap = FRAME_MAP[model.kind]

    dt_scale = LaurentPoly.const(table, -1 if time_reversed else 1)
    map8 = {0: ((dt_index, dt_scale),)}
    for slot in range(1, 8):
        target, sym = fmap[slot]
        map8[slot] = ((target - 1, LaurentPoly.variable(table, sym)),)
    map7 = {slot - 1: image for slot, image in map8.items() if slot}

    Omega = can.Omega.substitute(map8, gens, dt_index)
    omega = can.omega.substitute(map7, gens, dt_index)
    star_omega = can.omega.hodge_star().substitute(map7, gens, dt_index)

    struct = Spin7Structure(model, table, Omega, omega, star_omega, time_reversed)
    dt = struct.dt_form()
    if time_reversed:
        dt = -dt
    if Omega != star_omega + wedge(dt, omega):
        raise StructureError("invariant structure fails Omega = *omega + dt ^ omega")
    for form in (Omega, omega, star_omega):
        if not is_basic(form, model):
            raise StructureError("invariant structure is not basic")
    return struct


# ---------------------------------------------------------------------------
# the rotation family
# ---------------------------------------------------------------------------

AngleLike = Union[float, Tuple[Fraction, Fraction], str]


def _multi_angle(c, s, n: int, one):
    """(cos, sin) of n times the fundamental angle from (cos, sin) of it."""
    if n == 0:
        return one, one - one
    neg = n < 0
    n = abs(n)
    ck, sk = c, s
    for _ in range(n - 1):
        ck, sk = c * ck - s * sk, s * ck + c * sk
    if neg:
        sk = -sk
    return ck, sk


def _fundamental_cs(struct: Spin7Structure, theta: AngleLike, unit: Fraction):
    """Resolve an angle argument to exact (cos, sin) data and a table.

    A float angle is measured in multiples of ``unit``.
    """
    table = struct.table
    if theta == "symbolic":
        ext = SymbolTable(table.base + ("C", "S"), table.derivative)
        return LaurentPoly.variable(ext, "C"), LaurentPoly.variable(ext, "S"), ext
    if isinstance(theta, tuple):
        c, s = theta
        if c * c + s * s != 1:
            raise StructureError("exact rotation pair must satisfy c^2 + s^2 = 1")
        return LaurentPoly.const(table, c), LaurentPoly.const(table, s), table
    angle = float(unit) * theta
    c = Fraction(math.cos(angle))
    s = Fraction(math.sin(angle))
    return LaurentPoly.const(table, c), LaurentPoly.const(table, s), table


def _rotate_form(form: Multivector, table: SymbolTable, cs_pairs) -> Multivector:
    """Pull a form back by simultaneous plane rotations of the coframe."""
    images = {}
    for (i, j), (c, s) in zip(CosetModel.PLANES, cs_pairs):
        images[i] = ((i, c), (j, -s))
        images[j] = ((i, s), (j, c))
    moved = {m: p.subs({}, table) for m, p in form.terms.items()}
    return Multivector(form.gens, moved, form.dt_index).substitute(images)


def _rotation(struct: Spin7Structure, theta: AngleLike, unit: Fraction, multiples):
    """The rotated symbol table and the (cos, sin) pair of each plane."""
    c, s, table = _fundamental_cs(struct, theta, unit)
    one = LaurentPoly.const(table, 1)
    return table, [_multi_angle(c, s, n, one) for n in multiples]


def _rotate_all(struct: Spin7Structure, table: SymbolTable, cs_pairs) -> Spin7Structure:
    return replace(
        struct,
        table=table,
        Omega=_rotate_form(struct.Omega, table, cs_pairs),
        omega=_rotate_form(struct.omega, table, cs_pairs),
        star_omega=_rotate_form(struct.star_omega, table, cs_pairs),
    )


def rotate_structure(struct: Spin7Structure, theta: AngleLike) -> Spin7Structure:
    """Pull the structure back by the model's isometric rotation action.

    ``theta`` is a float angle, an exact ``(cos, sin)`` pair of the model's
    fundamental angle unit, or ``"symbolic"`` for formal C, S symbols with
    the circle relation left to the caller.
    """
    kind = struct.model.kind
    table, cs_pairs = _rotation(struct, theta, FUNDAMENTAL_UNIT[kind], ROTATION_MULTIPLES[kind])
    return _rotate_all(struct, table, cs_pairs)


def rotate_four_form(struct: Spin7Structure, theta: AngleLike) -> Tuple[SymbolTable, Multivector]:
    """Omega alone pulled back as in :func:`rotate_structure`, with its table."""
    kind = struct.model.kind
    table, cs_pairs = _rotation(struct, theta, FUNDAMENTAL_UNIT[kind], ROTATION_MULTIPLES[kind])
    return table, _rotate_form(struct.Omega, table, cs_pairs)
