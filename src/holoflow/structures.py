"""Canonical G2/Spin(7) forms and the invariant structures on both orbits.

The canonical three-form is written out with its textbook signs, and the
four-form built from it as Omega = *omega + dx0 ^ omega; each invariant
structure is that four-form with the model's orthonormal frame substituted,
which carries the metric coefficients a, b, c, f into the coefficients.
The table and the two frame maps are fixed data, and what they must satisfy
is proven once in the tests, not checked at run time: the three-form is
definite (a split form defines no metric; ``tests/test_structures.py::
test_the_canonical_three_form_is_definite``), and Omega is basic on both
admissible models (``test_Omega_is_basic_on_both_admissible_structures``),
which are the only two at any indices (``tests/test_homogeneous.py::
test_only_q111_and_m11_admit_an_invariant_g2_structure``).  A
one-parameter rotation family acts on every structure; its exact generator
L gives the whole family in closed form, Omega plus the multiples
sin(k phi)/k and (1 - cos(k phi))/k^2 of L(Omega) and L(L(Omega)), so three
exact forms certify every angle at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from ._record import record, replace
from .algebra import LaurentPoly, Multivector, SymbolTable
from .homogeneous import CosetModel, classify_invariant_g2, group_gens, model_spec

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
    Omega = omega.hodge_star().substitute(embed, CANON8, dt_index=0) + dx0.wedge(
        omega.substitute(embed, CANON8, dt_index=0)
    )
    terms = sorted(Omega.terms.items(), key=lambda term: Omega.indices_of(term[0]))
    return CanonicalForms(omega, Multivector(CANON8, dict(terms), dt_index=0))


@lru_cache(maxsize=None)
def _canonical_Omega_terms() -> Tuple[Tuple[int, Fraction], ...]:
    """Omega's terms, built once per process; a ``Multivector`` is mutable, so
    every structure substitutes into a new one made from them."""
    return tuple(canonical_forms().Omega.terms.items())


@record(frozen=True)
class Spin7Structure:
    """Invariant Spin(7) four-form on one orbit.

    ``Omega`` lives on the full group coframe (isotropy generators carry no
    terms) with a trailing dt generator; its dt-free part and dt-part,
    ``flow.split_dt(Omega)``, are *omega and omega of the induced G2
    structure.  Coefficients are monomials in the metric symbols.
    """

    model: CosetModel
    table: SymbolTable
    Omega: Multivector

    @property
    def gens(self) -> Tuple[str, ...]:
        return self.Omega.gens

    @property
    def dt_index(self) -> int:
        return self.Omega.dt_index


def build_invariant_structure(model: CosetModel) -> Spin7Structure:
    """Substitute the model's frame into the canonical four-form.

    Raises for models that do not admit an invariant G2-structure.  No
    build checks that Omega is basic: the tests prove it on the two models
    that admit one, Q(1,1,1) and M(1,1), and that no others do (see the
    module docstring).  The dt-free and dt terms of Omega have disjoint
    masks, and contraction and ``invariant_d`` keep them apart, so *omega
    and omega are basic too.
    """
    if not classify_invariant_g2(model):
        raise StructureError(f"{model.label} admits no invariant G2-structure")
    gens = group_gens(model)
    dt_index = len(gens) - 1
    table = model.symbols
    images = {0: ((dt_index, LaurentPoly.const(table, 1)),)}
    for slot, (target, sym) in model_spec(model).frame_map.items():
        images[slot] = ((target - 1, LaurentPoly.variable(table, sym)),)
    canonical = Multivector(CANON8, dict(_canonical_Omega_terms()), dt_index=0)
    return Spin7Structure(model, table, canonical.substitute(images, gens, dt_index))


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


def _rotate_form(form: Multivector, planes, cs_pairs) -> Multivector:
    """Pull a form back by simultaneous rotations of the coframe's planes."""
    images = {}
    for (i, j), (c, s) in zip(planes, cs_pairs):
        images[i] = ((i, c), (j, -s))
        images[j] = ((i, s), (j, c))
    return form.substitute(images)


def rotate_structure(struct: Spin7Structure, theta: AngleLike) -> Spin7Structure:
    """Pull the structure back by the model's isometric rotation action.

    ``theta`` is a float angle or an exact ``(cos, sin)`` pair of the
    model's fundamental angle unit.
    """
    spec = model_spec(struct.model)
    cs_pairs = _rotation(theta, spec.fundamental_unit, spec.rotation_multiples)
    return replace(struct, Omega=_rotate_form(struct.Omega, spec.planes, cs_pairs))


def rotation_generator(struct: Spin7Structure, form: Multivector) -> Multivector:
    """L(form), for L the derivative at angle 0 of :func:`rotate_structure`.

    L is the derivation with L(e^i) = -n e^j and L(e^j) = n e^i on each
    plane (i, j) of multiple n, so L(form) = sum_a L(e^a) ^ i_a(form).
    When V = L(Omega) and W = L(V) satisfy L(W) = -k^2 V, the family at
    fundamental angle phi is exp(phi L) Omega
    = Omega + (sin k phi / k) V + ((1 - cos k phi) / k^2) W.
    """
    gens, dt, spec = form.gens, form.dt_index, model_spec(struct.model)
    out = Multivector.zero(gens, dt)
    for (i, j), n in zip(spec.planes, spec.rotation_multiples):
        out = out + Multivector.basis(gens, [j], Fraction(-n), dt).wedge(form.contract(i))
        out = out + Multivector.basis(gens, [i], Fraction(n), dt).wedge(form.contract(j))
    return out
