"""Reads and exact evaluations that only the tests need.

No command reads one coefficient of a form, rebuilds a structure tensor from
a table, substitutes the frame into omega and *omega apart from Omega, sorts
isotropy weights or evaluates the closed-form profile exactly; the tests do,
and hold the package to these.
"""

from fractions import Fraction

from holoflow.algebra import AlgebraError, LaurentPoly
from holoflow.closed_form import DomainError
from holoflow.homogeneous import MODEL_SPECS, StructureTensor, _integer_rows, group_gens, model_spec
from holoflow.structures import canonical_forms


def coefficient(form, indices):
    """The coefficient of e^{i1} ^ ... ^ e^{ik} in ``form``, indices
    ascending, or None where the form has no such term."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return form.terms.get(mask)


def max_abs_coefficient(form) -> float:
    """The largest |coefficient| of a numeric form; 0.0 for the zero form."""
    if any(isinstance(c, LaurentPoly) for c in form.terms.values()):
        raise AlgebraError("max_abs_coefficient needs a numeric multivector")
    return max((abs(c) for c in form.terms.values()), default=0.0)


def structure_from_table(n, table) -> StructureTensor:
    """The tensor of the exact constants {(i, j): {k: c^k_ij}} for i < j."""
    brackets = [
        (i, j, [(k, c.numerator, c.denominator) for k, c in cs.items()])
        for (i, j), cs in table.items()
    ]
    return StructureTensor(n, *_integer_rows(n, brackets))


def star_omega_and_omega(model):
    """(*omega, omega) on the model's group coframe: the canonical *omega and
    omega, each with the model's frame substituted on its own, where the
    structure substitutes only into Omega and ``split_dt`` reads them off."""
    can = canonical_forms()
    gens = group_gens(model)
    table = model.symbols
    images = {
        slot - 1: ((target - 1, LaurentPoly.variable(table, sym)),)
        for slot, (target, sym) in model_spec(model).frame_map.items()
    }
    return tuple(form.substitute(images, gens, len(gens) - 1) for form in (can.omega.hodge_star(), can.omega))


def canonical_weights(multiset):
    """The weight vectors, each with its first nonzero entry positive, sorted."""
    out = []
    for w in multiset.weights:
        lead = next((x for x in w if x != 0), 0)
        out.append(tuple(-x for x in w) if lead < 0 else tuple(w))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# the closed-form profile, exactly
# ---------------------------------------------------------------------------


def horner(coeffs, s):
    """The polynomial of ascending ``coeffs`` at s by Horner's rule: exact at a
    Fraction s; at a float s each Fraction coefficient is rounded to float
    first, as Fraction-float arithmetic does."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


def exact_value_squared(p, s: Fraction) -> Fraction:
    """The squared collapsing-profile value of ``p`` at a rational s, exactly;
    the profile's own ``value_squared`` is its float evaluation."""
    if not isinstance(s, Fraction):
        raise TypeError(f"the exact profile takes a Fraction, got {type(s).__name__}")
    p._check_domain(s)
    if s == 0:
        return p.collapsing_square0
    num = p.constant + MODEL_SPECS[p.model_kind].factor * horner(p.anti, s)
    den = horner(p.denom, s)
    if den == 0:
        raise DomainError(f"denominator vanishes at s = {s}")
    return num / den
