"""Reads and exact evaluations that only the tests need.

No command packs or decodes a matrix position, assembles a model's basis
matrices, reads one coefficient of a form, reads the structure constants as ``Fraction`` values, checks the
Jacobi identity one triple at a time, rebuilds a structure tensor from a
table, substitutes the frame into omega and *omega apart from Omega, sorts
isotropy weights, evaluates the closed-form profile exactly or fits the
cone limits by exact least squares; the tests do, and hold the package to
these.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from holoflow.algebra import AlgebraError, LaurentPoly
from holoflow.closed_form import DomainError
from holoflow.homogeneous import _ALGEBRA, _SIDE, MODEL_SPECS, StructureTensor, _place, group_gens, model_spec
from holoflow.structures import canonical_forms
from holoflow.verify import _cone_quantities


def perm_sign_sort(seq) -> int:
    """Sign of the permutation sorting ``seq`` ascending, by counting its
    inversions; the oracle for the signs ``Multivector.basis`` and
    ``Multivector.substitute`` take from ``_merge_sign``."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def pack(b, i, j) -> int:
    """The int key of the matrix entry (block b, row i, column j)."""
    return (b * _SIDE + i) * _SIDE + j


def unpack(key):
    """The position (b, i, j) of a packed matrix entry."""
    bi, j = divmod(key, _SIDE)
    return (*divmod(bi, _SIDE), j)


def model_matrices(kind, basis):
    """The (D, S) pairs of Gaussian-integer matrices of a basis given by its
    coordinates (D, {a: P_a}) over the Lie-algebra basis g_a of ``kind``:
    S = sum_a P_a g_a, summed entry by entry from the placed patterns of
    ``_ALGEBRA``, zero entries dropped.  ``_build_structure`` on these is the
    oracle of a model's change-of-basis build."""
    out = []
    for d, coords in basis:
        s = {}
        for a, c in coords.items():
            for key, (re, im) in _place(*_ALGEBRA[kind][a]).items():
                r0, i0 = s.get(key, (0, 0))
                s[key] = (r0 + c * re, i0 + c * im)
        out.append((d, {key: v for key, v in s.items() if v != (0, 0)}))
    return tuple(out)


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


def structure_table(structure):
    """The exact c^k_ij for i < j as {(i, j): {k: c}}, sparse, with the pairs
    in row-major order and each pair's k in the order of its integer row."""
    return {
        (i, j): {k: Fraction(v, structure.scale) for k, v in row[j]}
        for i, row in enumerate(structure.rows)
        for j in range(i + 1, structure.n)
        if row[j]
    }


def structure_from_table(n, table) -> StructureTensor:
    """The tensor of the exact constants {(i, j): {k: c^k_ij}} for i < j:
    ``scale`` the lcm L of their denominators, and rows[i][j] the pairs
    (k, L c^k_ij) for either order of i, j, as tuples at every level;
    rows[j][i] is written from rows[i][j], so rows[j][i] = -rows[i][j]."""
    scale = math.lcm(*(c.denominator for cs in table.values() for c in cs.values()))
    rows = [[()] * n for _ in range(n)]
    for (i, j), coeffs in table.items():
        rows[i][j] = tuple((k, c.numerator * (scale // c.denominator)) for k, c in coeffs.items())
        rows[j][i] = tuple((k, -v) for k, v in rows[i][j])
    return StructureTensor(n, scale, tuple(map(tuple, rows)))


def jacobi_per_triple(structure) -> bool:
    """Whether the integer table satisfies the Jacobi identity, summing the
    cyclic sum of every triple i < j < k on its own from both orders of the
    rows: the check that ``_check_jacobi`` replaced."""
    n, rows = structure.n, structure.rows
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, cm in rows[a][b]:
                for fin, cf in rows[mid][c]:
                    acc[fin] = acc.get(fin, 0) + cm * cf
        if any(acc.values()):
            return False
    return True


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


def canonical_weights(weights):
    """The weight vectors, each with its first nonzero entry positive, sorted."""
    out = []
    for w in weights:
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


# ---------------------------------------------------------------------------
# the cone fit, exactly
# ---------------------------------------------------------------------------


def exact_cone_fit(traj):
    """``cone_fit``'s limits and corrections by exact least squares: each
    cone quantity against the rows (1, 1/t) of its design matrix, the float
    rows read as the rationals they are, each result rounded once."""
    first = bisect_left(traj.ts, traj.ts[-1] / 10.0)
    t = np.asarray(traj.ts[first:])
    quantities = _cone_quantities(traj.model_kind, t, np.asarray(traj.ys[first:]))
    u = [Fraction(x) for x in 1.0 / t]
    n, su, suu = len(u), sum(u), sum(x * x for x in u)
    det = n * suu - su * su
    limits, corrections = {}, {}
    for name, series in quantities.items():
        q = [Fraction(x) for x in series]
        sq, suq = sum(q), sum(x * y for x, y in zip(u, q))
        limits[name] = float((suu * sq - su * suq) / det)
        corrections[name] = float((n * suq - su * sq) / det)
    return limits, corrections
