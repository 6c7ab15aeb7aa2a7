"""Reads and exact evaluations that only the tests need.

No command packs or decodes a matrix position, assembles a model's basis
matrices, reads one coefficient of a form, reads the structure constants,
the q-norms or the Cartan elements as ``Fraction`` values, substitutes the
frame into omega and *omega apart from Omega, checks that a form is basic,
sorts isotropy weights, evaluates the closed-form profile exactly, reads
the profile table off a derived system (``s_form``), writes out the cone
quantities or fits the cone limits by exact least squares; the tests do,
and hold the package to these.

Each reference here is independent of the package's algorithm for what it
checks: the matrix path, ``Fraction`` arithmetic or a defining property.
There is one per quantity: ``model_matrices`` feeds the matrix path that
holds a basis's three-form and norms; ``form_table`` gives the constants
and the Maurer-Cartan forms; ``isotropy_coords`` (with ``fraction_cartan``
for the Cartan elements) the coordinates of an isotropy element;
``ad_all_rows`` ad_x; and ``plane_speeds`` an element's speeds on the
invariant planes, ``weights_by_fraction_cartan`` the weights.  A change
that replaces a code path proves, in that change, that the new path equals
its parent, and leaves no copy of the parent's path here.
"""

import functools
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from holoflow.algebra import AlgebraError, LaurentPoly
from holoflow.closed_form import DomainError
from holoflow.flow import DerivationError
from holoflow.homogeneous import (
    _ALGEBRA,
    _SIDE,
    MODEL_SPECS,
    ModelError,
    _algebra,
    _kernel_basis_1x3,
    _place,
    group_gens,
    invariant_d,
    model_spec,
)
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
    ``_ALGEBRA``, zero entries dropped.  The matrix path on these is the
    reference of a model's change-of-basis build."""
    out = []
    for d, coords in basis:
        s = {}
        for a, c in coords.items():
            for key, (re, im) in _place(*_ALGEBRA[kind][a]).items():
                r0, i0 = s.get(key, (0, 0))
                s[key] = (r0 + c * re, i0 + c * im)
        out.append((d, {key: v for key, v in s.items() if v != (0, 0)}))
    return tuple(out)


# ---------------------------------------------------------------------------
# structure constants read off a three-form as Fractions
# ---------------------------------------------------------------------------


def form_table(form, dens, norms):
    """The exact c^k_ij = t_ijk D_k / (D_i D_j N_k), i < j, of a three-form
    (p, q, r, t_pqr) over X_i = S_i / D_i of norms N_i = q(S_i, S_i), as
    {(i, j): {k: c}}, sparse, the pairs in row-major order and each pair's k
    ascending."""
    table = {}
    for p, q, r, t in form:
        for i, j, k, v in ((p, q, r, t), (p, r, q, -t), (q, r, p, t)):
            table.setdefault((i, j), {})[k] = Fraction(v * dens[k], dens[i] * dens[j] * norms[k])
    return {key: dict(sorted(table[key].items())) for key in sorted(table)}


def structure_table(model):
    """``form_table`` of a model's three-form, denominators and norms."""
    return form_table(model.structure, [d for d, _ in model.basis], model.norms)


def fraction_rows(n, table):
    """rows[i][j] = {k: c^k_ij} for both orders of i, j, from the table of
    i < j; rows[j][i] holds the negatives, in the same order of k."""
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in table.items():
        rows[i][j] = dict(coeffs)
        rows[j][i] = {k: -c for k, c in coeffs.items()}
    return rows


def structure_rows(model):
    """``fraction_rows`` of a model's ``structure_table``, made once while
    the model's three-form, denominators and norms are in use; read only."""
    return _structure_rows(model.n, model.structure, tuple(d for d, _ in model.basis), model.norms)


@functools.lru_cache(maxsize=64)
def _structure_rows(n, form, dens, norms):
    return fraction_rows(n, form_table(form, dens, norms))


def isotropy_coords(model, element):
    """The ``Fraction`` coordinates {k: c_k} over the model's basis of an
    element X = (D, {a: P_a}) over g, c_k = q(X, X_k) / q(X_k, X_k) summed
    over g's norms; raises unless X = sum_k c_k X_k with no tangent k."""
    g_norms = _algebra(model.kind)[1]
    den, x = element
    coords = {}
    for k, (d, p) in enumerate(model.basis):
        c = Fraction(sum(x.get(a, 0) * v * g_norms[a] for a, v in p.items()) * d, den * model.norms[k])
        if c:
            coords[k] = c
    residual = {a: Fraction(v, den) for a, v in x.items()}
    for k, c in coords.items():
        d, p = model.basis[k]
        for a, v in p.items():
            residual[a] = residual.get(a, 0) - c * v / d
    if any(residual.values()) or min(coords, default=model.TANGENT) < model.TANGENT:
        raise ModelError("Cartan element is not in the isotropy algebra")
    return coords


def fraction_cartan(model):
    """The isotropy Cartan elements as ``Fraction`` coordinates {index: c}
    over the model's basis: M's e10 and e11, and for Q the
    ``isotropy_coords`` of each element X = (x g_2 + y g_5 + z g_8) / 2 of
    the HNF kernel basis."""
    if model.kind == "M":
        return [{9: Fraction(1)}, {10: Fraction(1)}]
    return [isotropy_coords(model, (2, {2: x, 5: y, 8: z})) for x, y, z in _kernel_basis_1x3(*model.indices)]


def ad_all_rows(model, x):
    """ad_x on every basis element as sparse ``Fraction`` rows, for
    ``Fraction`` coordinates x, read off the table; zeros dropped."""
    table = structure_rows(model)
    rows = [{} for _ in range(model.n)]
    for a, xa in x.items():
        for row, coeffs in zip(rows, table[a]):
            for j, c in coeffs.items():
                row[j] = row.get(j, 0) + xa * c
    return [{j: c for j, c in row.items() if c} for row in rows]


def plane_speeds(model, elements):
    """The speed c^j_xi, as a ``Fraction``, of each element x given by its
    ``Fraction`` coordinates on each invariant plane (i, j), read from every
    row of ad_x."""
    ads = [ad_all_rows(model, x) for x in elements]
    return tuple(tuple(rows[i].get(j, Fraction(0)) for rows in ads) for i, j in MODEL_SPECS[model.kind].planes)


def weights_by_fraction_cartan(model):
    """The isotropy weights: the ``plane_speeds`` of the ``Fraction`` Cartan
    coordinates."""
    return plane_speeds(model, fraction_cartan(model))


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


def q_norms(norms, basis):
    """The q-norms q(X_i, X_i) = N_i / D_i^2 as Fractions, from the integer
    norms N_i = q(S_i, S_i) of a basis X_i = S_i / D_i given as (D_i, ...)."""
    return tuple(Fraction(v, d * d) for v, (d, _) in zip(norms, basis))


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


def isotropy_indices(model):
    """The indices of the isotropy generators, the basis elements after the
    tangent space."""
    return tuple(range(model.TANGENT, model.n))


def is_basic(form, model) -> bool:
    """True iff the form is horizontal and isotropy-invariant, by the
    definition: no isotropy generator occurs in any stored subset, and the
    Cartan-formula Lie derivative i_x d(form) + d(i_x form) along every
    isotropy generator x vanishes."""
    isotropy = isotropy_indices(model)
    if any(mask >> x & 1 for mask in form.terms for x in isotropy):
        return False
    d_form = invariant_d(form, model)
    return all((d_form.contract(x) + invariant_d(form.contract(x), model)).is_zero for x in isotropy)


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
        return p.initial[MODEL_SPECS[p.model_kind].state_names[-1]] ** 2
    num = p.constant + MODEL_SPECS[p.model_kind].factor * horner(p.anti, s)
    den = horner(p.denom, s)
    if den == 0:
        raise DomainError(f"denominator vanishes at s = {s}")
    return num / den


def s_form(sys):
    """``(((x, m_x, p_x), ...), k)``, the profile table read exactly from ``sys``: with
    x_coll its last symbol, m_x = 2 x x'/x_coll is constant, 2 x_coll' = k + sum(c_x
    x_coll^2/x^2) and p_x = -c_x/m_x is a positive integer, or DerivationError.

    The package states the table once, in each ``ModelSpec``; the tests hold
    the derived systems to it through this read."""
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


# ---------------------------------------------------------------------------
# the cone fit, exactly
# ---------------------------------------------------------------------------


def cone_quantities(kind, t, ys):
    """The cone quantities of each model, written out column by column."""
    if kind == "Q":
        return {
            "a^2/t^2": ys[:, 0] ** 2 / t**2,
            "b^2/t^2": ys[:, 1] ** 2 / t**2,
            "c^2/t^2": ys[:, 2] ** 2 / t**2,
            "|f|/t": abs(ys[:, 3]) / t,
        }
    return {
        "a^2/t^2": ys[:, 0] ** 2 / t**2,
        "b^2/t^2": ys[:, 1] ** 2 / t**2,
        "c/t": abs(ys[:, 2]) / t,
    }




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
