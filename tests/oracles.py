"""Reads and exact evaluations that only the tests need.

No command prunes polynomial sums term by term, packs or decodes a matrix
position, assembles a model's basis matrices, reads one coefficient of a
form, reads the structure constants or the q-norms as ``Fraction`` values,
writes the constants as integer cells over one scale or as an n x n table,
checks the Jacobi identity one triple at a time, projects one bracket per
call, reduces a row set to Hermite normal form by
pairs, reads the Cartan elements as ``Fraction`` coordinates, substitutes
the frame into omega and *omega apart from Omega, sorts isotropy weights,
evaluates the closed-form profile exactly or fits the cone limits by exact
least squares; the tests do, and hold the package to these.
"""

import itertools
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from holoflow.algebra import AlgebraError, LaurentPoly
from holoflow.closed_form import DomainError
from holoflow.homogeneous import (
    _ALGEBRA,
    _SIDE,
    MODEL_SPECS,
    ModelError,
    _algebra,
    _check_jacobi,
    _index,
    _kernel_basis_1x3,
    _place,
    _plane_speed,
    _pullback,
    _q_diagonal,
    _span_weights,
    group_gens,
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


# ---------------------------------------------------------------------------
# Laurent-polynomial arithmetic on term dicts {exponent vector: c} that pops
# each zero sum as it goes, the eager prune each operation kept before the
# constructor dropped zero coefficients
# ---------------------------------------------------------------------------


def _add_pruning(out, terms):
    """Adds the (vec, c) pairs into the dict ``out``, popping each zero sum."""
    for vec, c in terms:
        s = out.get(vec, Fraction(0)) + c
        if s:
            out[vec] = s
        else:
            out.pop(vec, None)
    return out


def add_by_pruning(p, q):
    """The terms of p + q."""
    return _add_pruning(dict(p), q.items())


def mul_by_pruning(p, q):
    """The terms of p * q."""
    products = ((tuple(a + b for a, b in zip(v1, v2)), c1 * c2) for v1, c1 in p.items() for v2, c2 in q.items())
    return _add_pruning({}, products)


def diff_by_pruning(p, idx):
    """The terms of the partial derivative by the symbol in slot ``idx``."""
    lowered = ((vec[:idx] + (vec[idx] - 1,) + vec[idx + 1 :], c * vec[idx]) for vec, c in p.items() if vec[idx])
    return _add_pruning({}, lowered)


def subs_by_pruning(p, images):
    """The terms of p with the symbol in each slot i of ``images`` replaced
    by the terms images[i], on p's own slots; a negative power of a symbol
    takes the inverse of its image, which must be a monomial."""
    out = {}
    for vec, c in p.items():
        piece = {tuple(0 if i in images else e for i, e in enumerate(vec)): c}
        for i, image in images.items():
            e = vec[i]
            if e < 0:
                ((v, q),) = image.items()
                image, e = {tuple(-x for x in v): 1 / q}, -e
            for _ in range(e):
                piece = mul_by_pruning(piece, image)
        _add_pruning(out, piece.items())
    return out


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


# ---------------------------------------------------------------------------
# the coset-model build and classification one call at a time: a projection
# call per bracket and Cartan element, a helper call per q-Gram cell, and
# Fraction Cartan coordinates with every row of ad_x
# ---------------------------------------------------------------------------


def q_diagonal_by_cells(n, q):
    """The norms N_i = q(i, i) of a basis, one call of q per cell of the
    q-Gram matrix's upper triangle in row-major order; raises unless q is
    diagonal and positive there."""
    norms = []
    for i in range(n):
        for j in range(i, n):
            v = q(i, j)
            if i == j:
                if v <= 0:
                    raise ModelError("basis vector with non-positive q-norm")
                norms.append(v)
            elif v:
                raise ModelError(f"basis is not q-orthogonal at pair {(i + 1, j + 1)}")
    return norms


def index_by_dict(coords, norms):
    """q(g_a, S_k) = P_ka N_a for each S_k = sum_a P_ka g_a, listed as
    (k, P_ka N_a) under a in a dict."""
    index = {}
    for k, p in enumerate(coords):
        for a, c in p.items():
            index.setdefault(a, []).append((k, c * norms[a]))
    return index


def project_one(x, index, coords, weights, scale):
    """The nonzero t_k = q(X, S_k) of X = sum_a x_a g_a as {k: t_k} in
    ascending k, or None unless X = sum_k t_k S_k / N_k, checked over the g_a
    as L X = sum_k t_k w_k S_k with a dict residual."""
    t = [0] * len(coords)
    for a, c in x.items():
        for k, v in index.get(a, ()):
            t[k] += c * v
    t = {k: tk for k, tk in enumerate(t) if tk}
    residual = {a: scale * c for a, c in x.items()}
    for k, tk in t.items():
        w = tk * weights[k]
        for a, c in coords[k].items():
            residual[a] = residual.get(a, 0) - w * c
    return None if any(residual.values()) else t


# ---------------------------------------------------------------------------
# structure constants read off a three-form as Fractions, and the integer
# cells over one scale that the build wrote before it stored the three-form
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


def change_of_basis_cells(triples, g_norms, basis):
    """``_change_of_basis`` writing integer cells over one scale:
    ((n, scale, cells), norms), each nonzero t_ijk, i < j < k ascending, kept
    as (i, j, k, L c^k_ij, L c^j_ik, L c^i_jk) with
    c^k_ij L0 = t_ijk D_k (lcm(N) / N_k) (lcm(D) / D_i) (lcm(D) / D_j) over
    L0 = lcm(D)^2 lcm(N), and the cells and L0 divided by their gcd, so the
    scale L is the lcm of the reduced denominators."""
    n, ng = len(basis), len(g_norms)
    dens = [d for d, _ in basis]
    coords = [tuple(p.items()) for _, p in basis]
    index = _index(coords, g_norms)
    gram = []
    for i, p in enumerate(coords):
        t = [0] * n
        for a, c in p:
            for k, v in index[a]:
                t[k] += c * v
        gram.append(t[i:])
    norms = _q_diagonal(gram)
    if n < ng:
        raise ModelError("basis is not closed under brackets")
    weights, lcm_norms = _span_weights(norms)
    lcm_dens = math.lcm(*dens)
    factors = [lcm_dens // d for d in dens]
    dw = [d * w for d, w in zip(dens, weights)]
    cells = []
    for key, v in sorted(_pullback(triples, coords, ng).items()):
        if v:
            p, q, r = key // n // n, key // n % n, key % n
            fp, fq, fr = factors[p], factors[q], factors[r]
            cells.append((p, q, r, v * dw[r] * fp * fq, -v * dw[q] * fp * fr, v * dw[p] * fq * fr))
    scale = lcm_dens * lcm_dens * lcm_norms
    g = math.gcd(scale, *[v for cell in cells for v in cell[3:]])
    cells = tuple((p, q, r, a // g, b // g, c // g) for p, q, r, a, b, c in cells)
    return (n, scale // g, cells), tuple(norms)


def cells_rows(n, cells):
    """The n x n table of integer cells: rows[i][j] holds the pairs
    (k, L c^k_ij) of the nonzero cells in ascending k, and rows[j][i] their
    negatives, as tuples at every level."""
    pairs = {}
    for p, q, r, *vs in cells:
        for (i, j, k), v in zip(((p, q, r), (p, r, q), (q, r, p)), vs):
            pairs.setdefault((i, j), []).append((k, v))
    rows = [[()] * n for _ in range(n)]
    for (i, j), ps in pairs.items():
        rows[i][j] = tuple(sorted(ps))
        rows[j][i] = tuple((k, -v) for k, v in rows[i][j])
    return tuple(map(tuple, rows))


def isotropy_action_by_rows(model):
    """``_check_isotropy_action`` as a scan of the Fraction rows: for each
    isotropy x, tangent i and nonzero c^j_xi of rows[x][i] in that order,
    c^i_xj looked up in rows[x][j]; raises the first failure's message,
    q-skewness checked between the tangent and the module checks."""
    rows = fraction_rows(model.n, structure_table(model))
    same_module = {(i, j) for p in model.modules for i in p for j in p}
    norms = q_norms(model.norms, model.basis)
    for x in model.isotropy_indices:
        for i in range(model.TANGENT):
            for j, cij in rows[x][i].items():
                if j >= model.TANGENT:
                    raise ModelError("isotropy bracket leaves the tangent space")
                if norms[j] * cij != -norms[i] * rows[x][j].get(i, 0):
                    raise ModelError("isotropy action is not q-skew")
                if (i, j) not in same_module:
                    raise ModelError("isotropy action does not preserve the modules")


def maurer_cartan_rows(scale, rows):
    """The terms of each form ``maurer_cartan`` makes, written from an n x n
    table of integer rows: de^i = -sum_{j<k} c^i_jk e^j ^ e^k, the pairs
    (j, k) in row-major order and each pair's i in its row's order."""
    n = len(rows)
    terms = [{} for _ in range(n)]
    for j, row in enumerate(rows):
        for k in range(j + 1, n):
            for i, v in row[k]:
                terms[i][(1 << j) | (1 << k)] = Fraction(-v, scale)
    return terms


def change_of_basis_by_calls(g_form, g_norms, basis):
    """``_change_of_basis`` with a helper call per q-Gram cell and a
    projection call per nonzero bracket, each bracket summed from g's
    constants: the three-form and the norms of the basis over g.  It also
    runs the per-model checks the build leaves to g: each bracket's closure
    residual and the Jacobi identity."""
    n = len(basis)
    coords = [p for _, p in basis]
    index = index_by_dict(coords, g_norms)
    gram = []
    for p in coords:
        t = [0] * n
        for a, c in p.items():
            for k, v in index.get(a, ()):
                t[k] += c * v
        gram.append(t)
    norms = q_diagonal_by_cells(n, lambda i, j: gram[i][j])
    span = _span_weights(norms)
    lcm_g, g_rows = integer_rows(g_form, g_norms)
    form = []
    for i, j in itertools.combinations(range(n), 2):
        b = {}  # lcm_g [S_i, S_j] over g
        for a, x in coords[i].items():
            for c, y in coords[j].items():
                for k, v in g_rows[a][c].items():
                    b[k] = b.get(k, 0) + x * y * v
        if not any(b.values()):
            continue
        t = project_one(b, index, coords, *span)
        if t is None:
            raise ModelError("basis is not closed under brackets")
        for k, tk in t.items():
            assert tk % lcm_g == 0
            if k > j:
                form.append((i, j, k, tk // lcm_g))
    _check_jacobi(tuple(form), norms)
    return tuple(form), tuple(norms)


def hnf_rows_by_pairs(rows):
    """Row Hermite normal form of an integer row set, zero rows last: each
    column's two live rows of least |entry| are reduced one step at a time,
    the live rows found anew at every step."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        if not [r for r in range(pivot_row, len(mat)) if mat[r][col] != 0]:
            continue
        while len([r for r in range(pivot_row, len(mat)) if mat[r][col] != 0]) > 1:
            live = [r for r in range(pivot_row, len(mat)) if mat[r][col] != 0]
            live.sort(key=lambda r: abs(mat[r][col]))
            r0, r1 = live[0], live[1]
            qt = mat[r1][col] // mat[r0][col]
            for c in range(ncols):
                mat[r1][c] -= qt * mat[r0][c]
        r0 = next(r for r in range(pivot_row, len(mat)) if mat[r][col] != 0)
        mat[pivot_row], mat[r0] = mat[r0], mat[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-x for x in mat[pivot_row]]
        for r in range(pivot_row):
            qt = mat[r][col] // mat[pivot_row][col]
            for c in range(ncols):
                mat[r][c] -= qt * mat[pivot_row][c]
        pivot_row += 1
    return [tuple(r) for r in mat]


def fraction_cartan(model):
    """The isotropy Cartan elements as ``Fraction`` coordinates {index: c}:
    M's e10 and e11, Q's projected one call per element onto the isotropy
    generators, whose N_k are the model's norms."""
    if model.kind == "M":
        return [{9: Fraction(1)}, {10: Fraction(1)}]
    dens, coords = zip(*model.basis[model.TANGENT :])
    norms = model.norms[model.TANGENT :]
    index, span = index_by_dict(coords, _algebra(model.kind)[1]), _span_weights(norms)
    out = []
    for x, y, z in _kernel_basis_1x3(*model.indices):
        t = project_one({2: x, 5: y, 8: z}, index, coords, *span)
        if t is None:
            raise ModelError("Cartan element is not in the isotropy algebra")
        out.append({model.TANGENT + k: Fraction(tk * dens[k], 2 * norms[k]) for k, tk in t.items()})
    return out


def ad_all_rows(model, x):
    """ad_x on every basis element as sparse ``Fraction`` rows, for
    ``Fraction`` coordinates x, read off the table; zeros dropped."""
    table = fraction_rows(model.n, structure_table(model))
    rows = [{} for _ in range(model.n)]
    for a, xa in x.items():
        for row, coeffs in zip(rows, table[a]):
            for j, c in coeffs.items():
                row[j] = row.get(j, 0) + xa * c
    return [{j: c for j, c in row.items() if c} for row in rows]


def weights_by_fraction_cartan(model):
    """``isotropy_weights`` on the ``Fraction`` Cartan coordinates with
    every row of ad_x: the same checks in the same order."""
    cartan = [ad_all_rows(model, x) for x in fraction_cartan(model)]
    weights = []
    for plane in model.PLANES:
        vec = []
        for rows in cartan:
            s = Fraction(_plane_speed(model, rows, plane))
            if s.denominator != 1:
                raise ModelError("non-integer weight on the chosen Cartan basis")
            vec.append(s.numerator)
        weights.append(tuple(vec))
    for idx in model.FIXED:
        for rows in cartan:
            if rows[idx]:
                raise ModelError("expected fixed line is not fixed")
    return tuple(weights)


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


def integer_rows(form, norms):
    """(L, rows) of a three-form over a basis of norms N (D = 1), L = lcm(N):
    rows[i][j] = {k: L c^k_ij} with L c^k_ij = t_ijk L / N_k, both orders."""
    n, scale = len(norms), math.lcm(*norms)
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for p, q, r, t in form:
        for i, j, k, v in ((p, q, r, t), (p, r, q, -t), (q, r, p, t)):
            rows[i][j][k] = v * scale // norms[k]
            rows[j][i][k] = -rows[i][j][k]
    return scale, rows


def jacobi_per_triple(form, norms) -> bool:
    """Whether the constants of a three-form over a basis of norms N (D = 1)
    satisfy the Jacobi identity, summing the cyclic sum of every triple
    i < j < k on its own from both orders of the integer rows: the check
    that ``_check_jacobi`` replaced."""
    n, (_, rows) = len(norms), integer_rows(form, norms)
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, cm in rows[a][b].items():
                for fin, cf in rows[mid][c].items():
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
