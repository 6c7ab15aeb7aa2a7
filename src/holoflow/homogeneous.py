"""Lie-algebra data for the two coset models and the invariant calculus.

The Q model lives in three copies of su(2), the M model in su(3) + su(2).
Each basis element X, a tuple of complex matrix blocks, is written once as a
pair (D, S): a positive integer D and a sparse Gaussian-integer matrix S with
X = S / D.  The q-products, brackets, projections and the realness,
orthogonality, positivity and closure checks all run on these integers, so
the structure constants are computed without rounding and without rational
matrix arithmetic.  Fractions appear only in the stored q-norms and
structure constants.  The admissibility classification reads the isotropy
action as sparse rows of ad_x, from the exact structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from .algebra import Multivector, SymbolTable


class ModelError(ValueError):
    """Raised for invalid coset-model input."""


# ---------------------------------------------------------------------------
# scaled Gaussian-integer matrices
# ---------------------------------------------------------------------------

# sparse nonzero entries {(block, row, col): (re, im)} with int parts
GaussMatrix = Dict[Tuple[int, int, int], Tuple[int, int]]
# a Lie-algebra element X = S / D as the pair (D, S)
Scaled = Tuple[int, GaussMatrix]

# entry patterns {(row, col): (re, im)} within one block
Pattern = Mapping[Tuple[int, int], Tuple[int, int]]


def _real(i: int, j: int) -> Pattern:
    """E_ij - E_ji."""
    return {(i, j): (1, 0), (j, i): (-1, 0)}


def _imag(i: int, j: int) -> Pattern:
    """i (E_ij + E_ji)."""
    return {(i, j): (0, 1), (j, i): (0, 1)}


def _diag(*d: int) -> Pattern:
    """i diag(d)."""
    return {(p, p): (0, x) for p, x in enumerate(d)}


def _place(d: int, *pieces: Tuple[int, int, Pattern]) -> Scaled:
    """(D, S) with S the sum of c * P placed on block b, over pieces (b, c, P)."""
    s: GaussMatrix = {}
    for b, c, pattern in pieces:
        for (i, j), (re, im) in pattern.items():
            r0, i0 = s.get((b, i, j), (0, 0))
            s[(b, i, j)] = (r0 + c * re, i0 + c * im)
    return d, {key: v for key, v in s.items() if v != (0, 0)}


def _gq(x: GaussMatrix, y: GaussMatrix) -> int:
    """-tr(XY) = -sum X_ij Y_ji over blocks; raises unless it is real."""
    re = im = 0
    for (b, i, j), (xr, xi) in x.items():
        yv = y.get((b, j, i))
        if yv is not None:
            re += xr * yv[0] - xi * yv[1]
            im += xr * yv[1] + xi * yv[0]
    if im:
        raise ModelError("q(X,Y) is not real; basis matrices are not skew-hermitian")
    return -re


def _gbracket(x: GaussMatrix, y: GaussMatrix) -> GaussMatrix:
    """XY - YX, blockwise."""
    out: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    for a, c, sign in ((x, y, 1), (y, x, -1)):
        for (b, i, k), (ar, ai) in a.items():
            for (b2, k2, j), (cr, ci) in c.items():
                if b2 == b and k2 == k:
                    re, im = out.get((b, i, j), (0, 0))
                    out[(b, i, j)] = (
                        re + sign * (ar * cr - ai * ci),
                        im + sign * (ar * ci + ai * cr),
                    )
    return {key: v for key, v in out.items() if v != (0, 0)}


# ---------------------------------------------------------------------------
# model bases
# ---------------------------------------------------------------------------

# 2 sigma_1, 2 sigma_2, 2 sigma_3: the su(2) basis sigma_a of q-norm 1/2,
# scaled to integers
_S1, _S2, _S3 = _imag(0, 1), _real(0, 1), _diag(1, -1)


def _q_basis(k: int, l: int, m: int) -> Tuple[Scaled, ...]:
    return (
        _place(2, (0, 1, _S1)),
        _place(2, (0, 1, _S2)),
        _place(2, (1, 1, _S1)),
        _place(2, (1, 1, _S2)),
        _place(2, (2, 1, _S1)),
        _place(2, (2, 1, _S2)),
        _place(2, (0, k, _S3), (1, l, _S3), (2, m, _S3)),
        _place(2, (0, l, _S3), (1, -k, _S3)),
        _place(2, (0, m * k, _S3), (1, m * l, _S3), (2, -(k * k + l * l), _S3)),
    )


def _m_basis(k: int, l: int) -> Tuple[Scaled, ...]:
    # block 0 is su(3), block 1 is su(2); with t1 = i diag(1/2, 1/2, -1) and
    # t2 = i diag(-1/2, 1/2), e7 = 2k t1 + 2l t2 and e11 = (2l/3) t1 - 2k t2.
    # e7 carries twice the central direction so that the metric coefficient c
    # matches the normalization of the holonomy ODE system and its solutions
    return (
        _place(1, (0, 1, _real(0, 2))),
        _place(1, (0, 1, _imag(0, 2))),
        _place(1, (0, 1, _real(1, 2))),
        _place(1, (0, 1, _imag(1, 2))),
        _place(1, (1, 1, _real(0, 1))),
        _place(1, (1, 1, _imag(0, 1))),
        _place(1, (0, k, _diag(1, 1, -2)), (1, l, _diag(-1, 1))),
        _place(1, (0, 1, _real(0, 1))),
        _place(1, (0, 1, _imag(0, 1))),
        _place(1, (0, 1, _diag(1, -1))),
        _place(3, (0, l, _diag(1, 1, -2)), (1, 3 * k, _diag(1, -1))),
    )


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureTensor:
    """Exact c^k_{ij} for i < j, stored sparsely."""

    n: int
    table: Mapping[Tuple[int, int], Mapping[int, Fraction]]

    @cached_property
    def _both_orders(self) -> Dict[Tuple[int, int], Mapping[int, Fraction]]:
        both = dict(self.table)
        for (i, j), coeffs in self.table.items():
            both[(j, i)] = {k: -v for k, v in coeffs.items()}
        return both

    def bracket_coeffs(self, i: int, j: int) -> Mapping[int, Fraction]:
        """{k: c^k_ij} for either order of i, j; shared, so not to be mutated."""
        return self._both_orders.get((i, j), {})


@dataclass(frozen=True)
class CosetModel:
    """One of Q(k,l,m) or M(k,l) with its exact basis of (D, S) pairs.

    Indices 0..6 span the tangent space; the rest span the isotropy algebra.
    The metric q(X,Y) = -tr(XY) is diagonal on the basis (verified at build
    time), which is what makes exact projection of brackets possible.
    """

    kind: str
    indices: Tuple[int, ...]
    basis: Tuple[Scaled, ...]
    gen_names: Tuple[str, ...]
    q_norms: Tuple[Fraction, ...]
    structure: StructureTensor

    TANGENT = 7

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def isotropy_indices(self) -> Tuple[int, ...]:
        return tuple(range(self.TANGENT, self.n))

    @property
    def label(self) -> str:
        return f"{self.kind}{self.indices}"

    @property
    def symbols(self) -> SymbolTable:
        if self.kind == "Q":
            return SymbolTable(("a", "b", "c", "f")).with_derivatives()
        return SymbolTable(("a", "b", "c")).with_derivatives()

    #: Cartan-invariant two-plane index pairs of the tangent space + fixed line
    PLANES = ((0, 1), (2, 3), (4, 5))
    FIXED = (6,)

    @property
    def modules(self) -> Tuple[Tuple[int, ...], ...]:
        """Irreducible isotropy submodules of the tangent space."""
        if self.kind == "Q":
            return ((0, 1), (2, 3), (4, 5), (6,))
        return ((0, 1, 2, 3), (4, 5), (6,))


def _build_structure(basis: Tuple[Scaled, ...]) -> Tuple[StructureTensor, Tuple[Fraction, ...]]:
    """Structure constants and q-norms of a basis X_i = S_i / D_i.

    With N_i = q(S_i, S_i) the norm is N_i / D_i^2, and the bracket
    [X_i, X_j] = B / (D_i D_j) with B = [S_i, S_j] has the coefficient
    t_k D_k / (D_i D_j N_k) on X_k, where t_k = q(B, S_k).
    """
    n = len(basis)
    mats = [s for _, s in basis]
    # q must be real, diagonal and positive on the basis (q is symmetric, so
    # the upper triangle meets the first failure of a full row-major scan)
    norms_int = []
    for i in range(n):
        for j in range(i, n):
            v = _gq(mats[i], mats[j])
            if i == j:
                if v <= 0:
                    raise ModelError("basis vector with non-positive q-norm")
                norms_int.append(v)
            elif v != 0:
                raise ModelError(f"basis is not q-orthogonal at pair {(i + 1, j + 1)}")
    norms = tuple(Fraction(v, d * d) for v, (d, _) in zip(norms_int, basis))
    lcm_norms = math.lcm(*norms_int)
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = _gbracket(mats[i], mats[j])
            t = [_gq(br, s) for s in mats]
            # closure: lcm(N) B = sum_k t_k (lcm(N) / N_k) S_k exactly
            residual = {key: (lcm_norms * re, lcm_norms * im) for key, (re, im) in br.items()}
            for k, tk in enumerate(t):
                if not tk:
                    continue
                w = tk * (lcm_norms // norms_int[k])
                for key, (re, im) in mats[k].items():
                    r0, i0 = residual.get(key, (0, 0))
                    residual[key] = (r0 - w * re, i0 - w * im)
            if any(v != (0, 0) for v in residual.values()):
                raise ModelError("basis is not closed under brackets")
            dij = basis[i][0] * basis[j][0]
            coeffs = {
                k: Fraction(tk * basis[k][0], dij * norms_int[k])
                for k, tk in enumerate(t)
                if tk
            }
            if coeffs:
                table[(i, j)] = coeffs
    # Jacobi identity on the structure tensor (closure already ties it to
    # the matrices exactly)
    st = StructureTensor(n, table)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc: Dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for mid, cm in st.bracket_coeffs(a, b).items():
                        for fin, cf in st.bracket_coeffs(mid, c).items():
                            acc[fin] = acc.get(fin, Fraction(0)) + cm * cf
                if any(acc.values()):
                    raise ModelError("Jacobi identity failed")
    return st, norms


def _normalize_q(k: int, l: int, m: int) -> Tuple[int, int, int]:
    t = sorted((abs(k), abs(l), abs(m)), reverse=True)
    if t == [0, 0, 0]:
        raise ModelError("(k,l,m) must not all vanish")
    g = math.gcd(math.gcd(t[0], t[1]), t[2])
    return (t[0] // g, t[1] // g, t[2] // g)


def _normalize_m(k: int, l: int) -> Tuple[int, int]:
    a, b = abs(k), abs(l)
    if (a, b) == (0, 0):
        raise ModelError("(k,l) must not both vanish")
    g = math.gcd(a, b)
    return (a // g, b // g)


@lru_cache(maxsize=None)
def q_model(k: int, l: int, m: int) -> CosetModel:
    """SU(2)^3 / U(1)^2 with embedding indices (k,l,m), normalized."""
    nk, nl, nm = _normalize_q(k, l, m)
    basis = _q_basis(nk, nl, nm)
    structure, norms = _build_structure(basis)
    model = CosetModel(
        kind="Q",
        indices=(nk, nl, nm),
        basis=basis,
        gen_names=tuple(f"e{i}" for i in range(1, 10)),
        q_norms=norms,
        structure=structure,
    )
    _check_isotropy_action(model)
    return model


@lru_cache(maxsize=None)
def m_model(k: int, l: int) -> CosetModel:
    """(SU(3) x SU(2)) / (SU(2) x U(1)) with embedding indices (k,l)."""
    nk, nl = _normalize_m(k, l)
    basis = _m_basis(nk, nl)
    structure, norms = _build_structure(basis)
    model = CosetModel(
        kind="M",
        indices=(nk, nl),
        basis=basis,
        gen_names=tuple(f"e{i}" for i in range(1, 12)),
        q_norms=norms,
        structure=structure,
    )
    _check_isotropy_action(model)
    return model


def get_model(kind: str, indices: Sequence[int]) -> CosetModel:
    kind = kind.upper()
    if kind == "Q":
        return q_model(*indices)
    if kind == "M":
        return m_model(*indices)
    raise ModelError(f"unknown model kind {kind!r}")


# an element of the Lie algebra as exact coordinates {basis index: coefficient}
Coords = Mapping[int, Fraction]
# ad_x as sparse rows: [x, e_i] = sum_j rows[i][j] e_j
AdRows = List[Dict[int, Fraction]]


def _ad(model: CosetModel, x: Coords) -> AdRows:
    """ad_x from the structure constants, zeros dropped."""
    st = model.structure
    rows: AdRows = [{} for _ in range(model.n)]
    for a, xa in x.items():
        for i, row in enumerate(rows):
            for j, c in st.bracket_coeffs(a, i).items():
                row[j] = row.get(j, 0) + xa * c
    return [{j: c for j, c in row.items() if c} for row in rows]


def _check_isotropy_action(model: CosetModel) -> None:
    """Isotropy ad-action must be q-skew and block-diagonal on the planes."""
    blocks = [set(p) for p in model.modules]
    for x in model.isotropy_indices:
        rows = _ad(model, {x: Fraction(1)})
        for i in range(model.TANGENT):
            for j, cij in rows[i].items():
                if j >= model.TANGENT:
                    raise ModelError("isotropy bracket leaves the tangent space")
                if model.q_norms[j] * cij != -model.q_norms[i] * rows[j].get(i, 0):
                    raise ModelError("isotropy action is not q-skew")
                if not any(i in b and j in b for b in blocks):
                    raise ModelError("isotropy action does not preserve the modules")


# ---------------------------------------------------------------------------
# invariant exterior derivative and basic forms
# ---------------------------------------------------------------------------


def group_gens(model: CosetModel) -> Tuple[str, ...]:
    """Group coframe generator names with a trailing dt slot."""
    return model.gen_names + ("dt",)


def maurer_cartan(model: CosetModel, gens, dt_index) -> List[Multivector]:
    """de^i = -(1/2) c^i_{jk} e^j ^ e^k for every group generator, as forms
    on the coframe ``gens`` with its dt slot at ``dt_index``.

    The coefficients are the exact rational structure constants.
    """
    out = []
    for i in range(model.n):
        terms: Dict[int, Fraction] = {}
        for (j, k), coeffs in model.structure.table.items():
            c = coeffs.get(i)
            if c:
                terms[(1 << j) | (1 << k)] = -c
        out.append(Multivector(gens, terms, dt_index))
    return out


#: per model and coframe: the Maurer-Cartan forms and the images d(e^I) of
#: the basis monomials met so far, as {mask: rational coefficient}
_D_TABLES: Dict[tuple, Tuple[List[Multivector], Dict[int, Dict[int, Fraction]]]] = {}


def _d_monomial(des: List[Multivector], mask: int, gens, dt_index) -> Dict[int, Fraction]:
    """d(e^I) by the Leibniz rule; d(dt) = 0."""
    idxs = [b for b in range(len(gens)) if mask >> b & 1]
    one = Fraction(1)
    out = Multivector.zero(gens, dt_index)
    for pos, b in enumerate(idxs):
        if b >= len(des):
            continue
        prefix = sum(1 << q for q in idxs[:pos])
        suffix = sum(1 << q for q in idxs[pos + 1 :])
        piece = Multivector(gens, {prefix: one}, dt_index).wedge(des[b])
        piece = piece.wedge(Multivector(gens, {suffix: one}, dt_index))
        out = out - piece if pos % 2 else out + piece
    return out.terms


def invariant_d(form: Multivector, model: CosetModel) -> Multivector:
    """Exterior derivative of an invariant form with constant coefficients.

    d is linear over the coefficients: d(form) = sum of c_I d(e^I), with
    each image d(e^I) computed once per model and coframe.  Coefficients are
    treated as constants; any time dependence (chain rule in dt) is the flow
    module's business.
    """
    key = (model.kind, model.indices, form.gens, form.dt_index)
    tables = _D_TABLES.get(key)
    if tables is None:
        tables = _D_TABLES[key] = (maurer_cartan(model, form.gens, form.dt_index), {})
    des, images = tables
    out: Dict[int, object] = {}
    for mask, coeff in form.terms.items():
        image = images.get(mask)
        if image is None:
            image = images[mask] = _d_monomial(des, mask, form.gens, form.dt_index)
        for target, c in image.items():
            term = coeff * c
            prev = out.get(target)
            out[target] = term if prev is None else prev + term
    return Multivector(form.gens, out, form.dt_index)


def is_basic(form: Multivector, model: CosetModel) -> bool:
    """True iff the form is horizontal and isotropy-invariant.

    Horizontality: no isotropy generator occurs in any stored subset.
    Invariance: the Cartan-formula Lie derivative along every isotropy
    generator vanishes.
    """
    iso_mask = 0
    for i in model.isotropy_indices:
        iso_mask |= 1 << i
    for mask in form.terms:
        if mask & iso_mask:
            return False
    d_form = invariant_d(form, model)
    for x in model.isotropy_indices:
        lie = d_form.contract(x) + invariant_d(form.contract(x), model)
        if not lie.is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# isotropy weights and the admissibility classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightMultiset:
    """Integer weight vectors of the isotropy Cartan on the tangent planes."""

    weights: Tuple[Tuple[int, ...], ...]
    trivial: int

    def canonical(self) -> Tuple[Tuple[int, ...], ...]:
        out = []
        for w in self.weights:
            lead = next((x for x in w if x != 0), 0)
            out.append(tuple(-x for x in w) if lead < 0 else tuple(w))
        return tuple(sorted(out))


def _kernel_basis_1x3(k: int, l: int, m: int) -> List[Tuple[int, int, int]]:
    """HNF basis of the integer solution lattice of k*x + l*y + m*z = 0."""
    row = [k, l, m]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # columns track the transformation
    # column reduction: gcd sweep
    while True:
        nz = [i for i in range(3) if row[i] != 0]
        if len(nz) <= 1:
            break
        piv = min(nz, key=lambda i: abs(row[i]))
        for i in nz:
            if i == piv:
                continue
            qt = row[i] // row[piv]
            row[i] -= qt * row[piv]
            for r in range(3):
                u[r][i] -= qt * u[r][piv]
    kernel = [tuple(u[r][i] for r in range(3)) for i in range(3) if row[i] == 0]
    return _hnf_rows(kernel)


def _hnf_rows(rows: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Row Hermite normal form of a full-rank integer row set (deterministic)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        cand = [r for r in range(pivot_row, len(mat)) if mat[r][col] != 0]
        if not cand:
            continue
        # gcd the candidate rows into one pivot row
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


def _plane_speed(model: CosetModel, rows: AdRows, plane: Tuple[int, int]) -> Fraction:
    """Rotation speed of ad_x (as rows) on one invariant 2-plane (must be skew there)."""
    i, j = plane
    cji = rows[i].get(j, Fraction(0))
    if rows[j].get(i, 0) != -cji:
        raise ModelError("isotropy action is not skew on an invariant plane")
    # residual outside the plane would violate invariance
    if any(k < model.TANGENT and k not in plane for k in (*rows[i], *rows[j])):
        raise ModelError("isotropy action leaves an invariant plane")
    return cji


def _isotropy_coords(model: CosetModel, x: Scaled) -> Dict[int, Fraction]:
    """Exact coordinates of x on the isotropy generators (q-orthogonal).

    Raises unless x lies in their span.
    """
    dx, sx = x
    coords = {}
    residual = {key: (Fraction(re, dx), Fraction(im, dx)) for key, (re, im) in sx.items()}
    for a in model.isotropy_indices:
        da, sa = model.basis[a]
        c = Fraction(_gq(sx, sa), dx * da) / model.q_norms[a]
        if not c:
            continue
        coords[a] = c
        w = c / da
        for key, (re, im) in sa.items():
            r0, i0 = residual.get(key, (0, 0))
            residual[key] = (r0 - w * re, i0 - w * im)
    if any(re or im for re, im in residual.values()):
        raise ModelError("Cartan element is not in the isotropy algebra")
    return coords


def _cartan_elements(model: CosetModel) -> List[Dict[int, Fraction]]:
    if model.kind == "Q":
        return [
            _isotropy_coords(model, _place(2, (0, x, _S3), (1, y, _S3), (2, z, _S3)))
            for x, y, z in _kernel_basis_1x3(*model.indices)
        ]
    # M model: Cartan of su(2) + u(1) spanned by e10, e11
    return [{9: Fraction(1)}, {10: Fraction(1)}]


def isotropy_weights(model: CosetModel) -> WeightMultiset:
    """Weights of the isotropy Cartan on the invariant tangent 2-planes."""
    cartan = [_ad(model, x) for x in _cartan_elements(model)]
    weights = []
    for plane in model.PLANES:
        vec = []
        for rows in cartan:
            s = _plane_speed(model, rows, plane)
            if s.denominator != 1:
                raise ModelError("non-integer weight on the chosen Cartan basis")
            vec.append(int(s))
        weights.append(tuple(vec))
    for idx in model.FIXED:
        for rows in cartan:
            if rows[idx]:
                raise ModelError("expected fixed line is not fixed")
    return WeightMultiset(tuple(weights), trivial=len(model.FIXED))


def _su2_commutant_dim(ads: Sequence[AdRows]) -> int:
    """Dimension of the commutant on V1 = span(e1..e4) of the isotropy su(2),
    given the ad rows of its three generators (M model)."""
    # [X, A] = 0 for the 4 x 4 matrix A of 16 unknowns, A[r][q] in column
    # 4r + q, one integer row per entry of the commutator and generator X
    # (X e_v = sum_u X[u][v] e_u, scaled to integers; scaling X keeps [X, A] = 0)
    system = []
    for rows in ads:
        entries = [(u, v, c) for v in range(4) for u, c in rows[v].items() if u < 4]
        scale = math.lcm(*(c.denominator for _, _, c in entries))
        block = [[0] * 16 for _ in range(16)]  # the row of commutator entry (p, q) is 4p + q
        for u, v, c in entries:
            k = c.numerator * (scale // c.denominator)
            for w in range(4):
                block[4 * u + w][4 * v + w] += k  # (X A)[u][w] has X[u][v] A[v][w]
                block[4 * w + v][4 * w + u] -= k  # (A X)[w][v] has A[w][u] X[u][v]
        system.extend(row for row in block if any(row))
    return 16 - _rank_int_matrix(system)


def _rank_int_matrix(mat: List[List[int]]) -> int:
    """Exact rank of integer rows by fraction-free elimination, in place."""
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        a = prow[col]
        for r in range(rank + 1, len(mat)):
            b = mat[r][col]
            if b:
                row = [a * x - b * y for x, y in zip(mat[r], prow)]
                g = math.gcd(*row)
                mat[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def matches_g2_cartan_weights(model: CosetModel) -> bool:
    """Brute-force weight matcher against the rank-2 Cartan of G2.

    The G2 Cartan acts on three pairwise independent 2-planes with weight
    functionals u, v, u+v and fixes a line; a weight triple is equivalent
    to that pattern iff the weights are nonzero, pairwise independent and
    admit a vanishing +-1 combination.
    """
    if model.kind != "Q":
        raise ModelError("matches_g2_cartan_weights applies to the Q model")
    w = isotropy_weights(model).weights
    if any(all(x == 0 for x in v) for v in w):
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            if w[i][0] * w[j][1] - w[i][1] * w[j][0] == 0:
                return False
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                if all(
                    s1 * w[0][t] + s2 * w[1][t] + s3 * w[2][t] == 0 for t in range(2)
                ):
                    return True
    return False


def matches_u2_weights(model: CosetModel) -> bool:
    """Weight matcher against the u(2) centralizer pattern inside G2.

    Requires: su(2) irreducible on V1 (quaternionic commutant), trivial on
    V2 + V3, and u(1) weight magnitudes in the ratio (mu, mu, 2 mu) with
    mu != 0 across (V1-plane, V1-plane, V2).
    """
    if model.kind != "M":
        raise ModelError("matches_u2_weights applies to the M model")
    su2 = [_ad(model, {x: Fraction(1)}) for x in (7, 8, 9)]
    if any(rows[i] for rows in su2 for i in (4, 5, 6)):
        return False
    if _su2_commutant_dim(su2) != 4:
        return False
    u1 = _ad(model, {10: Fraction(1)})
    s1 = abs(_plane_speed(model, u1, (0, 1)))
    s2 = abs(_plane_speed(model, u1, (2, 3)))
    s3 = abs(_plane_speed(model, u1, (4, 5)))
    return s1 == s2 and s1 != 0 and s3 == 2 * s1


def classify_invariant_g2(model: CosetModel) -> bool:
    """Whether the coset admits an invariant G2-structure.

    Computed from the isotropy weights, not from the closed-form index
    criterion; the two are compared in the property suite.
    """
    if model.kind == "Q":
        return matches_g2_cartan_weights(model)
    return matches_u2_weights(model)
