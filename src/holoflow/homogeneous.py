"""Lie-algebra data for the two coset models and the invariant calculus.

The Q model lives in three copies of su(2), the M model in su(3) + su(2).
Each basis element X, a tuple of complex matrix blocks, is written once as a
pair (D, S): a positive integer D and a sparse Gaussian-integer matrix S with
X = S / D.  The q-products, brackets, projections and the realness,
orthogonality, positivity and closure checks all run on these integers, so
the structure constants are computed without rounding and without rational
matrix arithmetic.  They are stored as integers too, times the lcm of their
denominators, which is what the Jacobi and isotropy checks and the weights
read; their ``Fraction`` view is built on first read.  Fractions appear
otherwise only in the q-norms and the Cartan coordinates.  What the paper
states about each model is one ``ModelSpec`` record in ``MODEL_SPECS``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ._record import field, record
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


def _transposed(mats: Sequence[GaussMatrix]) -> Dict[Tuple[int, int, int], List[Tuple[int, int, int]]]:
    """The entries S_k[b, j, i] of every S_k, listed as (k, re, im) under (b, i, j)."""
    index: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
    for k, s in enumerate(mats):
        for (b, i, j), (re, im) in s.items():
            index.setdefault((b, j, i), []).append((k, re, im))
    return index


def _gq_parts(x: GaussMatrix, transposed: Mapping, n: int) -> Tuple[List[int], List[int]]:
    """The real and imaginary parts of q(X, S_k) for k < n, with
    q(X,Y) = -tr(XY) over blocks, in one pass over X and the transposed S_k."""
    re, im = [0] * n, [0] * n
    for key, (xr, xi) in x.items():
        for k, sr, si in transposed.get(key, ()):
            re[k] -= xr * sr - xi * si
            im[k] += xr * si + xi * sr
    return re, im


_NOT_REAL = "q(X,Y) is not real; basis matrices are not skew-hermitian"


def _gq_all(x: GaussMatrix, transposed: Mapping, n: int) -> List[int]:
    """[q(X, S_k) for k < n]; raises unless real."""
    re, im = _gq_parts(x, transposed, n)
    if any(im):
        raise ModelError(_NOT_REAL)
    return re


def _in_span(
    x: GaussMatrix, t: Sequence[int], mats: Sequence[GaussMatrix], weights: Sequence[int], scale: int
) -> bool:
    """Whether X = sum_k t_k S_k / N_k, checked on integers as
    L X = sum_k t_k w_k S_k with L = lcm(N) and the weights w_k = L / N_k."""
    residual = {key: (scale * re, scale * im) for key, (re, im) in x.items()}
    for tk, s, wk in zip(t, mats, weights):
        w = tk * wk
        for key, (re, im) in s.items() if tk else ():
            r0, i0 = residual.get(key, (0, 0))
            residual[key] = (r0 - w * re, i0 - w * im)
    return not any(v != (0, 0) for v in residual.values())


def _span_weights(norms: Sequence[int]) -> Tuple[List[int], int]:
    """([L / N_k], L) for the lcm L of the integer norms N_k, as ``_in_span`` reads them."""
    scale = math.lcm(*norms)
    return [scale // nk for nk in norms], scale


def _gbracket(x: Mapping, y: Mapping) -> GaussMatrix:
    """XY - YX, blockwise, from X and Y by rows {(block, row): [(col, (re, im))]}:
    each entry A_ik meets the row k of the other factor."""
    out: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
    for a, c, sign in ((x, y, 1), (y, x, -1)):
        for (b, i), row in a.items():
            for k, (ar, ai) in row:
                for j, (cr, ci) in c.get((b, k), ()):
                    re, im = out.get((b, i, j), (0, 0))
                    out[(b, i, j)] = (re + sign * (ar * cr - ai * ci), im + sign * (ar * ci + ai * cr))
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


# rows[i][j]: the pairs (k, L c^k_ij) for either order of i, j; () where [e_i, e_j] = 0
IntegerRows = Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]
# the constants c^k_ij = num / den of the pairs i < j, as (i, j, [(k, num, den)])
Brackets = Sequence[Tuple[int, int, Sequence[Tuple[int, int, int]]]]


def _integer_rows(n: int, brackets: Brackets) -> Tuple[int, IntegerRows]:
    """(L, rows): L the lcm of the denominators, rows[i][j] the pairs (k, L c^k_ij),
    as tuples at every level."""
    scale = math.lcm(*(den for _, _, consts in brackets for _, _, den in consts))
    rows = [[()] * n for _ in range(n)]
    for i, j, consts in brackets:
        rows[i][j] = tuple((k, num * (scale // den)) for k, num, den in consts)
        rows[j][i] = tuple((k, -v) for k, v in rows[i][j])
    return scale, tuple(map(tuple, rows))


@record(frozen=True)
class StructureTensor:
    """Exact c^k_{ij} as integers over one denominator: ``scale`` is the lcm
    L of their reduced denominators, and ``rows`` holds L c^k_ij."""

    n: int
    scale: int
    rows: IntegerRows

    @classmethod
    def from_table(cls, n: int, table: Mapping[Tuple[int, int], Mapping[int, Fraction]]) -> "StructureTensor":
        """The tensor of the exact constants {(i, j): {k: c^k_ij}} for i < j."""
        brackets = [(i, j, [(k, c.numerator, c.denominator) for k, c in cs.items()]) for (i, j), cs in table.items()]
        return cls(n, *_integer_rows(n, brackets))

    @cached_property
    def table(self) -> Mapping[Tuple[int, int], Mapping[int, Fraction]]:
        """The exact c^k_ij for i < j as {(i, j): {k: c}}, sparse and
        read-only at both levels, built on first read."""
        return MappingProxyType({
            (i, j): MappingProxyType({k: Fraction(v, self.scale) for k, v in row[j]})
            for i, row in enumerate(self.rows)
            for j in range(i + 1, self.n)
            if row[j]
        })


@record(frozen=True)
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
        return SymbolTable(MODEL_SPECS[self.kind].state_names).with_derivatives()

    #: Cartan-invariant two-plane index pairs of the tangent space + fixed line
    PLANES = ((0, 1), (2, 3), (4, 5))
    FIXED = (6,)

    @property
    def modules(self) -> Tuple[Tuple[int, ...], ...]:
        """Irreducible isotropy submodules of the tangent space."""
        return MODEL_SPECS[self.kind].modules

    @cached_property
    def d_tables(self) -> Dict[tuple, Tuple[List[Multivector], Dict[int, Dict[int, Fraction]]]]:
        """Per coframe ``(gens, dt_index)``: the Maurer-Cartan forms and the d(e^I) met so far."""
        return {}


def _build_structure(basis: Tuple[Scaled, ...]) -> Tuple[StructureTensor, Tuple[Fraction, ...]]:
    """Structure constants and q-norms of a basis X_i = S_i / D_i.

    With N_i = q(S_i, S_i) the norm is N_i / D_i^2, and the bracket
    [X_i, X_j] = B / (D_i D_j) with B = [S_i, S_j] has the coefficient
    t_k D_k / (D_i D_j N_k) on X_k, where t_k = q(B, S_k).
    """
    n = len(basis)
    dens = [d for d, _ in basis]
    mats = [s for _, s in basis]
    rows: List[Dict[Tuple[int, int], List[Tuple[int, Tuple[int, int]]]]] = [{} for _ in mats]
    for r, s in zip(rows, mats):
        for (b, i, j), v in s.items():
            r.setdefault((b, i), []).append((j, v))
    index = _transposed(mats)
    # q must be real, diagonal and positive on the basis, row by row; q is
    # symmetric, so the upper triangle in row-major order meets the first
    # failure of a full row-major scan
    norms_int = []
    for i in range(n):
        re, im = _gq_parts(mats[i], index, n)
        for j in range(i, n):
            if im[j]:
                raise ModelError(_NOT_REAL)
            if i == j:
                if re[j] <= 0:
                    raise ModelError("basis vector with non-positive q-norm")
                norms_int.append(re[j])
            elif re[j]:
                raise ModelError(f"basis is not q-orthogonal at pair {(i + 1, j + 1)}")
    norms = tuple(Fraction(v, d * d) for v, d in zip(norms_int, dens))
    span = _span_weights(norms_int)
    # each constant as a reduced fraction
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            br = _gbracket(rows[i], rows[j])
            if not br:  # zero is real and in the span, with no constants
                continue
            t = _gq_all(br, index, n)
            if not _in_span(br, t, mats, *span):
                raise ModelError("basis is not closed under brackets")
            dij = dens[i] * dens[j]
            consts = []
            for k, tk in enumerate(t):
                if tk:
                    num, den = tk * dens[k], dij * norms_int[k]
                    g = math.gcd(num, den)
                    consts.append((k, num // g, den // g))
            if consts:
                brackets.append((i, j, consts))
    structure = StructureTensor(n, *_integer_rows(n, brackets))
    _check_jacobi(structure)
    return structure, norms


def _check_jacobi(structure: StructureTensor) -> None:
    """Jacobi identity on the integer table; closure implies it, so this guards the table."""
    n, rows = structure.n, structure.rows
    for i, j, k in itertools.combinations(range(n), 3):
        acc = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, cm in rows[a][b]:
                for fin, cf in rows[mid][c]:
                    acc[fin] += cm * cf
        if any(acc):
            raise ModelError("Jacobi identity failed")


def _normalized(indices: Sequence[int], message: str) -> Tuple[int, ...]:
    """The absolute indices divided by their gcd; raises ``message`` if all vanish."""
    t = tuple(abs(x) for x in indices)
    g = math.gcd(*t)
    if g == 0:
        raise ModelError(message)
    return tuple(x // g for x in t)


def _model(kind: str, indices: Tuple[int, ...], basis: Tuple[Scaled, ...]) -> CosetModel:
    """The checked model of ``kind`` on the basis of its normalized indices."""
    structure, norms = _build_structure(basis)
    model = CosetModel(
        kind=kind,
        indices=indices,
        basis=basis,
        gen_names=tuple(f"e{i}" for i in range(1, len(basis) + 1)),
        q_norms=norms,
        structure=structure,
    )
    _check_isotropy_action(model)
    return model


@lru_cache(maxsize=None)
def q_model(k: int, l: int, m: int) -> CosetModel:
    """SU(2)^3 / U(1)^2 with embedding indices (k,l,m), normalized."""
    indices = tuple(sorted(_normalized((k, l, m), "(k,l,m) must not all vanish"), reverse=True))
    return _model("Q", indices, _q_basis(*indices))


@lru_cache(maxsize=None)
def m_model(k: int, l: int) -> CosetModel:
    """(SU(3) x SU(2)) / (SU(2) x U(1)) with embedding indices (k,l)."""
    indices = _normalized((k, l), "(k,l) must not both vanish")
    return _model("M", indices, _m_basis(*indices))


def get_model(kind: str, indices: Sequence[int]) -> CosetModel:
    # the constructors are looked up per call, so wrappers installed on them are used
    return {"Q": q_model, "M": m_model}[model_spec(kind).kind](*indices)


# an element of the Lie algebra as exact coordinates {basis index: coefficient}
Coords = Mapping[int, Fraction]
# L ad_x as sparse integer rows for a denominator L: L [x, e_i] = sum_j rows[i][j] e_j
AdRows = List[Dict[int, int]]


def _ad(model: CosetModel, x: Coords) -> Tuple[AdRows, int]:
    """(rows, L) for ad_x, from the integer structure table, zeros dropped."""
    scale, table = model.structure.scale, model.structure.rows
    den = math.lcm(*(xa.denominator for xa in x.values()))
    rows: AdRows = [{} for _ in range(model.n)]
    for a, xa in x.items():
        w = xa.numerator * (den // xa.denominator)
        for row, pairs in zip(rows, table[a]):
            for j, c in pairs:
                row[j] = row.get(j, 0) + w * c
    return [{j: c for j, c in row.items() if c} for row in rows], scale * den


def _check_isotropy_action(model: CosetModel) -> None:
    """Isotropy ad-action must be q-skew and block-diagonal on the planes."""
    blocks = [set(p) for p in model.modules]
    scale = math.lcm(*(q.denominator for q in model.q_norms))
    norms = [q.numerator * (scale // q.denominator) for q in model.q_norms]
    for x in model.isotropy_indices:
        rows, _ = _ad(model, {x: 1})
        for i in range(model.TANGENT):
            for j, cij in rows[i].items():
                if j >= model.TANGENT:
                    raise ModelError("isotropy bracket leaves the tangent space")
                if norms[j] * cij != -norms[i] * rows[j].get(i, 0):
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
    key = (form.gens, form.dt_index)
    tables = model.d_tables.get(key)
    if tables is None:
        tables = model.d_tables[key] = (maurer_cartan(model, form.gens, form.dt_index), {})
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


@record(frozen=True)
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
    """HNF basis of the integer solution lattice of k*x + l*y + m*z = 0.

    For primitive (k, l, m) the lattice is spanned by the cross products of
    (k, l, m) with the unit vectors; their HNF has one zero row, dropped.
    """
    return [row for row in _hnf_rows([(l, -k, 0), (m, 0, -k), (0, m, -l)]) if any(row)]


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


def _plane_speed(model: CosetModel, rows: AdRows, plane: Tuple[int, int]) -> int:
    """Rotation speed of L ad_x (as rows) on one invariant 2-plane (must be skew there)."""
    i, j = plane
    cji = rows[i].get(j, 0)
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
    iso = model.isotropy_indices
    mats = [model.basis[a][1] for a in iso]
    norms = [int(model.q_norms[a] * model.basis[a][0] ** 2) for a in iso]
    t = _gq_all(sx, _transposed(mats), len(iso))
    if not _in_span(sx, t, mats, *_span_weights(norms)):
        raise ModelError("Cartan element is not in the isotropy algebra")
    # S / D_x = sum_k t_k S_k / (D_x N_k) and S_k = D_k X_k
    return {a: Fraction(tk * model.basis[a][0], dx * nk) for a, tk, nk in zip(iso, t, norms) if tk}


def _q_cartan(model: CosetModel) -> List[Coords]:
    """The Cartan of U(1)^2 in Q(k,l,m): (x, y, z) sigma_3 on the three
    blocks, (x, y, z) over the HNF basis of k x + l y + m z = 0."""
    return [
        _isotropy_coords(model, _place(2, (0, x, _S3), (1, y, _S3), (2, z, _S3)))
        for x, y, z in _kernel_basis_1x3(*model.indices)
    ]


def isotropy_weights(model: CosetModel) -> WeightMultiset:
    """Weights of the isotropy Cartan on the invariant tangent 2-planes."""
    cartan = [_ad(model, x) for x in MODEL_SPECS[model.kind].cartan(model)]
    weights = []
    for plane in model.PLANES:
        vec = []
        for rows, den in cartan:
            s = _plane_speed(model, rows, plane)
            if s % den:
                raise ModelError("non-integer weight on the chosen Cartan basis")
            vec.append(s // den)
        weights.append(tuple(vec))
    for idx in model.FIXED:
        for rows, _ in cartan:
            if rows[idx]:
                raise ModelError("expected fixed line is not fixed")
    return WeightMultiset(tuple(weights), trivial=len(model.FIXED))


def classify_invariant_g2(model: CosetModel) -> bool:
    """Whether the coset admits an invariant G2-structure.

    The G2 Cartan acts on three pairwise independent 2-planes with weight
    functionals u, v, u+v and fixes a line; a weight triple matches that
    pattern iff its weights are pairwise independent (so nonzero) and admit
    a vanishing +-1 combination.  On M(k,l) the weights of e10, e11 are
    (1, l), (-1, l), (0, 2k), which match iff k = l = 1.  Computed from the
    isotropy weights, not from the closed-form index criterion; the two are
    compared in the property suite.
    """
    w = isotropy_weights(model).weights
    if any(u[0] * v[1] == u[1] * v[0] for u, v in itertools.combinations(w, 2)):
        return False
    return any(all(a + s * b + t * c == 0 for a, b, c in zip(*w)) for s in (1, -1) for t in (1, -1))


# ---------------------------------------------------------------------------
# the two principal orbits, one record each
# ---------------------------------------------------------------------------


@record(frozen=True)
class CatalogRow:
    """One singular orbit, by isotropy group.  An admissible row names its
    orbit, the coefficients that collapse there, the slopes that smoothness
    requires of them and the geometry behind those slopes; the other rows
    give no cohomogeneity-one space.  The vertical coefficient's slope is
    left out: the circle action fixes it (``verify.orbit_catalog``)."""

    isotropy: str
    collapsing_sphere: str
    singular_orbit: str
    orbit_key: Optional[str] = None  # None for excluded rows
    collapsing: Tuple[str, ...] = ()
    required: Mapping[str, Fraction] = field(default_factory=dict)
    geometry: str = ""
    note: str = ""


@record(frozen=True)
class ModelSpec:
    """What the paper states about one principal orbit.  The rest of what
    differs between the models is computed from it: the cone limits, the
    vertical smoothness slopes, the primitive's name and the collapsing
    coefficients of each orbit."""

    kind: str
    state_names: Tuple[str, ...]  # metric coefficients in state order, the vertical one last
    index_names: Tuple[str, ...]  # embedding indices
    modules: Tuple[Tuple[int, ...], ...]  # isotropy submodules of the tangent space, one per state name
    frame_map: Mapping[int, Tuple[int, str]]  # canonical slot -> (generator index, scale symbol)
    rotation_multiples: Tuple[int, ...]  # per plane, of the fundamental angle unit
    fundamental_unit: Fraction
    family_weight: int  # the rotation family's one moving Fourier weight
    catalog: Tuple[CatalogRow, ...]  # the singular orbits
    affine: Tuple[Tuple[str, Fraction, int], ...]  # closed form: (x, m_x, p_x) per affine square
    factor: Fraction  # closed form: the factor k of A
    cartan: Callable[[CosetModel], List[Coords]]  # the isotropy Cartan elements
    circle_period: Fraction  # of the vertical circle, in multiples of pi
    circle_lattice: Tuple[Fraction, ...]  # generates its parameters in the isotropy group
    cone_label: str  # the vertical coefficient's cone quantity

    @property
    def primitive_name(self) -> str:
        """The primitive integrates the last state symbol."""
        return self.state_names[-1].upper()


def _circle_step(period: Fraction, w: Sequence[int], u1: Sequence[int], u2: Sequence[int]) -> Fraction:
    """The least theta > 0 with exp(theta w) in the torus spanned by u1, u2,
    for a circle of the given period: with theta = period tau, tau w must
    lie in span(u1, u2) + Z^3, so it pairs integrally with the primitive
    normal of the span, the cross product u1 x u2 over its content."""
    normal = [u1[i - 2] * u2[i - 1] - u1[i - 1] * u2[i - 2] for i in range(3)]
    return period / (abs(sum(wi * ni for wi, ni in zip(w, normal))) // math.gcd(*normal))


_NO_SPACE = "no cohomogeneity-one space"

MODEL_SPECS: Dict[str, ModelSpec] = {
    spec.kind: spec
    for spec in (
        ModelSpec(
            kind="Q", state_names=("a", "b", "c", "f"), index_names=("k", "l", "m"),
            modules=((0, 1), (2, 3), (4, 5), (6,)),
            frame_map={1: (7, "f"), 2: (1, "a"), 3: (2, "a"), 4: (3, "b"), 5: (4, "b"), 6: (6, "c"), 7: (5, "c")},
            rotation_multiples=(1, 1, 1), fundamental_unit=Fraction(1), family_weight=3,
            catalog=(
                CatalogRow("U(1)^3", "S^1", "S^2 x S^2 x S^2", "s2xs2xs2", ("f",), {},
                           "collapsing circle of length (4 pi / 3) |f|"),
                CatalogRow("U(1)^2 x SU(2)", "S^3", "S^2 x S^2", "s2xs2", ("a", "f"), {"a": Fraction(1, 2)},
                           "collapsing 3-sphere; great circles along e1 and e7"),
                CatalogRow("U(1) x SU(2)^2", "not a sphere quotient", "S^2", note=_NO_SPACE),
                CatalogRow("SU(2)^3", "not a sphere quotient", "point", note=_NO_SPACE),
            ),
            affine=(("a", Fraction(-1, 3), 1), ("b", Fraction(-1, 3), 1), ("c", Fraction(-1, 3), 1)),
            factor=Fraction(-6), cartan=_q_cartan, cone_label="|f|/t",
            # exp(theta e7), (1, 1, 1) on the three sigma_3, has period 4 pi; the
            # isotropy torus is spanned by (1, -1, 0) and (1, 1, -2)
            circle_period=Fraction(4),
            circle_lattice=(_circle_step(Fraction(4), (1, 1, 1), (1, -1, 0), (1, 1, -2)),),
        ),
        ModelSpec(
            kind="M", state_names=("a", "b", "c"), index_names=("k", "l"),
            modules=((0, 1, 2, 3), (4, 5), (6,)),
            frame_map={1: (7, "c"), 2: (6, "b"), 3: (5, "b"), 4: (1, "a"), 5: (2, "a"), 6: (4, "a"), 7: (3, "a")},
            rotation_multiples=(3, 3, -2), fundamental_unit=Fraction(1, 2), family_weight=8,
            catalog=(
                CatalogRow("U(2) x U(1)", "S^1", "CP^2 x S^2", "cp2xs2", ("c",), {},
                           "collapsing circle of length (pi / 2) |c| in display units"),
                CatalogRow("U(2) x SU(2)", "S^3", "CP^2", "cp2", ("b", "c"), {"b": Fraction(1)},
                           "collapsing 3-sphere; sectional curvature 1/t^2 condition"),
                CatalogRow("SU(3) x U(1)", "S^5/Z_3", "S^2", "s2", ("a", "c"), {"a": Fraction(1)},
                           "collapsing S^5/Z_3; orbifold smoothness condition", "orbifold, not a manifold"),
                CatalogRow("SU(3) x SU(2)", "not a sphere quotient", "point", note=_NO_SPACE),
            ),
            affine=(("a", Fraction(3, 4), 2), ("b", Fraction(1, 2), 1)),
            factor=Fraction(16), cone_label="c/t",
            cartan=lambda model: [{9: Fraction(1)}, {10: Fraction(1)}],  # e10, e11: su(2) + u(1)
            # the central generator (the displayed one, half of e7) has period
            # 4 pi and lies in SU(2) x U(1) at the multiples of pi and 3 pi / 2
            circle_period=Fraction(4), circle_lattice=(Fraction(1), Fraction(3, 2)),
        ),
    )
}


def model_spec(kind: Union[str, CosetModel], error: type = ModelError) -> ModelSpec:
    """The record of a model, or of a model kind in either case; raises
    ``error`` for an unknown kind."""
    key = kind.kind if isinstance(kind, CosetModel) else str(kind).upper()
    spec = MODEL_SPECS.get(key)
    if spec is None:
        raise error(f"unknown model kind {key!r}")
    return spec
