"""Lie-algebra data for the two coset models and the invariant calculus.

The Q model lives in g = su(2)^3, the M model in g = su(3) + su(2).  Each
kind's g has one basis g_a of sparse Gaussian-integer matrices, the entry
(b, i, j) keyed by the int (3 b + i) 3 + j; ``_build_structure`` takes g's
matrices and finds g's integer three-form G_abc = q([g_a, g_b], g_c) and
norms once per kind and process.  A model's basis element is the pair
(D, {a: P_a}) of its integer coordinates over the g_a, X = sum_a P_a g_a / D,
so its norms are sums over g's norms, its structure the pullback of G, and
no model makes a matrix or a bracket.  A model stores the integer norms
N = q(S, S) and the three-form t_ijk = q([S_i, S_j], S_k) of S = D X, as g
does, and ``_constants`` alone reads structure constants off them.  The
isotropy Cartan elements are coordinates over g too, and ``_ad`` reads their
action on the tangent space straight from G; a model's only Fractions are
its Maurer-Cartan forms.  What the paper states about each model is one
``ModelSpec`` record in ``MODEL_SPECS``.

Nothing here checks g or a model basis at run time.  g's data are fixed, and
a model's coordinates are polynomials in its indices, so the facts the build
rests on are proven once, in ``tests/test_homogeneous.py``, for every index
tuple: every product q of g's matrices is real, g's q-Gram matrix is
diagonal and positive and its brackets close; each model basis is
q-orthogonal with norms that vanish at no normalized index tuple, and has
dim g elements; its isotropy algebra keeps the tangent space and each
module; the spec's Cartan elements lie in the isotropy algebra and turn each
invariant plane into itself, skew, with integer weights.  What is checked at
run time is outside input: the indices (``_normalized``, ``get_model``), a
form's coframe (``invariant_d``) and a model kind (``model_spec``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ._record import field, record

# ``algebra`` is imported inside the exterior-calculus functions that use it,
# so building and classifying a model never loads it
if TYPE_CHECKING:
    from .algebra import Multivector, SymbolTable


class ModelError(ValueError):
    """Raised for invalid coset-model input."""


# ---------------------------------------------------------------------------
# scaled Gaussian-integer matrices
# ---------------------------------------------------------------------------

# every block is a square of side at most _SIDE, su(3)'s being the largest:
# the entry (b, i, j) is keyed by the int (b * _SIDE + i) * _SIDE + j and the
# row (b, i) by b * _SIDE + i, so key // _SIDE is an entry's row and
# key % _SIDE its column
_SIDE = 3

# sparse nonzero entries {packed (block, row, col): (re, im)} with int parts
GaussMatrix = Dict[int, Tuple[int, int]]

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


def _place(b: int, pattern: Pattern) -> GaussMatrix:
    """The pattern placed on block b."""
    return {(b * _SIDE + i) * _SIDE + j: v for (i, j), v in pattern.items()}


def _q(x: GaussMatrix, y: GaussMatrix) -> int:
    """q(X,Y) = -tr(XY) over blocks, each X_ij meeting Y_ji: the real part,
    which is all of it on g's skew-hermitian matrices."""
    re = 0
    for key, (xr, xi) in x.items():
        bi, j = divmod(key, _SIDE)
        yr, yi = y.get((bi - bi % _SIDE + j) * _SIDE + bi % _SIDE, (0, 0))
        re -= xr * yr - xi * yi
    return re


def _gbracket(x: GaussMatrix, y: GaussMatrix) -> GaussMatrix:
    """XY - YX, blockwise: each A_ik meets the row k of the other factor, bi - bi % _SIDE + k."""
    out: GaussMatrix = {}
    for a, c, sign in ((x, y, 1), (y, x, -1)):
        for ka, (ar, ai) in a.items():
            bi, k = divmod(ka, _SIDE)
            for kc, (cr, ci) in c.items():
                if kc // _SIDE == bi - bi % _SIDE + k:
                    key = bi * _SIDE + kc % _SIDE
                    re, im = out.get(key, (0, 0))
                    out[key] = (re + sign * (ar * cr - ai * ci), im + sign * (ar * ci + ai * cr))
    return {key: v for key, v in out.items() if v != (0, 0)}


def _index(coords: Sequence[Sequence[Tuple[int, int]]], ng: int) -> List[List[Tuple[int, int]]]:
    """The pairs (k, P_ka) of the S_k = sum_a P_ka g_a, each given by its
    (a, P_ka) pairs, listed under a, for every a < ng."""
    index: List[List[Tuple[int, int]]] = [[] for _ in range(ng)]
    for k, p in enumerate(coords):
        for a, c in p:
            index[a].append((k, c))
    return index


# ---------------------------------------------------------------------------
# model bases
# ---------------------------------------------------------------------------

# 2 sigma_1, 2 sigma_2, 2 sigma_3: the su(2) basis sigma_a of q-norm 1/2,
# scaled to integers
_S1, _S2, _S3 = _imag(0, 1), _real(0, 1), _diag(1, -1)

# the basis g_a of each kind's Lie algebra, a pattern on a block each: the
# _S1, _S2, _S3 of each su(2) of Q; for M su(3)'s real and imaginary E_02,
# E_12, E_01, i diag(1, 1, -2) and i diag(1, -1), then su(2)'s
_ALGEBRA = {
    "Q": [(b, s) for b in range(3) for s in (_S1, _S2, _S3)],
    "M": [(0, f(i, j)) for i, j in ((0, 2), (1, 2), (0, 1)) for f in (_real, _imag)]
    + [(0, _diag(1, 1, -2)), (0, _diag(1, -1)), (1, _real(0, 1)), (1, _imag(0, 1)), (1, _diag(1, -1))],
}

# an element X = sum_a P_a g_a / D over g's basis g_a as the pair (D, {a: P_a}):
# a model's basis element or an isotropy Cartan element
Coordinates = Tuple[int, Dict[int, int]]


def _q_basis(k: int, l: int, m: int) -> Tuple[Coordinates, ...]:
    # g_{3b}, g_{3b+1}, g_{3b+2} are 2 sigma_1, 2 sigma_2, 2 sigma_3 on block b
    return (
        *((2, {a: 1}) for a in (0, 1, 3, 4, 6, 7)),
        (2, {2: k, 5: l, 8: m}),
        (2, {2: l, 5: -k}),
        (2, {2: m * k, 5: m * l, 8: -(k * k + l * l)}),
    )


def _m_basis(k: int, l: int) -> Tuple[Coordinates, ...]:
    # block 0 is su(3), block 1 is su(2); with t1 = i diag(1/2, 1/2, -1) and
    # t2 = i diag(-1/2, 1/2), e7 = 2k t1 + 2l t2 and e11 = (2l/3) t1 - 2k t2.
    # e7 carries twice the central direction so that the metric coefficient c
    # matches the normalization of the holonomy ODE system and its solutions
    return (
        *((1, {a: 1}) for a in (0, 1, 2, 3, 8, 9)),
        (1, {6: k, 10: -l}),
        *((1, {a: 1}) for a in (4, 5, 7)),
        (3, {6: l, 10: 3 * k}),
    )


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


# a basis's nonzero three-form t_ijk = q([S_i, S_j], S_k) as sorted triples
# (i, j, k, t_ijk), i < j < k, ascending: g's G_abc and each model's
ThreeForm = Tuple[Tuple[int, int, int, int], ...]


@record(frozen=True)
class CosetModel:
    """One of Q(k,l,m) or M(k,l) with its exact basis: each element is the
    pair (D, {a: P_a}) of its integer coordinates over the basis g_a of its
    kind's Lie algebra, X = sum_a P_a g_a / D; ``norms`` holds the
    integers N = q(S, S) of S = D X, so q(X, X) = N / D^2, and ``structure``
    the three-form of the S, from which ``_constants`` reads c^k_ij.

    Indices 0..6 span the tangent space; the rest span the isotropy algebra.
    The metric q(X,Y) = -tr(XY) is diagonal and positive on the basis, so the
    basis is a q-orthogonal basis of g: proven for every index tuple in the
    tests, not checked at build time.
    """

    kind: str
    indices: Tuple[int, ...]
    basis: Tuple[Coordinates, ...]
    gen_names: Tuple[str, ...]
    norms: Tuple[int, ...]
    structure: ThreeForm

    TANGENT = 7

    @property
    def n(self) -> int:
        return len(self.basis)

    @property
    def label(self) -> str:
        return f"{self.kind}{self.indices}"

    @property
    def symbols(self) -> SymbolTable:
        from .algebra import SymbolTable

        return SymbolTable(MODEL_SPECS[self.kind].state_names).with_derivatives()

    @property
    def modules(self) -> Tuple[Tuple[int, ...], ...]:
        """The tangent modules of the paper's metric ansatz, one per state
        name, whose coefficient scales the metric on that module.  They need
        not be irreducible: on M(0, l) the Cartan fixes e5 and e6."""
        return MODEL_SPECS[self.kind].modules

    @cached_property
    def d_tables(self) -> Tuple[List[Multivector], Dict[int, Dict[int, Fraction]]]:
        """The Maurer-Cartan forms on ``group_gens(self)`` and the d(e^I) met so far."""
        return maurer_cartan(self), {}

    @cached_property
    def derivation(self):
        """``flow.Derivation`` of this model; its pieces are built on first read."""
        from .flow import Derivation  # only what derives loads it

        return Derivation(self)


def _build_structure(mats: Sequence[GaussMatrix]) -> Tuple[ThreeForm, Tuple[int, ...]]:
    """The three-form, as ``_change_of_basis`` reads it, and the norms
    N_i = q(S_i, S_i) of a basis S_i of Gaussian-integer matrices.
    G_ijk = q([S_i, S_j], S_k) is totally antisymmetric, the trace being
    cyclic, so only i < j < k is read.  On g's basis, where the tests prove q
    real, diagonal and positive and every bracket closed, the G_ijk / N_k are
    the coordinates of commutators, which satisfy the Jacobi identity."""
    n = len(mats)
    triples: List[Tuple[int, int, int, int]] = []
    for i, j in itertools.combinations(range(n), 2):
        br = _gbracket(mats[i], mats[j])
        triples += ((i, j, k, t) for k in range(j + 1, n) for t in [_q(br, mats[k])] if t)
    return tuple(triples), tuple(_q(s, s) for s in mats)


def _change_of_basis(
    triples: ThreeForm, g_norms: Sequence[int], basis: Sequence[Coordinates]
) -> Tuple[ThreeForm, Tuple[int, ...]]:
    """The three-form and norms N_i of S_i = sum_a P_ia g_a, X_i = S_i / D_i,
    over a q-orthogonal basis g_a of norms N_a and three-form ``triples``:
    N_i = sum_a P_ia^2 N_a, and t_ijk from ``_pullback``.  Each model basis is
    q-orthogonal, of positive norms and dim g elements (proven in the tests),
    so it is a basis of g and its structure is g's in another basis."""
    n = len(basis)
    coords = [tuple(p.items()) for _, p in basis]
    t = _pullback(triples, coords, len(g_norms))
    norms = tuple(sum(c * c * g_norms[a] for a, c in p) for p in coords)
    return tuple((key // n // n, key // n % n, key % n, v) for key, v in sorted(t.items()) if v), norms


def _pullback(triples: ThreeForm, coords: Sequence[Sequence[Tuple[int, int]]], ng: int) -> Dict[int, int]:
    """t_ijk = q([S_i, S_j], S_k) = sum G_abc P_ia P_jb P_kc of the S_i given by
    their pairs (a, P_ia) over g, from g's sorted triples.  t is totally
    antisymmetric, as G is, so each term of distinct (i, j, k) is summed
    under the key (p n + q) n + r of its sorted p < q < r, with the sign of
    (i, j, k); the terms with a repeated index are left out, as they cancel."""
    n, over, t = len(coords), _index(coords, ng), {}  # over[a]: the pairs (i, P_ia)
    for a, b, c, gabc in triples:
        for i, x in over[a]:
            for j, y in over[b]:
                for k, z in over[c]:
                    if i != j != k != i:
                        v = gabc * x * y * z
                        p, q, r = sorted((i, j, k))
                        key = (p * n + q) * n + r
                        t[key] = t.get(key, 0) + (-v if (i > j) + (i > k) + (j > k) & 1 else v)
    return t


@lru_cache(maxsize=None)
def _algebra(kind: str) -> Tuple[ThreeForm, Tuple[int, ...]]:
    """The three-form of a kind's g on its basis g_a, as its nonzero sorted
    triples (a, b, c, G_abc), and the q-norms N_a."""
    return _build_structure([_place(b, p) for b, p in _ALGEBRA[kind]])


@lru_cache(maxsize=None)
def _ad_rows(kind: str) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """The ad rows of a kind's G: row a holds (b, c, G_abc) for every ordered
    pair b, c of a nonzero G_abc."""
    rows: List[List[Tuple[int, int, int]]] = [[] for _ in _ALGEBRA[kind]]
    for a, b, c, t in _algebra(kind)[0]:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            rows[x] += ((y, z, t), (z, y, -t))
    return tuple(map(tuple, rows))


def _constants(
    dens: Sequence[int], norms: Sequence[int]
) -> Tuple[int, Callable[[int, int, int, int], Tuple[int, int, int]]]:
    """(L, cells) for the basis X_i = S_i / D_i of integer norms
    N_i = q(S_i, S_i): [S_i, S_j] = sum_k t_ijk S_k / N_k gives
    c^k_ij = t_ijk D_k / (D_i D_j N_k), and cells(p, q, r, t_pqr) is a sorted
    triple's L c^r_pq, L c^q_pr and L c^p_qr over L = lcm(D)^2 lcm(N)."""
    lcm_norms = math.lcm(*norms)
    weights = [lcm_norms // nk for nk in norms]
    lcm_dens = math.lcm(*dens)
    f = [lcm_dens // d for d in dens]
    dw = [d * w for d, w in zip(dens, weights)]

    def cells(p: int, q: int, r: int, t: int) -> Tuple[int, int, int]:
        fp, fq, fr = f[p], f[q], f[r]
        return t * dw[r] * fp * fq, -t * dw[q] * fp * fr, t * dw[p] * fq * fr

    return lcm_dens * lcm_dens * lcm_norms, cells


def _normalized(indices: Sequence[int], message: str) -> Tuple[int, ...]:
    """The absolute indices divided by their gcd; raises ``message`` if all vanish."""
    t = tuple(abs(x) for x in indices)
    g = math.gcd(*t)
    if g == 0:
        raise ModelError(message)
    return tuple(x // g for x in t)


def _model(kind: str, indices: Tuple[int, ...], basis: Tuple[Coordinates, ...]) -> CosetModel:
    """The model of ``kind`` on the basis of its normalized indices."""
    basis = tuple((d, {a: c for a, c in p.items() if c}) for d, p in basis)
    structure, norms = _change_of_basis(*_algebra(kind), basis)
    return CosetModel(
        kind=kind,
        indices=indices,
        basis=basis,
        gen_names=tuple(f"e{i}" for i in range(1, len(basis) + 1)),
        norms=norms,
        structure=structure,
    )


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
    spec = model_spec(kind)
    if len(indices) != len(spec.index_names):
        raise ModelError(f"{spec.kind} takes the indices ({', '.join(spec.index_names)}), got {len(indices)}")
    # the constructors are looked up per call, so wrappers installed on them are used
    return {"Q": q_model, "M": m_model}[spec.kind](*indices)


# L ad_x on the tangent space as sparse integer rows for a denominator L:
# L [x, e_i] = sum_j rows[i][j] e_j for i, j < TANGENT
AdRows = List[Dict[int, int]]


def _ad(model: CosetModel, xs: Sequence[Coordinates]) -> List[Tuple[AdRows, int]]:
    """(rows, L) of ad_x on the tangent space for each x = S_x / D_x of ``xs``
    over g in the isotropy algebra, zeros dropped: t_xij = q([S_x, S_i], S_j) =
    sum G_abc x_a P_ib P_jc over the ad rows of x's indices a gives
    c^j_xi and c^i_xj, cells of the triple (i, j, x) of ``_constants``.  The
    spec's Cartan elements are q-orthogonal to the tangent space, so in the
    isotropy algebra, at every index tuple (proven in the tests)."""
    tangent, (_, g_norms), ad = model.TANGENT, _algebra(model.kind), _ad_rows(model.kind)
    over = _index([tuple(p.items()) for _, p in model.basis[:tangent]], len(g_norms))  # (i, P_ia)
    dens = [d for d, _ in model.basis[:tangent]]
    out = []
    for dx, x in xs:
        t: Dict[int, int] = {}  # t_xij under i * tangent + j, i < j
        for a, c in x.items():
            for b, e, g in ad[a]:
                for i, p in over[b]:
                    for j, r in over[e]:
                        if i < j:
                            t[i * tangent + j] = t.get(i * tangent + j, 0) + c * g * p * r
        # N_x = q(S_x, S_x) is 0 only for x = 0, which has no t
        norm = sum(c * c * g_norms[a] for a, c in x.items()) or 1
        scale, cells = _constants([*dens, dx], [*model.norms[:tangent], norm])
        rows: AdRows = [{} for _ in range(tangent)]
        for key, v in t.items():
            if v:
                i, j = divmod(key, tangent)
                _, b, c = cells(i, j, tangent, v)  # L c^j_ix = -L c^j_xi, L c^i_jx = -L c^i_xj
                rows[i][j], rows[j][i] = -b, -c
        out.append((rows, scale))
    return out


# ---------------------------------------------------------------------------
# invariant exterior derivative
# ---------------------------------------------------------------------------


def group_gens(model: CosetModel) -> Tuple[str, ...]:
    """Group coframe generator names with a trailing dt slot."""
    return model.gen_names + ("dt",)


def maurer_cartan(model: CosetModel) -> List[Multivector]:
    """de^i = -(1/2) c^i_{jk} e^j ^ e^k for every group generator, as forms
    on ``group_gens(model)``, dt last.

    The coefficients are the exact rational structure constants of
    ``_constants``, three per triple; ascending triples give each form's
    pairs (j, k) in row-major order.
    """
    from .algebra import Multivector

    gens = group_gens(model)
    scale, cells = _constants([d for d, _ in model.basis], model.norms)
    terms: List[Dict[int, Fraction]] = [{} for _ in range(model.n)]
    for p, q, r, t in model.structure:
        a, b, c = cells(p, q, r, t)
        terms[r][(1 << p) | (1 << q)] = Fraction(-a, scale)
        terms[q][(1 << p) | (1 << r)] = Fraction(-b, scale)
        terms[p][(1 << q) | (1 << r)] = Fraction(-c, scale)
    return [Multivector(gens, t, len(gens) - 1) for t in terms]


def _d_monomial(des: List[Multivector], mask: int, gens, dt_index) -> Dict[int, Fraction]:
    """d(e^I) by the Leibniz rule; d(dt) = 0."""
    from .algebra import Multivector

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
    each image d(e^I) computed once per model.  The form must lie on
    ``group_gens(model)`` with dt last, the coframe of the cached images.
    Coefficients are treated as constants; any time dependence (chain rule
    in dt) is the flow module's business.
    """
    from .algebra import Multivector

    des, images = model.d_tables
    if (form.gens, form.dt_index) != (des[0].gens, des[0].dt_index):
        raise ModelError(f"invariant_d takes forms on {des[0].gens} with dt last, got {form.gens}")
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


# ---------------------------------------------------------------------------
# isotropy weights and the admissibility classification
# ---------------------------------------------------------------------------


def _kernel_basis_1x3(k: int, l: int, m: int) -> List[Tuple[int, int, int]]:
    """HNF basis of the integer solution lattice of k*x + l*y + m*z = 0.

    For primitive (k, l, m) the lattice is spanned by the cross products of
    (k, l, m) with the unit vectors; their HNF has one zero row, dropped.
    """
    return [row for row in _hnf_rows([(l, -k, 0), (m, 0, -k), (0, m, -l)]) if any(row)]


def _hnf_rows(rows: List[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Row Hermite normal form of an integer row set of any rank, its zero
    rows last.  The HNF of a lattice is unique, so any order of the
    reductions gives these rows: each column's live rows are reduced in
    place by the one of least |entry| until one is left."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        live = [r for r in range(pivot_row, len(mat)) if mat[r][col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(mat[r][col]))
            top = mat[live[0]]
            for r in live[1:]:
                row = mat[r]
                qt = row[col] // top[col]
                for c in range(col, ncols):
                    row[c] -= qt * top[c]
            live = [r for r in live if mat[r][col]]
        r0 = live[0]
        mat[pivot_row], mat[r0] = mat[r0], mat[pivot_row]
        top = mat[pivot_row]
        if top[col] < 0:
            top[:] = [-x for x in top]
        for row in mat[:pivot_row]:
            qt = row[col] // top[col]
            for c in range(col, ncols):
                row[c] -= qt * top[c]
        pivot_row += 1
    return [tuple(r) for r in mat]


def isotropy_weights(model: CosetModel) -> Tuple[Tuple[int, ...], ...]:
    """Integer weight vectors of the isotropy Cartan, one per invariant
    tangent 2-plane (i, j): the speed c^j_xi of each of the spec's Cartan
    elements x over g, from ``_ad``.  Each x turns the plane into itself,
    skew, at an integer speed, at every index tuple (proven in the tests)."""
    spec = MODEL_SPECS[model.kind]
    cartan = _ad(model, spec.cartan(model))
    return tuple(tuple(rows[i].get(j, 0) // den for rows, den in cartan) for i, j in spec.planes)


def classify_invariant_g2(model: CosetModel) -> bool:
    """Whether the coset admits an invariant G2-structure.

    The G2 Cartan acts on three pairwise independent 2-planes with weight
    functionals u, v, u+v and fixes a line; a weight triple matches that
    pattern iff its weights are pairwise independent (so nonzero) and admit
    a vanishing +-1 combination.  A model's weights always have rank 2 (a
    test proves it for every index tuple), so with a vanishing combination
    they are pairwise independent, and only the combination is read.  On
    Q(k,l,m) a vanishing combination (1, s, t) is normal to the Cartan
    span, so parallel to (k, l, m), which forces |k| = |l| = |m|; on M(k,l)
    the weights of e10, e11 are (1, l), (-1, l), (0, 2k), which match iff
    k = l = 1.  So Q(1,1,1) and M(1,1) are the only admissible models at any
    indices (proven in the tests).  Computed from the isotropy weights, not
    from the closed-form index criterion; acceptance criterion 3 compares
    the verdicts of the sweep with ``paper_tables.ADMISSIBLE``.
    """
    w = isotropy_weights(model)
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
    modules: Tuple[Tuple[int, ...], ...]  # the metric ansatz's tangent modules, one per state name
    frame_map: Mapping[int, Tuple[int, str]]  # canonical slot -> (generator index, scale symbol)
    rotation_multiples: Tuple[int, ...]  # per plane, of the fundamental angle unit
    fundamental_unit: Fraction
    family_weight: int  # the rotation family's one moving Fourier weight
    catalog: Tuple[CatalogRow, ...]  # the singular orbits
    affine: Tuple[Tuple[str, Fraction, int], ...]  # closed form: (x, m_x, p_x) per affine square
    factor: Fraction  # closed form: the factor k of A
    cartan: Callable[[CosetModel], List[Coordinates]]  # the isotropy Cartan elements over g
    circle_period: Fraction  # of the vertical circle, in multiples of pi
    circle_lattice: Tuple[Fraction, ...]  # generates its parameters in the isotropy group
    cone_label: str  # the vertical coefficient's cone quantity

    @property
    def primitive_name(self) -> str:
        """The primitive integrates the last state symbol."""
        return self.state_names[-1].upper()

    @property
    def planes(self) -> Tuple[Tuple[int, int], ...]:
        """The invariant tangent 2-planes: each even-length module's consecutive pairs."""
        return tuple(p for m in self.modules if len(m) % 2 == 0 for p in zip(m[::2], m[1::2]))


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
            factor=Fraction(-6), cone_label="|f|/t",
            # (x, y, z) sigma_3 on the three blocks for (x, y, z) over the HNF
            # basis of k x + l y + m z = 0: the Cartan of U(1)^2 in Q(k,l,m)
            cartan=lambda model: [(2, {2: x, 5: y, 8: z}) for x, y, z in _kernel_basis_1x3(*model.indices)],
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
            cartan=lambda model: list(model.basis[9:]),  # e10, e11: su(2) + u(1)
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
