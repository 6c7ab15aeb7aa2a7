"""Structure constants, invariant derivative, weights and classification."""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holoflow._record import replace
from holoflow.algebra import LaurentPoly, Multivector
from holoflow.homogeneous import (
    ModelError,
    StructureTensor,
    _ad,
    _build_structure,
    _check_isotropy_action,
    _check_jacobi,
    _gq_all,
    _hnf_rows,
    _isotropy_coords,
    _kernel_basis_1x3,
    _m_basis,
    _place,
    _plane_speed,
    _q_basis,
    _S3,
    _transposed,
    classify_invariant_g2,
    get_model,
    group_gens,
    invariant_d,
    is_basic,
    isotropy_weights,
    m_model,
    q_model,
)


def bracket_coeffs(structure, i, j):
    """{k: c^k_ij} for either order of i, j, read off the integer rows."""
    return {k: Fraction(v, structure.scale) for k, v in structure.rows[i][j]}


def mv(model, indices, coeff=None):
    gens = group_gens(model)
    coeff = coeff or LaurentPoly.const(model.symbols, 1)
    return Multivector.basis(gens, [i - 1 for i in indices], coeff, dt_index=len(gens) - 1)


# ---------------------------------------------------------------------------
# structure constants against an independent floating-point matrix oracle
# ---------------------------------------------------------------------------


def _numpy_basis_q():
    s1 = 0.5 * np.array([[0, 1j], [1j, 0]])
    s2 = 0.5 * np.array([[0, 1], [-1, 0]], dtype=complex)
    s3 = 0.5 * np.array([[1j, 0], [0, -1j]])
    z = np.zeros((2, 2), dtype=complex)
    return [
        (s1, z, z),
        (s2, z, z),
        (z, s1, z),
        (z, s2, z),
        (z, z, s1),
        (z, z, s2),
        (s3, s3, s3),
        (s3, -s3, z),
        (s3, s3, -2 * s3),
    ]


def test_q_bracket_e1_e2_matches_matrix_oracle():
    basis = _numpy_basis_q()
    br = tuple(a @ b - b @ a for a, b in zip(basis[0], basis[1]))

    def q(x, y):
        return -sum(np.trace(a @ b) for a, b in zip(x, y)).real

    coeffs = [q(br, e) / q(e, e) for e in basis]
    expect = [0, 0, 0, 0, 0, 0, -1 / 3, -1 / 2, -1 / 6]
    assert np.allclose(coeffs, expect, atol=1e-12)

    st = q_model(1, 1, 1).structure
    got = bracket_coeffs(st, 0, 1)
    assert got == {6: Fraction(-1, 3), 7: Fraction(-1, 2), 8: Fraction(-1, 6)}


def test_m_bracket_e5_e6_lands_in_e7_e11_span():
    st = m_model(1, 1).structure
    got = bracket_coeffs(st, 4, 5)
    assert set(got) == {6, 10}
    assert got[6] == Fraction(-1, 2)
    assert got[10] == Fraction(3, 2)


def test_jacobi_identity_randomized_triples():
    rng = random.Random(7)
    for model in (q_model(1, 1, 1), m_model(1, 1), q_model(3, 2, 1)):
        st = model.structure
        n = model.n
        for _ in range(40):
            i, j, k = rng.sample(range(n), 3)
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for mid, cm in bracket_coeffs(st, a, b).items():
                    for fin, cf in bracket_coeffs(st, mid, c).items():
                        acc[fin] = acc.get(fin, Fraction(0)) + cm * cf
            assert all(v == 0 for v in acc.values())


def test_q_metric_is_diagonal_with_expected_norms():
    model = q_model(1, 1, 1)
    assert model.q_norms[:6] == (Fraction(1, 2),) * 6
    assert model.q_norms[6] == Fraction(3, 2)
    basis = dense_basis(model)
    for i in range(model.n):
        for j in range(i + 1, model.n):
            assert q_inner(basis[i], basis[j]) == 0


def test_isotropy_brackets_preserve_modules():
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        st = model.structure
        blocks = [set(b) for b in model.modules]
        for x in model.isotropy_indices:
            for i in range(model.TANGENT):
                for k, c in bracket_coeffs(st, x, i).items():
                    assert c == 0 or any(i in b and k in b for b in blocks)


def tampered_q111(edits):
    """Q(1,1,1) with the structure-table entries in {(i, j): {k: c}} overwritten."""
    model = q_model(1, 1, 1)
    table = {key: dict(v) for key, v in model.structure.table.items()}
    for key, coeffs in edits.items():
        table.setdefault(key, {}).update(coeffs)
    return replace(model, structure=StructureTensor.from_table(model.n, table))


def test_the_structure_constants_of_a_cached_model_cannot_be_changed():
    """``q_model`` shares one model per process: its integer rows are tuples
    and its table is read-only at both levels."""
    structure = q_model(1, 1, 1).structure
    with pytest.raises(AttributeError):
        structure.rows[7][0].append((2, 5))
    with pytest.raises(TypeError):
        structure.rows[7][0] = ((2, 5),)
    with pytest.raises(TypeError):
        structure.table[(0, 1)] = {6: Fraction(1)}
    with pytest.raises(TypeError):
        structure.table[(0, 1)][6] = Fraction(1)
    assert classify_invariant_g2(q_model(1, 1, 1))


# at Q(1,1,1), [e8, e1] = -e2 and [e8, e2] = e1; the Cartan element read on
# the plane (e1, e2) first is (e8 + e9) / 2, of speed -1 there
@pytest.mark.parametrize(
    "edits,check,message",
    [
        ({(0, 7): {1: 2}}, _check_isotropy_action, "not q-skew"),
        ({(0, 7): {2: 1}, (2, 7): {0: -1}}, _check_isotropy_action, "does not preserve the modules"),
        ({(0, 7): {8: 1}}, _check_isotropy_action, "leaves the tangent space"),
        ({(0, 7): {1: 2}}, isotropy_weights, "not skew on an invariant plane"),
        ({(0, 7): {2: 1}}, isotropy_weights, "leaves an invariant plane"),
        ({(6, 7): {0: 1}}, isotropy_weights, "expected fixed line is not fixed"),
        ({(0, 7): {1: 2}, (1, 7): {0: -2}}, isotropy_weights, "non-integer weight"),
    ],
    ids=["q-skew", "modules", "tangent", "plane-skew", "plane-leak", "fixed-line", "weight"],
)
def test_isotropy_checks_reject_tampered_structure(edits, check, message):
    check(q_model(1, 1, 1))
    with pytest.raises(ModelError, match=re.escape(message)):
        check(tampered_q111(edits))


# ---------------------------------------------------------------------------
# invariant exterior derivative
# ---------------------------------------------------------------------------


def test_de7_tangent_part_q():
    model = q_model(1, 1, 1)
    d = invariant_d(mv(model, [7]), model)
    third = LaurentPoly.const(model.symbols, Fraction(1, 3))
    assert d.coefficient([0, 1]) == third
    assert d.coefficient([2, 3]) == third
    assert d.coefficient([4, 5]) == third


def test_d_of_constant_function_vanishes():
    model = q_model(1, 1, 1)
    const = Multivector(group_gens(model), {0: LaurentPoly.const(model.symbols, 5)}, 9)
    assert invariant_d(const, model).is_zero


def test_d_squared_vanishes_on_all_generators():
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        for i in range(1, model.n + 1):
            dd = invariant_d(invariant_d(mv(model, [i]), model), model)
            assert dd.is_zero


def test_d_squared_on_random_invariant_forms():
    rng = random.Random(3)
    model = q_model(1, 1, 1)
    for _ in range(10):
        form = Multivector.zero(group_gens(model), 9)
        for _ in range(4):
            idx = rng.sample(range(1, 10), rng.choice([2, 3]))
            form = form + mv(model, idx, LaurentPoly.const(model.symbols, rng.randint(-3, 3)))
        assert invariant_d(invariant_d(form, model), model).is_zero


def _invariant_d_by_wedges(form, model):
    """Reference d: expand each term by wedges against Maurer-Cartan forms
    with constant polynomial coefficients, on every call."""
    table = next(iter(form.terms.values())).table
    one = LaurentPoly.const(table, 1)
    des = []
    for i in range(model.n):
        terms = {}
        for (j, k), coeffs in model.structure.table.items():
            if coeffs.get(i):
                terms[(1 << j) | (1 << k)] = LaurentPoly.const(table, -coeffs[i])
        des.append(Multivector(form.gens, terms, form.dt_index))
    out = Multivector.zero(form.gens, form.dt_index)
    for mask, coeff in form.terms.items():
        idxs = list(form.indices_of(mask))
        for pos, b in enumerate(idxs):
            if b >= model.n:
                continue
            prefix = sum(1 << q for q in idxs[:pos])
            suffix = sum(1 << q for q in idxs[pos + 1 :])
            piece = Multivector(form.gens, {prefix: one}, form.dt_index).wedge(des[b])
            piece = piece.wedge(Multivector(form.gens, {suffix: one}, form.dt_index))
            if pos % 2:
                piece = -piece
            out = out + piece.scaled(coeff)
    return out


@pytest.mark.parametrize("model", [q_model(1, 1, 1), m_model(1, 1)], ids=["Q", "M"])
def test_invariant_d_matches_wedge_expansion_on_random_forms(model):
    rng = random.Random(11)
    gens = group_gens(model)
    table = model.symbols
    for _ in range(25):
        form = Multivector.zero(gens, len(gens) - 1)
        for _ in range(rng.randint(1, 6)):
            idx = rng.sample(range(1, len(gens) + 1), rng.randint(0, 5))
            coeff = LaurentPoly.zero(table)
            for _ in range(rng.randint(1, 3)):
                exps = {x: rng.randint(-2, 2) for x in table.base}
                coeff = coeff + LaurentPoly.monomial(
                    table, Fraction(rng.randint(-9, 9), rng.randint(1, 5)), exps
                )
            form = form + mv(model, idx, coeff)
        if form.is_zero:
            continue
        assert invariant_d(form, model) == _invariant_d_by_wedges(form, model)


# ---------------------------------------------------------------------------
# basic forms
# ---------------------------------------------------------------------------


def test_invariant_two_forms_are_basic():
    Q = q_model(1, 1, 1)
    assert is_basic(mv(Q, [1, 2]), Q)
    assert is_basic(mv(Q, [3, 4]), Q)
    assert is_basic(mv(Q, [5, 6]), Q)
    M = m_model(1, 1)
    assert is_basic(mv(M, [1, 2]) + mv(M, [3, 4]), M)
    assert is_basic(mv(M, [5, 6]), M)


def test_non_basic_forms():
    Q = q_model(1, 1, 1)
    assert not is_basic(mv(Q, [8]), Q)  # isotropy index
    assert not is_basic(mv(Q, [1]), Q)  # rotated by the torus
    assert not is_basic(mv(Q, [1, 3]), Q)  # mixes inequivalent planes
    M = m_model(1, 1)
    assert not is_basic(mv(M, [1, 2]), M)  # needs the full V1 pairing
    assert not is_basic(mv(M, [1, 2]) + (-mv(M, [3, 4])), M)


# ---------------------------------------------------------------------------
# isotropy weights
# ---------------------------------------------------------------------------


def test_weights_q111():
    w = isotropy_weights(q_model(1, 1, 1))
    assert w.trivial == 1
    ws = w.canonical()
    assert len(ws) == 3
    # three nonzero, pairwise independent weights with a vanishing signed sum
    assert all(any(ws[i]) for i in range(3))
    for i in range(3):
        for j in range(i + 1, 3):
            assert ws[i][0] * ws[j][1] - ws[i][1] * ws[j][0] != 0
    found = any(
        all(s1 * ws[0][t] + s2 * ws[1][t] + s3 * ws[2][t] == 0 for t in range(2))
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    )
    assert found


def test_weights_q110_degenerate_pair():
    ws = isotropy_weights(q_model(1, 1, 0)).canonical()
    dependent = any(
        ws[i][0] * ws[j][1] - ws[i][1] * ws[j][0] == 0
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert dependent


def test_weights_m11():
    w = isotropy_weights(m_model(1, 1))
    assert w.canonical() == ((0, 2), (1, -1), (1, 1))
    assert w.trivial == 1


def test_m11_su2_irreducible_on_v1_trivial_elsewhere():
    model = m_model(1, 1)
    st = model.structure
    for x in (7, 8, 9):
        for i in (4, 5, 6):
            assert not bracket_coeffs(st, x, i)
    assert su2_commutant_dim([_ad(model, {x: 1})[0] for x in (7, 8, 9)]) == 4


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_examples():
    assert classify_invariant_g2(q_model(1, 1, 1))
    assert not classify_invariant_g2(q_model(2, 1, 1))
    assert classify_invariant_g2(m_model(1, 1))
    assert not classify_invariant_g2(m_model(2, 1))


def test_classification_normalizes_input():
    assert classify_invariant_g2(q_model(-1, 1, -1))
    assert q_model(2, 2, 2).indices == (1, 1, 1)
    assert m_model(3, -3).indices == (1, 1)


def test_classify_agrees_with_index_criterion_q():
    for k in range(6):
        for l in range(k + 1):
            for m in range(l + 1):
                if (k, l, m) == (0, 0, 0):
                    continue
                if math.gcd(math.gcd(k, l), m) != 1:
                    continue
                model = q_model(k, l, m)
                expect = abs(k) == abs(l) == abs(m) == 1
                assert classify_invariant_g2(model) == expect


def test_classify_agrees_with_index_criterion_m():
    for k in range(6):
        for l in range(6):
            if (k, l) == (0, 0) or math.gcd(k, l) != 1:
                continue
            model = m_model(k, l)
            expect = abs(k) == abs(l) == 1
            assert classify_invariant_g2(model) == expect


# ---------------------------------------------------------------------------
# every model of the classification sweep, pinned by a golden file
# ---------------------------------------------------------------------------

GOLDEN_MODELS = Path(__file__).parent / "golden" / "models.json"


def sweep_tuples():
    """Every normalized coprime index tuple up to 5: 40 Q and 21 M models."""
    for k in range(6):
        for l in range(k + 1):
            for m in range(l + 1):
                if (k, l, m) != (0, 0, 0) and math.gcd(math.gcd(k, l), m) == 1:
                    yield "Q", (k, l, m)
    for k in range(6):
        for l in range(6):
            if (k, l) != (0, 0) and math.gcd(k, l) == 1:
                yield "M", (k, l)


def model_record(kind, indices):
    """The exact data of one model, with every Fraction written as a string."""
    model = get_model(kind, indices)
    return {
        "kind": kind,
        "indices": list(indices),
        "normalized": list(model.indices),
        "q_norms": [str(v) for v in model.q_norms],
        "structure": [
            [i, j, [[k, str(c)] for k, c in sorted(coeffs.items())]]
            for (i, j), coeffs in sorted(model.structure.table.items())
        ],
        "weights": [list(w) for w in isotropy_weights(model).weights] if kind == "Q" else None,
        "admissible": classify_invariant_g2(model),
    }


def golden_models_text():
    """The golden file's text: a JSON list with one model record per line."""
    records = [json.dumps(model_record(kind, indices)) for kind, indices in sweep_tuples()]
    return "[\n" + ",\n".join(records) + "\n]\n"


def test_sweep_models_match_the_golden_file():
    text = GOLDEN_MODELS.read_text()
    assert len(json.loads(text)) == 61
    assert golden_models_text() == text


def test_invalid_models_rejected():
    with pytest.raises(ModelError):
        q_model(0, 0, 0)
    with pytest.raises(ModelError):
        m_model(0, 0)


# ---------------------------------------------------------------------------
# the integer arithmetic against Fraction-matrix reference helpers
# ---------------------------------------------------------------------------

# matrix entries are (re, im) pairs of Fractions
F0, HALF = Fraction(0), Fraction(1, 2)
S3 = (((F0, HALF), (F0, F0)), ((F0, F0), (F0, -HALF)))

BLOCK_SIZES = {"Q": (2, 2, 2), "M": (3, 2)}


def dense(x, sizes):
    """The basis element x = (D, S) as a tuple of dense Fraction matrix blocks."""
    d, s = x
    return tuple(
        tuple(
            tuple(tuple(Fraction(v, d) for v in s.get((b, i, j), (0, 0))) for j in range(n))
            for i in range(n)
        )
        for b, n in enumerate(sizes)
    )


def dense_basis(model):
    return [dense(x, BLOCK_SIZES[model.kind]) for x in model.basis]


def _mmul(a, b):
    n = len(a)
    return tuple(
        tuple(
            (
                sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)),
                sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)),
            )
            for j in range(n)
        )
        for i in range(n)
    )


def tuple_bracket(x, y):
    """XY - YX, blockwise."""
    out = []
    for a, b in zip(x, y):
        ab, ba = _mmul(a, b), _mmul(b, a)
        out.append(
            tuple(
                tuple((p[0] - q[0], p[1] - q[1]) for p, q in zip(r1, r2))
                for r1, r2 in zip(ab, ba)
            )
        )
    return tuple(out)


def q_inner(x, y):
    """Biinvariant metric q(X,Y) = -tr(XY), summed over matrix blocks."""
    re = im = Fraction(0)
    for a, b in zip(x, y):
        ab = _mmul(a, b)
        re += sum(ab[i][i][0] for i in range(len(ab)))
        im += sum(ab[i][i][1] for i in range(len(ab)))
    assert im == 0
    return -re


def _scaled_matrix(a, n):
    return tuple(tuple((re * n, im * n) for re, im in row) for row in a)


def _reference_cartan(model):
    if model.kind == "Q":
        return [
            tuple(_scaled_matrix(S3, v) for v in kernel)
            for kernel in _kernel_basis_1x3(*model.indices)
        ]
    return dense_basis(model)[9:11]


@pytest.mark.parametrize(
    "kind,indices",
    [("Q", (1, 1, 1)), ("Q", (1, 1, 0)), ("Q", (3, 2, 1)), ("M", (1, 1)), ("M", (2, 1)), ("M", (5, 3))],
    ids=["Q111", "Q110", "Q321", "M11", "M21", "M53"],
)
def test_structure_and_weights_match_fraction_matrices(kind, indices):
    model = get_model(kind, indices)
    basis = dense_basis(model)
    norms = tuple(q_inner(e, e) for e in basis)
    assert model.q_norms == norms
    table = {}
    for i in range(model.n):
        for j in range(i + 1, model.n):
            br = tuple_bracket(basis[i], basis[j])
            coeffs = {k: q_inner(br, e) / norms[k] for k, e in enumerate(basis)}
            coeffs = {k: c for k, c in coeffs.items() if c}
            if coeffs:
                table[(i, j)] = coeffs
    assert {key: dict(v) for key, v in model.structure.table.items()} == table
    want = tuple(
        tuple(
            q_inner(tuple_bracket(x, basis[i]), basis[j]) / norms[j]
            for x in _reference_cartan(model)
        )
        for i, j in model.PLANES
    )
    assert isotropy_weights(model).weights == want


# one-block (D, S) pairs {(block, row, col): (re, im)}
S1 = (2, {(0, 0, 1): (0, 1), (0, 1, 0): (0, 1)})
S2 = (2, {(0, 0, 1): (1, 0), (0, 1, 0): (-1, 0)})
SIGMA_X = (1, {(0, 0, 1): (1, 0), (0, 1, 0): (1, 0)})  # hermitian
S1_PLUS_S2 = (2, {(0, 0, 1): (1, 1), (0, 1, 0): (-1, 1)})
S3_PAIR = (2, {(0, 0, 0): (0, 1), (0, 1, 1): (0, -1)})
S2_PLUS_S3 = (2, {(0, 0, 1): (1, 0), (0, 1, 0): (-1, 0), (0, 0, 0): (0, 1), (0, 1, 1): (0, -1)})


@pytest.mark.parametrize(
    "basis,message",
    [
        ((S1, SIGMA_X), "not real"),
        ((SIGMA_X,), "non-positive"),
        ((S1, S1_PLUS_S2), "not q-orthogonal at pair (1, 2)"),
        ((S1, S2), "not closed"),
    ],
    ids=["non-real", "non-positive", "non-orthogonal", "non-closed"],
)
def test_build_structure_exact_checks(basis, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        _build_structure(basis)


# the Gram matrix is scanned one row at a time: the first failure is still
# the first of the upper triangle in row-major order, and within a row the
# first by column whatever its kind
@pytest.mark.parametrize(
    "basis,message",
    [
        ((S1, S2, S2_PLUS_S3, S1), "not q-orthogonal at pair (1, 4)"),  # and at (2, 3)
        ((S1, S1_PLUS_S2, SIGMA_X), "not q-orthogonal at pair (1, 2)"),  # (1, 3) is not real
        ((S1, S2, S3_PAIR, SIGMA_X, S1_PLUS_S2), "not real"),  # (1, 4); (1, 5) is not orthogonal
    ],
    ids=["two-rows", "orthogonal-before-real", "real-before-orthogonal"],
)
def test_gram_scan_reports_the_row_major_first_failure(basis, message):
    for build in (_build_structure, build_structure_reference):
        with pytest.raises(ModelError, match=re.escape(message)):
            build(basis)


def test_the_stored_table_view_keeps_the_golden_order():
    golden = json.loads(GOLDEN_MODELS.read_text())
    for record, (kind, indices) in zip(golden, sweep_tuples()):
        table = get_model(kind, indices).structure.table
        in_order = [[i, j, [[k, str(c)] for k, c in coeffs.items()]] for (i, j), coeffs in table.items()]
        assert in_order == record["structure"]


def test_classification_never_builds_the_fraction_table():
    model = q_model.__wrapped__(2, 1, 1)  # a fresh model, not the cached one
    assert not classify_invariant_g2(model)
    assert "table" not in model.structure.__dict__
    assert model.structure.table == q_model(2, 1, 1).structure.table


# ---------------------------------------------------------------------------
# the integer build, Jacobi check and Cartan coordinates against the
# Fraction code they replaced
# ---------------------------------------------------------------------------


def gq_reference(x, y):
    """-tr(XY) = -sum X_ij Y_ji over blocks, one pair at a time; raises unless real."""
    re = im = 0
    for (b, i, j), (xr, xi) in x.items():
        yv = y.get((b, j, i))
        if yv is not None:
            re += xr * yv[0] - xi * yv[1]
            im += xr * yv[1] + xi * yv[0]
    if im:
        raise ModelError("q(X,Y) is not real; basis matrices are not skew-hermitian")
    return -re


def gbracket_reference(x, y):
    """XY - YX, blockwise, by scanning every pair of entries."""
    out = {}
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


def jacobi_holds_reference(n, table):
    """The Jacobi identity on every triple of {(i, j): {k: c^k_ij}}, in Fraction arithmetic."""
    both = dict(table)
    for (i, j), coeffs in table.items():
        both[(j, i)] = {k: -v for k, v in coeffs.items()}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for mid, cm in both.get((a, b), {}).items():
                        for fin, cf in both.get((mid, c), {}).items():
                            acc[fin] = acc.get(fin, Fraction(0)) + cm * cf
                if any(acc.values()):
                    return False
    return True


def build_structure_reference(basis):
    """Structure constants {(i, j): {k: c^k_ij}} and q-norms with one
    q-product per pair of basis vectors and per bracket and basis vector, and
    the Jacobi identity in Fraction arithmetic."""
    n = len(basis)
    mats = [s for _, s in basis]
    norms_int = []
    for i in range(n):
        for j in range(i, n):
            v = gq_reference(mats[i], mats[j])
            if i == j:
                if v <= 0:
                    raise ModelError("basis vector with non-positive q-norm")
                norms_int.append(v)
            elif v != 0:
                raise ModelError(f"basis is not q-orthogonal at pair {(i + 1, j + 1)}")
    norms = tuple(Fraction(v, d * d) for v, (d, _) in zip(norms_int, basis))
    lcm_norms = math.lcm(*norms_int)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = gbracket_reference(mats[i], mats[j])
            t = [gq_reference(br, s) for s in mats]
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
    if not jacobi_holds_reference(n, table):
        raise ModelError("Jacobi identity failed")
    return table, norms


def integer_table_reference(n, table):
    """(L, rows) of a Fraction table: L the lcm of the denominators of the
    c^k_ij, and rows[i][j] the pairs (k, L c^k_ij) for either order of i, j,
    as tuples at every level."""
    scale = math.lcm(*(c.denominator for cs in table.values() for c in cs.values()))
    rows = [[()] * n for _ in range(n)]
    for (i, j), coeffs in table.items():
        rows[i][j] = tuple((k, c.numerator * (scale // c.denominator)) for k, c in coeffs.items())
        rows[j][i] = tuple((k, -v) for k, v in rows[i][j])
    return scale, tuple(map(tuple, rows))


def isotropy_coords_reference(model, x):
    """Coordinates of x = (D, S) on the isotropy generators, with a Fraction residual."""
    dx, sx = x
    coords = {}
    residual = {key: (Fraction(re, dx), Fraction(im, dx)) for key, (re, im) in sx.items()}
    for a in model.isotropy_indices:
        da, sa = model.basis[a]
        c = Fraction(gq_reference(sx, sa), dx * da) / model.q_norms[a]
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


def weights_reference(model, cartan):
    """Weights of the Cartan elements on the planes, read off the Fraction table."""

    def c(a, i, j):  # the e_j-coefficient of [e_a, e_i]
        if a < i:
            return model.structure.table.get((a, i), {}).get(j, 0)
        return -model.structure.table.get((i, a), {}).get(j, 0)

    return tuple(
        tuple(sum(xa * c(a, i, j) for a, xa in x.items()) for x in cartan)
        for i, j in model.PLANES
    )


def index_tuples(top):
    """Every normalized coprime index tuple with entries up to ``top``."""
    for k in range(top + 1):
        for l in range(k + 1):
            for m in range(l + 1):
                if (k, l, m) != (0, 0, 0) and math.gcd(math.gcd(k, l), m) == 1:
                    yield "Q", (k, l, m)
    for k in range(top + 1):
        for l in range(top + 1):
            if (k, l) != (0, 0) and math.gcd(k, l) == 1:
                yield "M", (k, l)


BASES = {"Q": _q_basis, "M": _m_basis}
HUGE = 10**20
TUPLE_SETS = {
    "sweep": list(sweep_tuples()),
    "up-to-12": [t for t in index_tuples(12) if max(t[1]) > 5],
    "huge": [("Q", (HUGE, 1, 1)), ("M", (HUGE, 1))],
}


def test_the_tuple_sets_cover_every_index_tuple_up_to_12():
    sweep, rest = TUPLE_SETS["sweep"], TUPLE_SETS["up-to-12"]
    assert len(sweep) == 61 and len(rest) == 334 + 93 - 61
    assert set(sweep) | set(rest) == set(index_tuples(12))


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_build_matches_the_fraction_build(name):
    for kind, indices in TUPLE_SETS[name]:
        basis = BASES[kind](*indices)
        structure, norms = _build_structure(basis)
        want_table, want_norms = build_structure_reference(basis)
        assert (structure.scale, structure.rows) == integer_table_reference(len(basis), want_table), (kind, indices)
        assert repr({key: dict(v) for key, v in structure.table.items()}) == repr(want_table), (kind, indices)
        assert norms == want_norms
        assert _check_jacobi(structure) is None


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_one_pass_projections_match_the_per_k_products(name):
    for kind, indices in TUPLE_SETS[name]:
        mats = [s for _, s in BASES[kind](*indices)]
        index = _transposed(mats)
        for x, y in itertools.combinations(mats, 2):
            br = gbracket_reference(x, y)
            assert _gq_all(br, index, len(mats)) == [gq_reference(br, s) for s in mats]
            assert _gq_all(x, _transposed([y]), 1) == [gq_reference(x, y)]
        for x in mats:
            assert _gq_all(x, index, len(mats)) == [gq_reference(x, s) for s in mats]


def test_one_pass_projection_rejects_a_non_real_product():
    for x, y in ((S1, SIGMA_X), (SIGMA_X, S1_PLUS_S2)):
        with pytest.raises(ModelError, match="not real"):
            gq_reference(x[1], y[1])
        with pytest.raises(ModelError, match="not real"):
            _gq_all(x[1], _transposed([S1[1], y[1]]), 2)


def kernel_basis_reference(k, l, m):
    """HNF basis of the integer solution lattice of k*x + l*y + m*z = 0, by a
    gcd sweep over the columns of (k, l, m) that tracks the transformation."""
    row = [k, l, m]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]  # columns track the transformation
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


def assert_kernel_basis(indices):
    """The basis equals the gcd sweep's, and its two rows span the whole
    lattice: for primitive indices their cross product is +-(k, l, m)."""
    basis = _kernel_basis_1x3(*indices)
    assert basis == kernel_basis_reference(*indices), indices
    (a, b, c), (d, e, f) = basis
    cross = (b * f - c * e, c * d - a * f, a * e - b * d)
    assert cross in (tuple(indices), tuple(-x for x in indices)), indices


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_kernel_basis_matches_the_gcd_sweep(name):
    for kind, indices in TUPLE_SETS[name]:
        if kind == "Q":
            assert_kernel_basis(indices)


def test_kernel_basis_matches_the_gcd_sweep_in_any_order():
    tuples = [t for t in itertools.product(range(13), repeat=3) if math.gcd(*t) == 1]
    assert len(tuples) == 1_723
    for indices in tuples:
        assert_kernel_basis(indices)


def cartan_candidates(indices):
    """Elements (D, S) of the Q Cartan: the kernel basis of k x + l y + m z = 0
    at two scales and one integer combination, all in the isotropy algebra,
    and two elements outside it."""
    kernel = _kernel_basis_1x3(*indices)
    combo = tuple(3 * u - 2 * v for u, v in zip(*kernel))
    inside = [(d, w) for w in (*kernel, combo) for d in (2, 6)]
    outside = [(2, (1, 0, 0)), (5, tuple(indices))]
    return [
        (_place(d, (0, x, _S3), (1, y, _S3), (2, z, _S3)), member)
        for group, member in ((inside, True), (outside, False))
        for d, (x, y, z) in group
    ]


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_cartan_coordinates_match_the_fraction_residual(name):
    for kind, indices in TUPLE_SETS[name]:
        if kind != "Q":
            continue
        model = q_model(*indices)
        for element, member in cartan_candidates(model.indices):
            if member:
                want = isotropy_coords_reference(model, element)
                assert repr(_isotropy_coords(model, element)) == repr(want)
            else:
                for coords in (_isotropy_coords, isotropy_coords_reference):
                    with pytest.raises(ModelError, match="not in the isotropy algebra"):
                        coords(model, element)


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_weights_and_verdicts_match_the_fraction_table(name):
    for kind, indices in TUPLE_SETS[name]:
        model = get_model(kind, indices)
        if kind == "Q":
            cartan = [
                isotropy_coords_reference(model, _place(2, (0, x, _S3), (1, y, _S3), (2, z, _S3)))
                for x, y, z in _kernel_basis_1x3(*model.indices)
            ]
        else:
            cartan = [{9: Fraction(1)}, {10: Fraction(1)}]
        assert isotropy_weights(model).weights == weights_reference(model, cartan)
        assert classify_invariant_g2(model) == (set(model.indices) == {1})


@pytest.mark.parametrize(
    "edits",
    [{(0, 1): {6: Fraction(-2, 3)}}, {(0, 1): {2: Fraction(1, 7)}}, {(6, 7): {0: Fraction(1)}}],
    ids=["scaled", "new-entry", "isotropy-entry"],
)
def test_jacobi_check_rejects_a_tampered_table(edits):
    _check_jacobi(q_model(1, 1, 1).structure)
    tampered = tampered_q111(edits).structure
    assert not jacobi_holds_reference(tampered.n, tampered.table)
    with pytest.raises(ModelError, match="Jacobi identity failed"):
        _check_jacobi(tampered)


@pytest.mark.parametrize(
    "kind,indices",
    [("Q", (1, 1, 1)), ("M", (1, 1)), ("Q", (3, 2, 1)), ("M", (5, 3))],
    ids=["Q111", "M11", "Q321", "M53"],
)
def test_integer_jacobi_agrees_with_the_fraction_loop_on_random_edits(kind, indices):
    rng = random.Random(18)
    model = get_model(kind, indices)
    keys = sorted(model.structure.table)
    for _ in range(60):
        table = {key: dict(v) for key, v in model.structure.table.items()}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(model.n), 2)) if rng.random() < 0.3 else rng.choice(keys)
            k = rng.randrange(model.n)
            table.setdefault((i, j), {})[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            table = {key: {k: c for k, c in v.items() if c} for key, v in table.items()}
        table = {key: v for key, v in table.items() if v}
        structure = StructureTensor.from_table(model.n, table)
        assert (structure.scale, structure.rows) == integer_table_reference(model.n, table)
        if jacobi_holds_reference(model.n, table):
            _check_jacobi(structure)
        else:
            with pytest.raises(ModelError, match="Jacobi identity failed"):
                _check_jacobi(structure)


# ---------------------------------------------------------------------------
# the M model's su(2) + u(1) matcher, kept as the oracle of the weight test
# ---------------------------------------------------------------------------


def su2_commutant_dim(ads):
    """Dimension of the commutant on V1 = span(e1..e4) of the isotropy su(2),
    given the ad rows of its three generators (M model)."""
    # [X, A] = 0 for the 4 x 4 matrix A of 16 unknowns, A[r][q] in column
    # 4r + q, one integer row per entry of the commutator and generator X
    # (X e_v = sum_u X[u][v] e_u, the integer rows of L ad; scaling X keeps [X, A] = 0)
    system = []
    for rows in ads:
        entries = [(u, v, c) for v in range(4) for u, c in rows[v].items() if u < 4]
        block = [[0] * 16 for _ in range(16)]  # the row of commutator entry (p, q) is 4p + q
        for u, v, k in entries:
            for w in range(4):
                block[4 * u + w][4 * v + w] += k  # (X A)[u][w] has X[u][v] A[v][w]
                block[4 * w + v][4 * w + u] -= k  # (A X)[w][v] has A[w][u] X[u][v]
        system.extend(row for row in block if any(row))
    return 16 - rank_int_matrix(system)


def rank_int_matrix(mat):
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


def matches_u2_weights(model):
    """Weight matcher against the u(2) centralizer pattern inside G2.

    Requires: su(2) irreducible on V1 (quaternionic commutant), trivial on
    V2 + V3, and u(1) weight magnitudes in the ratio (mu, mu, 2 mu) with
    mu != 0 across (V1-plane, V1-plane, V2).
    """
    su2 = [_ad(model, {x: 1})[0] for x in (7, 8, 9)]
    if any(rows[i] for rows in su2 for i in (4, 5, 6)):
        return False
    if su2_commutant_dim(su2) != 4:
        return False
    u1, _ = _ad(model, {10: 1})
    s1 = abs(_plane_speed(model, u1, (0, 1)))
    s2 = abs(_plane_speed(model, u1, (2, 3)))
    s3 = abs(_plane_speed(model, u1, (4, 5)))
    return s1 == s2 and s1 != 0 and s3 == 2 * s1


M_MODELS = [indices for tuples in TUPLE_SETS.values() for kind, indices in tuples if kind == "M"]


def test_the_weight_pattern_agrees_with_the_su2_matcher_on_every_m_model():
    assert len(M_MODELS) == 21 + 72 + 1 == len(set(M_MODELS))
    verdicts = [classify_invariant_g2(m_model(*indices)) for indices in M_MODELS]
    assert verdicts == [matches_u2_weights(m_model(*indices)) for indices in M_MODELS]
    assert verdicts.count(True) == 1


def test_the_isotropy_su2_brackets_do_not_depend_on_the_indices():
    def su2_brackets(model):
        return [bracket_coeffs(model.structure, x, i) for x in (7, 8, 9) for i in range(model.TANGENT)]

    want = su2_brackets(m_model(1, 1))
    assert any(want)
    for indices in M_MODELS:
        assert su2_brackets(m_model(*indices)) == want, indices


def test_m_weights_on_the_cartan_e10_e11():
    for k, l in M_MODELS:
        assert isotropy_weights(m_model(k, l)).weights == ((1, l), (-1, l), (0, 2 * k))
