"""Structure constants, invariant derivative, weights and classification."""

import functools
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import holoflow.homogeneous as homogeneous
from holoflow._record import replace
from holoflow.algebra import LaurentPoly, Multivector
from holoflow.homogeneous import (
    _ALGEBRA,
    MODEL_SPECS,
    CosetModel,
    ModelError,
    _ad,
    _algebra,
    _build_structure,
    _change_of_basis,
    _check_isotropy_action,
    _check_jacobi,
    _constants,
    _hnf_rows,
    _kernel_basis_1x3,
    _m_basis,
    _model,
    _plane_speed,
    _pullback,
    _q,
    _q_basis,
    classify_invariant_g2,
    get_model,
    group_gens,
    invariant_d,
    is_basic,
    isotropy_weights,
    m_model,
    maurer_cartan,
    model_spec,
    q_model,
)
from oracles import (
    ad_all_rows,
    canonical_weights,
    cells_rows,
    change_of_basis_by_calls,
    change_of_basis_cells,
    coefficient,
    form_table,
    fraction_cartan,
    fraction_rows,
    hnf_rows_by_pairs,
    isotropy_action_by_rows,
    jacobi_per_triple,
    maurer_cartan_rows,
    model_matrices,
    pack,
    q_norms,
    structure_table,
    unpack,
    weights_by_fraction_cartan,
)


def bracket_coeffs(model, i, j):
    """{k: c^k_ij} for either order of i, j, read off the ``Fraction`` rows."""
    return fraction_rows(model.n, structure_table(model))[i][j]


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

    got = bracket_coeffs(q_model(1, 1, 1), 0, 1)
    assert got == {6: Fraction(-1, 3), 7: Fraction(-1, 2), 8: Fraction(-1, 6)}


def test_m_bracket_e5_e6_lands_in_e7_e11_span():
    got = bracket_coeffs(m_model(1, 1), 4, 5)
    assert set(got) == {6, 10}
    assert got[6] == Fraction(-1, 2)
    assert got[10] == Fraction(3, 2)


def test_jacobi_identity_randomized_triples():
    rng = random.Random(7)
    for model in (q_model(1, 1, 1), m_model(1, 1), q_model(3, 2, 1)):
        n = model.n
        for _ in range(40):
            i, j, k = rng.sample(range(n), 3)
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for mid, cm in bracket_coeffs(model, a, b).items():
                    for fin, cf in bracket_coeffs(model, mid, c).items():
                        acc[fin] = acc.get(fin, Fraction(0)) + cm * cf
            assert all(v == 0 for v in acc.values())


def test_q_metric_is_diagonal_with_expected_norms():
    model = q_model(1, 1, 1)
    norms = q_norms(model.norms, model.basis)
    assert norms[:6] == (Fraction(1, 2),) * 6
    assert norms[6] == Fraction(3, 2)
    basis = dense_basis(model)
    for i in range(model.n):
        for j in range(i + 1, model.n):
            assert q_inner(basis[i], basis[j]) == 0


def test_isotropy_brackets_preserve_modules():
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        blocks = [set(b) for b in model.modules]
        for x in model.isotropy_indices:
            for i in range(model.TANGENT):
                for k, c in bracket_coeffs(model, x, i).items():
                    assert c == 0 or any(i in b and k in b for b in blocks)


def tampered(model, edits, norms=None):
    """``model`` with its three-form's sorted triples in {(p, q, r): t} set
    (t = 0 drops one), and its norms replaced where given."""
    form = {triple[:3]: triple[3] for triple in model.structure}
    form.update(edits)
    form = tuple((*key, t) for key, t in sorted(form.items()) if t)
    return replace(model, structure=form, norms=model.norms if norms is None else tuple(norms))


def tampered_q111(edits, norms=None):
    return tampered(q_model(1, 1, 1), edits, norms)


def test_the_structure_constants_of_a_cached_model_cannot_be_changed():
    """``q_model`` shares one model per process: its three-form and norms
    are tuples at every level."""
    model = q_model(1, 1, 1)
    with pytest.raises(AttributeError):
        model.structure.append((0, 2, 7, 5))
    with pytest.raises(TypeError):
        model.structure[0] = (0, 1, 6, 5)
    with pytest.raises(TypeError):
        model.structure[0][3] = 5
    with pytest.raises(TypeError):
        model.norms[0] = 5
    assert classify_invariant_g2(q_model(1, 1, 1))


def permuted(model, order):
    """``model`` on its basis elements in the given order, with the
    three-form and norms of that basis: a consistent model whose planes need
    not be the Cartan's."""
    basis = tuple(model.basis[i] for i in order)
    structure, norms = _change_of_basis(*_algebra(model.kind), basis)
    return replace(model, basis=basis, structure=structure, norms=norms)


def swapped_q111(i, j):
    """Q(1,1,1) with its tangent elements i and j swapped."""
    order = list(range(9))
    order[i], order[j] = j, i
    return permuted(q_model(1, 1, 1), order)


# Q(1,1,1) has q-norms 1/2 on e1..e6 and the sorted triples (0, 1, k) and
# (2, 3, k) for k = 6, 7, 8, (4, 5, 6) and (4, 5, 8); the Cartan element read
# on the plane (e1, e2) first is (g2 - g8) / 2 = (e8 + e9) / 2, of speed -1
# there.  The isotropy checks of the build read the three-form, and are
# tripped by edits of it; the weights read G and the basis, and are tripped
# by the norms they read, by a basis whose planes the Cartan does not keep
# (e3 or e7 in e2's place, and ad_x e1 leaks out of the plane (e1, e2)), or
# by an expected fixed line put in a plane.  ad_x is q-skew, so on the real
# planes a moved fixed line is seen first as a leak from the plane it moves
# into.
@pytest.mark.parametrize(
    "how,what,check,message",
    [
        ("form", {(0, 2, 7): 4}, _check_isotropy_action, "does not preserve the modules"),
        ("form", {(0, 7, 8): 4}, _check_isotropy_action, "leaves the tangent space"),
        ("norms", (4, 2, 2, 2, 2, 2, 6, 4, 12), isotropy_weights, "not skew on an invariant plane"),
        ("swap", (1, 2), isotropy_weights, "leaves an invariant plane"),
        ("swap", (1, 6), isotropy_weights, "leaves an invariant plane"),
        ("fixed", (0,), isotropy_weights, "expected fixed line is not fixed"),
        ("norms", (4, 4, 2, 2, 2, 2, 6, 4, 12), isotropy_weights, "non-integer weight"),
    ],
    ids=["modules", "tangent", "plane-skew", "plane-leak", "fixed-line", "fixed-line-isotropy", "weight"],
)
def test_isotropy_checks_reject_tampered_structure(how, what, check, message, monkeypatch):
    check(q_model(1, 1, 1))
    if how == "fixed":
        monkeypatch.setattr(CosetModel, "FIXED", what)
        model = q_model(1, 1, 1)
    elif how == "swap":
        model = swapped_q111(*what)
    else:
        model = tampered_q111(what) if how == "form" else tampered_q111({}, what)
    with pytest.raises(ModelError, match=re.escape(message)):
        check(model)
    # the weights read on the Fraction Cartan coordinates, with every row of
    # ad_x, fail first at the same check
    if check is isotropy_weights:
        assert_ad_is_read_off_the_rows(model)
        with pytest.raises(ModelError, match=re.escape(message)):
            weights_by_fraction_cartan(model)
        # the Cartan moves the expected fixed line where the fixed-line check
        # would see it, or not
        moved = any(rows[i] for rows, _ in _ad(model, MODEL_SPECS["Q"].cartan(model)) for i in model.FIXED)
        assert moved == (how == "fixed" or (how, what) == ("swap", (1, 6)))


@pytest.mark.parametrize("kind,indices", [("Q", (1, 1, 1)), ("M", (1, 1)), ("Q", (3, 2, 1)), ("M", (5, 3))])
def test_the_triple_isotropy_check_fails_first_where_the_row_scan_does(kind, indices):
    """On seeded edits of one to three triples {x, i, j} of the three-form,
    x isotropy and i tangent, some with j in i's module, the check read off
    the triples raises the message of the row scan's first failure in
    (x, i, j) order, or passes where it passes.  A three-form is q-skew, so
    the scan's q-skew check never fails: two messages and a pass."""
    rng, model, seen = random.Random(43), get_model(kind, indices), []
    modules = {i: m for m in model.modules for i in m}
    for _ in range(300):
        edits = {}
        for _ in range(rng.randint(1, 3)):
            x, i = rng.choice(model.isotropy_indices), rng.randrange(model.TANGENT)
            others = [j for j in (modules[i] if rng.random() < 0.6 else range(model.n)) if j not in (i, x)]
            if others:
                edits[tuple(sorted((x, i, rng.choice(others))))] = rng.choice([-2, -1, 1, 2])
        edited = tampered(model, edits)
        seen.append(outcome(_check_isotropy_action, edited))
        assert seen[-1] == outcome(isotropy_action_by_rows, edited)
    assert len(set(seen)) == 3, set(seen)  # each message, and a pass


# ---------------------------------------------------------------------------
# invariant exterior derivative
# ---------------------------------------------------------------------------


def test_de7_tangent_part_q():
    model = q_model(1, 1, 1)
    d = invariant_d(mv(model, [7]), model)
    third = LaurentPoly.const(model.symbols, Fraction(1, 3))
    assert coefficient(d, [0, 1]) == third
    assert coefficient(d, [2, 3]) == third
    assert coefficient(d, [4, 5]) == third


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


def test_invariant_d_takes_only_the_group_coframe():
    """The images d(e^I) are cached for ``group_gens(model)`` with dt last;
    once they are, a form on any other coframe, of the same length or not,
    is refused."""
    model = q_model(1, 1, 1)
    gens = group_gens(model)
    one = LaurentPoly.const(model.symbols, 1)
    assert not invariant_d(mv(model, [7]), model).is_zero
    renamed = tuple(f"x{i}" for i in range(len(gens)))
    for other, dt in ((renamed, len(gens) - 1), (gens, 0), (gens[:8], 7)):
        with pytest.raises(ModelError, match="invariant_d takes forms on"):
            invariant_d(Multivector.basis(other, [6], one, dt_index=dt), model)


def _invariant_d_by_wedges(form, model):
    """Reference d: expand each term by wedges against Maurer-Cartan forms
    with constant polynomial coefficients, on every call."""
    table = next(iter(form.terms.values())).table
    one = LaurentPoly.const(table, 1)
    constants = structure_table(model)
    des = []
    for i in range(model.n):
        terms = {}
        for (j, k), coeffs in constants.items():
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
    ws = canonical_weights(isotropy_weights(q_model(1, 1, 1)))
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
    ws = canonical_weights(isotropy_weights(q_model(1, 1, 0)))
    dependent = any(
        ws[i][0] * ws[j][1] - ws[i][1] * ws[j][0] == 0
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert dependent


def test_weights_m11():
    assert canonical_weights(isotropy_weights(m_model(1, 1))) == ((0, 2), (1, -1), (1, 1))


def test_m11_su2_irreducible_on_v1_trivial_elsewhere():
    model = m_model(1, 1)
    for x in (7, 8, 9):
        for i in (4, 5, 6):
            assert not bracket_coeffs(model, x, i)
    assert su2_commutant_dim([rows for rows, _ in _ad(model, model.basis[7:10])]) == 4


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
        "q_norms": [str(v) for v in q_norms(model.norms, model.basis)],
        "structure": [
            [i, j, [[k, str(c)] for k, c in sorted(coeffs.items())]]
            for (i, j), coeffs in sorted(structure_table(model).items())
        ],
        "weights": [list(w) for w in isotropy_weights(model)] if kind == "Q" else None,
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


@pytest.mark.parametrize(
    "kind,indices,message",
    [
        ("M", (1, 2, 3), "M takes the indices (k, l), got 3"),
        ("Q", (1, 2), "Q takes the indices (k, l, m), got 2"),
        ("q", [1, 1, 1, 1], "Q takes the indices (k, l, m), got 4"),
        ("m", (), "M takes the indices (k, l), got 0"),
    ],
    ids=["m-three", "q-two", "q-four", "m-none"],
)
def test_get_model_names_the_indices_of_a_wrong_count(kind, indices, message):
    """A wrong number of indices is a ``ModelError`` naming the kind's
    ``index_names``, not the cached constructor's ``TypeError``."""
    with pytest.raises(ModelError, match=re.escape(message)):
        get_model(kind, indices)
    assert get_model(kind, (1,) * len(model_spec(kind).index_names)).kind == kind.upper()


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
            tuple(tuple(Fraction(v, d) for v in s.get(pack(b, i, j), (0, 0))) for j in range(n))
            for i in range(n)
        )
        for b, n in enumerate(sizes)
    )


def dense_basis(model):
    return [dense(x, BLOCK_SIZES[model.kind]) for x in model_matrices(model.kind, model.basis)]


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
    assert q_norms(model.norms, model.basis) == norms
    table = {}
    for i in range(model.n):
        for j in range(i + 1, model.n):
            br = tuple_bracket(basis[i], basis[j])
            coeffs = {k: q_inner(br, e) / norms[k] for k, e in enumerate(basis)}
            coeffs = {k: c for k, c in coeffs.items() if c}
            if coeffs:
                table[(i, j)] = coeffs
    assert structure_table(model) == table
    want = tuple(
        tuple(
            q_inner(tuple_bracket(x, basis[i]), basis[j]) / norms[j]
            for x in _reference_cartan(model)
        )
        for i, j in model.PLANES
    )
    assert isotropy_weights(model) == want


# one-block (D, S) pairs {packed (block, row, col): (re, im)}
S1 = (2, {pack(0, 0, 1): (0, 1), pack(0, 1, 0): (0, 1)})
S2 = (2, {pack(0, 0, 1): (1, 0), pack(0, 1, 0): (-1, 0)})
SIGMA_X = (1, {pack(0, 0, 1): (1, 0), pack(0, 1, 0): (1, 0)})  # hermitian
S1_PLUS_S2 = (2, {pack(0, 0, 1): (1, 1), pack(0, 1, 0): (-1, 1)})
S3_PAIR = (2, {pack(0, 0, 0): (0, 1), pack(0, 1, 1): (0, -1)})
S2_PLUS_S3 = (2, {pack(0, 0, 1): (1, 0), pack(0, 1, 0): (-1, 0), pack(0, 0, 0): (0, 1), pack(0, 1, 1): (0, -1)})


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
        table = structure_table(get_model(kind, indices))
        in_order = [[i, j, [[k, str(c)] for k, c in coeffs.items()]] for (i, j), coeffs in table.items()]
        assert in_order == record["structure"]


def test_maurer_cartan_matches_the_fraction_table_term_by_term():
    """de^i = -sum_{j<k} c^i_jk e^j ^ e^k on every sweep model: the same
    masks and Fraction coefficients as the forms built from the Fraction
    table, inserted in the row-major order of the pairs (j, k)."""
    for kind, indices in sweep_tuples():
        model = get_model(kind, indices)
        table = structure_table(model)
        des = maurer_cartan(model)
        assert len(des) == model.n
        for i, de in enumerate(des):
            want = [((1 << j) | (1 << k), -coeffs[i]) for (j, k), coeffs in table.items() if coeffs.get(i)]
            assert (de.gens, de.dt_index) == (group_gens(model), model.n)
            assert repr(list(de.terms.items())) == repr(want), (kind, indices, i)


def test_classification_never_builds_the_fraction_table():
    """The three-form is the structure's only form: a fresh model holds
    integer triples and norms after classification, and equals the cached
    one."""
    model = q_model.__wrapped__(2, 1, 1)  # a fresh model, not the cached one
    assert not classify_invariant_g2(model)
    assert all(len(t) == 4 and all(type(v) is int for v in t) for t in model.structure)
    assert all(type(v) is int for v in model.norms)
    assert model == q_model(2, 1, 1)


# ---------------------------------------------------------------------------
# the integer build, Jacobi check and Cartan coordinates against the
# Fraction code they replaced
# ---------------------------------------------------------------------------


def gq_reference(x, y):
    """-tr(XY) = -sum X_ij Y_ji over blocks, one pair at a time; raises unless real."""
    re = im = 0
    for key, (xr, xi) in x.items():
        b, i, j = unpack(key)
        yv = y.get(pack(b, j, i))
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
        for key_a, (ar, ai) in a.items():
            b, i, k = unpack(key_a)
            for key_c, (cr, ci) in c.items():
                b2, k2, j = unpack(key_c)
                if b2 == b and k2 == k:
                    re, im = out.get(pack(b, i, j), (0, 0))
                    out[pack(b, i, j)] = (
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


def isotropy_coords_reference(model, element):
    """Coordinates of an element (D, {a: P_a}) over g on the isotropy
    generators, with a Fraction residual on the matrices of the element and
    the model's basis."""
    ((dx, sx),) = model_matrices(model.kind, [element])
    mats = model_matrices(model.kind, model.basis)
    norms = q_norms(model.norms, model.basis)
    coords = {}
    residual = {key: (Fraction(re, dx), Fraction(im, dx)) for key, (re, im) in sx.items()}
    for a in model.isotropy_indices:
        da, sa = mats[a]
        c = Fraction(gq_reference(sx, sa), dx * da) / norms[a]
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
            return table.get((a, i), {}).get(j, 0)
        return -table.get((i, a), {}).get(j, 0)

    table = structure_table(model)

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


def tuple_assembled(kind, basis):
    """``model_matrices`` keyed by the positions (b, i, j) that the patterns name."""
    out = []
    for d, coords in basis:
        s = {}
        for a, c in coords.items():
            b, pattern = _ALGEBRA[kind][a]
            for (i, j), (re_, im_) in pattern.items():
                r0, i0 = s.get((b, i, j), (0, 0))
                s[(b, i, j)] = (r0 + c * re_, i0 + c * im_)
        out.append((d, {key: v for key, v in s.items() if v != (0, 0)}))
    return out


def matrix_basis(kind, indices):
    """The basis of ``kind`` at ``indices`` as the matrices ``model_matrices`` assembles."""
    return model_matrices(kind, BASES[kind](*indices))


def unit_basis(n):
    """The coordinates (1, {i: 1}) of a basis over itself."""
    return tuple((1, {i: 1}) for i in range(n))


def matrix_path(basis):
    """Three-form and norms of a basis of (D, S) matrices by the matrix path:
    ``_build_structure``'s three-form changed to the basis itself."""
    triples, norms = _build_structure(basis)
    return _change_of_basis(triples, norms, tuple((d, {i: 1}) for i, (d, _) in enumerate(basis)))


@functools.lru_cache(maxsize=None)
def g_algebra(kind):
    """g's three-form G_abc = c^c_ab N_c on its basis g_a (D = 1) and the
    q-norms N_a, from the Fraction reference build on g's matrices: what the
    call-per-bracket oracle reads."""
    table, norms = build_structure_reference(model_matrices(kind, unit_basis(len(_ALGEBRA[kind]))))
    assert all(v.denominator == 1 for v in norms)
    form = tuple((a, b, c, v * norms[c]) for (a, b), coeffs in table.items() for c, v in coeffs.items() if c > b)
    assert all(t.denominator == 1 for *_, t in form) and form_table(form, [1] * len(norms), norms) == table
    return tuple((*key, t.numerator) for *key, t in sorted(form)), tuple(v.numerator for v in norms)


@pytest.mark.parametrize("name", ["sweep", "up-to-12"])
def test_each_packed_key_decodes_to_the_placed_position(name):
    positions = {
        kind: [(b, i, j) for b, n in enumerate(sizes) for i in range(n) for j in range(n)]
        for kind, sizes in BLOCK_SIZES.items()
    }
    for kind, where in positions.items():
        keys = [pack(*p) for p in where]
        assert len(set(keys)) == len(where), kind
        assert [unpack(key) for key in keys] == where, kind
    for kind, indices in TUPLE_SETS[name]:
        packed = matrix_basis(kind, indices)
        placed = tuple_assembled(kind, BASES[kind](*indices))
        assert len(packed) == len(placed)
        for (d, s), (d0, s0) in zip(packed, placed):
            assert d == d0
            assert len(s) == len(s0) and {unpack(key): v for key, v in s.items()} == s0, (kind, indices)
            assert set(s0) <= set(positions[kind])


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_build_matches_the_fraction_build(name):
    for kind, indices in TUPLE_SETS[name]:
        basis = matrix_basis(kind, indices)
        form, norms = matrix_path(basis)
        want_table, want_norms = build_structure_reference(basis)
        assert repr(form_table(form, [d for d, _ in basis], norms)) == repr(want_table), (kind, indices)
        assert q_norms(norms, basis) == want_norms
        assert _check_jacobi(form, norms) is None


# bases taken at their indices as given, not normalized, and the inputs of
# models that normalize them
NEGATIVE = [("Q", (-3, 2, 1)), ("Q", (2, -1, -1)), ("M", (-1, 1)), ("M", (-2, 4)), ("M", (3, -7))]


def cartan_reference(model):
    """The Cartan coordinates of ``model``, Q's from the Fraction residual on matrices."""
    if model.kind == "M":
        return [{9: Fraction(1)}, {10: Fraction(1)}]
    return [isotropy_coords_reference(model, (2, {2: x, 5: y, 8: z})) for x, y, z in _kernel_basis_1x3(*model.indices)]


@pytest.mark.parametrize("name", [*TUPLE_SETS, "negative"])
def test_the_change_of_basis_matches_the_matrix_build(name):
    """A model's three-form, q-norms and weights are those of the matrix path,
    ``_build_structure`` on the matrices assembled from its basis over g."""
    for kind, indices in TUPLE_SETS.get(name, NEGATIVE):
        model = get_model(kind, indices)
        for given in (indices, model.indices):  # as given, then normalized
            basis = BASES[kind](*given)
            want = matrix_path(model_matrices(kind, basis))
            assert _change_of_basis(*_algebra(kind), basis) == want, (kind, given)
        assert (model.structure, model.norms) == want
        oracle = replace(model, structure=want[0], norms=want[1])
        assert isotropy_weights(model) == weights_reference(oracle, cartan_reference(oracle))


@pytest.mark.parametrize("kind,i", [("Q", 0), ("Q", 6), ("M", 4), ("M", 10)])
def test_a_basis_element_over_a_doubled_denominator_gives_the_same_model(kind, i):
    """X = S / D = 2S / 2D: its integer norm N = q(S, S) quadruples, the
    triples that hold i double, and q(X, X) = N / D^2 stays, so the
    constants, the q-norms, the isotropy checks and the weights stay."""
    model = get_model(kind, (1,) * len(model_spec(kind).index_names))
    d, p = model.basis[i]
    basis = tuple((2 * d, {a: 2 * c for a, c in p.items()}) if j == i else x for j, x in enumerate(model.basis))
    twin = _model(kind, model.indices, basis)
    assert twin.norms[i] == 4 * model.norms[i]
    assert twin.structure == tuple((p, q, r, 2 * t if i in (p, q, r) else t) for p, q, r, t in model.structure)
    assert structure_table(twin) == structure_table(model)
    assert maurer_cartan(twin) == maurer_cartan(model)
    assert q_norms(twin.norms, twin.basis) == q_norms(model.norms, model.basis)
    assert isotropy_weights(twin) == isotropy_weights(model)


def edited(kind, edits):
    """The unit-index basis of ``kind`` over g with the elements in ``edits``
    replaced, or dropped where the edit is None."""
    basis = BASES[kind](*(1,) * len(model_spec(kind).index_names))
    return tuple(edits.get(i, x) for i, x in enumerate(basis) if edits.get(i, x) is not None)


@pytest.mark.parametrize(
    "kind,edits,message",
    [
        ("Q", {3: (2, {4: 1, 0: 1})}, "not q-orthogonal at pair (1, 4)"),
        ("Q", {2: (2, {3: 1, 1: 1}), 3: (2, {4: 1, 0: 1})}, "not q-orthogonal at pair (1, 4)"),  # and (2, 3)
        ("M", {10: (3, {6: 1, 10: 3, 7: 1})}, "not q-orthogonal at pair (10, 11)"),
        ("Q", {2: (2, {})}, "non-positive"),
        ("Q", {2: (2, {}), 4: (2, {6: 1, 7: 1})}, "non-positive"),  # before (5, 6)
        ("Q", {8: None}, "not closed"),
        ("M", {10: None}, "not closed"),
        ("M", {7: None, 8: None, 9: None}, "not closed"),
        ("Q", {8: None, 3: (2, {4: 1, 0: 1})}, "not q-orthogonal at pair (1, 4)"),  # short, too
    ],
    ids=[
        "orthogonal", "two-rows", "m-orthogonal", "positive", "positive-first", "q-closed", "m-closed", "m-su2",
        "short-orthogonal",
    ],
)
def test_a_tampered_coordinate_basis_fails_as_its_matrices_do(kind, edits, message):
    """Each check of the change of basis gives the matrix path's message,
    at the matrix path's row-major first failure; a basis shorter than g's
    is rejected as not closed only after the q-Gram scan has passed."""
    basis = edited(kind, edits)
    with pytest.raises(ModelError) as matrix_error:
        _build_structure(model_matrices(kind, basis))
    with pytest.raises(ModelError, match=re.escape(message)) as coordinate_error:
        _change_of_basis(*_algebra(kind), basis)
    assert str(coordinate_error.value) == str(matrix_error.value)
    # and the call-per-bracket build it replaced fails there too
    assert outcome(change_of_basis_by_calls, *g_algebra(kind), basis) == ("error", str(matrix_error.value))


def outcome(fn, *args):
    """("ok", the value) of fn(*args), or ("error", its message) where it raises ModelError."""
    try:
        return "ok", fn(*args)
    except ModelError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", [*TUPLE_SETS, "negative"])
def test_the_one_pass_build_and_classification_match_the_calls_they_replace(name, monkeypatch):
    """Tensor, q-norms, weights, verdict and every error of the one-pass
    change of basis and the integer Cartan path are those of the build with
    a call per bracket and the Fraction Cartan coordinates."""
    for kind, indices in TUPLE_SETS.get(name, NEGATIVE):
        model = get_model(kind, indices)
        for given in (indices, model.indices):  # as given, then normalized
            basis = tuple((d, {a: c for a, c in p.items() if c}) for d, p in BASES[kind](*given))
            got = outcome(_change_of_basis, *_algebra(kind), basis)
            want = outcome(change_of_basis_by_calls, *g_algebra(kind), basis)
            assert got == want and repr(got) == repr(want), (kind, given)
        assert (model.structure, model.norms) == want[1]
        weights = outcome(isotropy_weights, model)
        assert weights == outcome(weights_by_fraction_cartan, model), (kind, indices)
        verdict = classify_invariant_g2(model)
        with monkeypatch.context() as patch:
            patch.setattr(homogeneous, "isotropy_weights", weights_by_fraction_cartan)
            assert classify_invariant_g2(model) == verdict, (kind, indices)
        cartan = _ad(model, MODEL_SPECS[kind].cartan(model))
        assert list(map(ad_fractions, cartan)) == [ad_all_rows(model, x)[: model.TANGENT] for x in fraction_cartan(model)]


def orthogonalized(vectors, norms):
    """Integer Gram-Schmidt over g's q-norms, each vector over its content;
    a dependent vector comes out zero."""
    out = []
    for v in vectors:
        for u in out:
            uu, uv = (sum(x * y * n for x, y, n in zip(u, w, norms)) for w in (u, v))
            if uu:
                v = [uu * y - uv * x for x, y in zip(u, v)]
        content = math.gcd(*v)
        out.append([y // content for y in v] if content else v)
    return out


@st.composite
def integer_bases(draw):
    """A basis over g of integer coordinates: D in 1..4 and coordinates in
    -5..5 per element, dim g elements or one fewer, as drawn (rarely
    q-orthogonal) or with the first ones, often all, made q-orthogonal by
    ``orthogonalized``.  Element i has a nonzero coordinate on g_{order_i}
    for a drawn order, so the elements are mostly independent."""
    kind = draw(st.sampled_from(["Q", "M"]))
    norms = _algebra(kind)[1]
    size = draw(st.sampled_from([len(norms), len(norms) - 1]))
    vectors = []
    for a in draw(st.permutations(range(len(norms))))[:size]:
        v = draw(st.lists(st.integers(-5, 5), min_size=len(norms), max_size=len(norms)))
        v[a] = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
        vectors.append(v)
    cut = draw(st.one_of(st.just(size), st.integers(0, size)))
    vectors = orthogonalized(vectors[:cut], norms) + vectors[cut:]
    return kind, tuple((draw(st.integers(1, 4)), {a: c for a, c in enumerate(v) if c}) for v in vectors)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(integer_bases())
def test_the_pulled_back_build_is_the_call_per_bracket_build(case):
    """On any integer basis over g the pullback of g's three-form gives the
    three-form and norms, or the first error, of the build with a bracket and a
    projection call per pair; the grids are held to it by
    ``test_the_one_pass_build_and_classification_match_the_calls_they_replace``."""
    kind, basis = case
    got = outcome(_change_of_basis, *_algebra(kind), basis)
    want = outcome(change_of_basis_by_calls, *g_algebra(kind), basis)
    assert got == want and repr(got) == repr(want)


def test_a_fresh_sweep_builds_each_kinds_algebra_once():
    """Every model of a kind is a pullback of one three-form: a fresh
    61-model sweep runs the matrix path twice, on g's 9 and 11 elements,
    which make su(2)^3's 3 and su(3) + su(2)'s 10 nonzero sorted triples,
    and checks the Jacobi identity on those two forms and on no model's.
    The builds and classifications make no ``Fraction``; the Maurer-Cartan
    forms after them do, so the count is seen to work."""
    child = (
        "import fractions, json, sys\n"
        "import holoflow.homogeneous as h\n"
        "real, sizes, forms = h._build_structure, [], []\n"
        "def build(basis):\n"
        "    triples, norms = real(basis)\n"
        "    sizes.append(len(basis))\n"
        "    forms.append(len(triples))\n"
        "    return triples, norms\n"
        "h._build_structure = build\n"
        "jacobi, checked = h._check_jacobi, []\n"
        "h._check_jacobi = lambda form, norms: checked.append(len(norms)) or jacobi(form, norms)\n"
        "new, made = fractions.Fraction.__new__, []\n"
        "def counted(cls, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    return new(cls, *args, **kwargs)\n"
        "fractions.Fraction.__new__ = counted\n"
        "for kind, indices in json.loads(sys.argv[1]):\n"
        "    h.classify_invariant_g2(h.get_model(kind, indices))\n"
        "in_sweep = len(made)\n"
        "h.maurer_cartan(h.q_model(1, 1, 1))\n"
        "print(json.dumps([sizes, forms, checked, in_sweep, len(made) > in_sweep]))\n"
    )
    src = str(Path(homogeneous.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-c", child, json.dumps(TUPLE_SETS["sweep"])]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[9, 11], [3, 10], [9, 11], 0, True]


@pytest.mark.parametrize(
    "kind,triple,was,t",
    [("M", (0, 1, 6), 6, -6), ("Q", (0, 1, 5), None, 2)],
    ids=["m-sign", "q-other-block"],
)
def test_a_tampered_algebra_table_fails_the_jacobi_check(kind, triple, was, t, monkeypatch):
    """The Jacobi identity is checked where g's three-form is made: one
    triple of G edited before the matrix path's Jacobi check (M: G_016's
    sign flipped; Q: a triple G_015 across two su(2), since a flipped sign
    in su(2)^3 keeps the identity) makes ``_algebra`` raise."""
    real, seen = homogeneous._check_jacobi, []

    def tampered(form, norms):
        edited = {key[:3]: key[3] for key in form}
        assert edited.get(triple) == was
        edited[triple] = t
        seen.append((tuple((*key, v) for key, v in sorted(edited.items())), norms))
        return real(*seen[-1])

    _algebra.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(homogeneous, "_check_jacobi", tampered)
            with pytest.raises(ModelError, match="Jacobi identity failed"):
                _algebra(kind)
    finally:
        _algebra.cache_clear()
    assert len(seen) == 1 and not jacobi_per_triple(*seen[0])
    assert jacobi_per_triple(*_algebra(kind))


@pytest.mark.parametrize("kind,pair,extra", [("Q", (0, 1), 3), ("M", (0, 1), 8)], ids=["q", "m"])
def test_a_tampered_three_form_fails_the_antisymmetry_check(kind, pair, extra, monkeypatch):
    """g's three-form is checked where the matrix path reads it: one bracket
    [g_a, g_b] of g with g_extra of another block added is still in g, so
    closure holds, but then G_{a b extra} = N_extra while G_{a extra b} = 0,
    and ``_algebra`` raises before its Jacobi check."""
    mats, real, met = algebra_matrices(kind), homogeneous._gbracket, []

    def tampered(x, y):
        out = real(x, y)
        if (x, y) == (mats[pair[0]], mats[pair[1]]):
            met.append(pair)
            assert not set(out) & set(mats[extra])
            out = {**out, **mats[extra]}
        return out

    _algebra.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(homogeneous, "_gbracket", tampered)
            with pytest.raises(ModelError, match=re.escape("q([X_i, X_j], X_k) is not totally antisymmetric")):
                _algebra(kind)
    finally:
        _algebra.cache_clear()
    assert met == [pair]
    assert len(_algebra(kind)[0]) == {"Q": 3, "M": 10}[kind]  # the real matrices pass


@functools.lru_cache(maxsize=None)
def algebra_matrices(kind):
    """The matrices of g's basis, assembled from unit coordinates."""
    return [s for _, s in model_matrices(kind, unit_basis(len(_ALGEBRA[kind])))]


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_the_pulled_back_three_form_is_the_matrix_bracket_product(name):
    """What the build reads of each bracket: ``_pullback`` of g's three-form
    gives t_ijk = q([S_i, S_j], S_k) of the matrices for every i < j < k,
    under the key (i n + j) n + k, and no other nonzero key.  ``_ad`` reads
    the same G, held here on the same grids: every isotropy element over g
    lies in the isotropy algebra, some of them move the tangent space and a
    tangent one is rejected."""
    for kind, indices in TUPLE_SETS[name]:
        basis = BASES[kind](*indices)
        mats = [s for _, s in model_matrices(kind, basis)]
        n = len(mats)
        t = _pullback(_algebra(kind)[0], [tuple(p.items()) for _, p in basis], len(_ALGEBRA[kind]))
        want = {}
        for i, j in itertools.combinations(range(n), 2):
            br = gbracket_reference(mats[i], mats[j])
            for k in range(j + 1, n):
                want[(i * n + j) * n + k] = gq_reference(br, mats[k])
        assert {key: v for key, v in t.items() if v} == {key: v for key, v in want.items() if v}, (kind, indices)
        model = get_model(kind, indices)
        got = _ad(model, model.basis[model.TANGENT :])
        assert len(got) == model.n - model.TANGENT and any(any(rows) for rows, _ in got)
        with pytest.raises(ModelError, match="Cartan element is not in the isotropy algebra"):
            _ad(model, model.basis[:1])


def test_one_pass_projection_rejects_a_non_real_product():
    for x, y in ((S1, SIGMA_X), (SIGMA_X, S1_PLUS_S2)):
        with pytest.raises(ModelError, match="not real"):
            gq_reference(x[1], y[1])
        with pytest.raises(ModelError, match="not real"):
            _q(x[1], y[1])


def in_span_reference(x, mats):
    """[q(X, S_k)] and whether X = sum_k q(X, S_k) S_k / N_k, in Fraction
    arithmetic, one product at a time; raises unless every product is real."""
    t = [gq_reference(x, s) for s in mats]
    residual = {key: (Fraction(re), Fraction(im)) for key, (re, im) in x.items()}
    for tk, s in zip(t, mats):
        c = Fraction(tk, gq_reference(s, s))
        for key, (re, im) in s.items():
            r0, i0 = residual.get(key, (0, 0))
            residual[key] = (r0 - c * re, i0 - c * im)
    return t, not any(re or im for re, im in residual.values())


PARTS = {"all": slice(None), "tangent": slice(None, 7), "isotropy": slice(7, None)}


@st.composite
def sweep_basis_elements(draw):
    """A sweep basis, all of it or its tangent or isotropy part, and sparse
    integer coordinates X over g: an integer combination of the part, that
    plus a few coordinates, or the coordinates alone, so X may be in the
    part's span or out of it.  Over g's real basis every product is real."""
    kind, indices = draw(st.sampled_from(TUPLE_SETS["sweep"]))
    part = draw(st.sampled_from(sorted(PARTS)))
    basis = get_model(kind, indices).basis[PARTS[part]]
    x = {}
    mode = draw(st.sampled_from(["span", "span+entries", "entries"]))
    if mode != "entries":
        for _, p in basis:
            c = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
            for a, v in p.items():
                x[a] = x.get(a, 0) + c * v
    if mode != "span":
        for a in draw(st.lists(st.sampled_from(range(len(_ALGEBRA[kind]))), min_size=1, max_size=4, unique=True)):
            x[a] = x.get(a, 0) + draw(st.integers(-3, 3))
    return kind, indices, part, {a: v for a, v in x.items() if v}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sweep_basis_elements())
def test_ad_accepts_an_element_over_g_iff_it_lies_in_the_isotropy_span(case):
    """Every X over g lies in the span of a whole basis, the fact that lets
    the build skip the closure residual, and in the span of a part exactly
    where its products with the rest of the basis vanish: the test ``_ad``
    makes of a Cartan element.  On the isotropy part ``_ad`` gives ad_x read
    off the Fraction rows where X is in the span and raises its error where
    it is not."""
    kind, indices, part, x = case
    model = get_model(kind, indices)
    mats = [s for _, s in model_matrices(kind, model.basis)]
    inside = range(model.n)[PARTS[part]]
    ((_, matrix),) = model_matrices(kind, [(1, x)])
    t, in_span = in_span_reference(matrix, [mats[k] for k in inside])
    assert in_span == (not any(gq_reference(matrix, s) for k, s in enumerate(mats) if k not in inside))
    if part == "all":
        assert in_span
    if part == "isotropy":
        if in_span:
            coords = {7 + k: Fraction(tk * model.basis[7 + k][0], model.norms[7 + k]) for k, tk in enumerate(t) if tk}
            (ad,) = _ad(model, [(1, x)])
            assert ad_fractions(ad) == ad_all_rows(model, coords)[: model.TANGENT]
        else:
            with pytest.raises(ModelError, match="Cartan element is not in the isotropy algebra"):
                _ad(model, [(1, x)])


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


def rank3(rows):
    """The rank of three integer rows of length 3."""
    if determinant(rows):
        return 3
    crosses = [
        tuple(u[i - 2] * v[i - 1] - u[i - 1] * v[i - 2] for i in range(3)) for u, v in itertools.combinations(rows, 2)
    ]
    return 2 if any(map(any, crosses)) else int(any(map(any, rows)))


def determinant(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


ENTRY = st.one_of(st.integers(-10, 10), st.integers(-(10**30), 10**30))


@st.composite
def row_sets(draw):
    """Three integer rows of length 3 of rank 3, or of rank 2 with the third
    an integer combination of the first two, in a drawn order."""
    u, v = (tuple(draw(ENTRY) for _ in range(3)) for _ in range(2))
    if draw(st.booleans()):
        w = tuple(draw(ENTRY) for _ in range(3))
    else:
        p, q = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        w = tuple(p * x + q * y for x, y in zip(u, v))
    rows = draw(st.permutations([u, v, w]))
    assume(rank3(rows) >= 2)
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_sets())
def test_the_in_place_hnf_is_the_pairwise_hnf(rows):
    """The HNF of a lattice is unique, so reducing a column's live rows in
    place gives the rows of the pair-at-a-time reduction, zero rows last."""
    got = _hnf_rows(rows)
    assert got == hnf_rows_by_pairs(rows)
    assert rank3(rows) == sum(map(any, got)) and not any(map(any, got[rank3(rows):]))


def combined(*terms):
    """sum c X over the product of the denominators, for the terms
    (c, (D, {a: P_a})) of elements over g."""
    den, x = math.prod(d for _, (d, _) in terms), {}
    for c, (d, p) in terms:
        for a, v in p.items():
            x[a] = x.get(a, 0) + c * v * (den // d)
    return den, x


def cartan_candidates(model):
    """Elements (D, {a: P_a}) over g: the spec's two Cartan elements and one
    integer combination, each at two scales, all in the isotropy algebra; a
    tangent generator, an isotropy generator plus a tangent one and, for Q,
    two more elements outside it."""
    u, v = MODEL_SPECS[model.kind].cartan(model)
    inside = [(d * s, p) for d, p in (u, v, combined((3, u), (-2, v))) for s in (1, 3)]
    outside = [model.basis[0], combined((1, model.basis[7]), (1, model.basis[0]))]
    if model.kind == "Q":
        outside += [(2, {2: 1, 5: 0, 8: 0}), (5, dict(zip((2, 5, 8), model.indices)))]
    return [(x, True) for x in inside] + [(x, False) for x in outside]


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_cartan_coordinates_match_the_fraction_residual(name):
    """``_ad`` takes an element over g where the Fraction residual on the
    matrices puts it in the isotropy algebra, with ad_x read off the Fraction
    rows at the residual's coordinates, and raises the residual's message
    where it is not: alone and after an element that is."""
    for kind, indices in TUPLE_SETS[name]:
        model = get_model(kind, indices)
        inside, wants = [], []
        for element, member in cartan_candidates(model):
            if member:
                want = ad_all_rows(model, isotropy_coords_reference(model, element))[: model.TANGENT]
                assert list(map(ad_fractions, _ad(model, [element]))) == [want]
                inside.append(element)
                wants.append(want)
            else:
                with pytest.raises(ModelError, match="not in the isotropy algebra"):
                    isotropy_coords_reference(model, element)
                for elements in ([element], [inside[0], element]):
                    with pytest.raises(ModelError, match="^Cartan element is not in the isotropy algebra$"):
                        _ad(model, elements)
        # one call reads every element with the tangent index built once
        assert list(map(ad_fractions, _ad(model, inside))) == wants


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_integer_weights_and_verdicts_match_the_fraction_table(name):
    for kind, indices in TUPLE_SETS[name]:
        model = get_model(kind, indices)
        assert isotropy_weights(model) == weights_reference(model, cartan_reference(model))
        assert classify_invariant_g2(model) == (set(model.indices) == {1})


@pytest.mark.parametrize(
    "edits",
    [{(0, 1, 6): -8}, {(0, 1, 2): 4}, {(0, 6, 7): 4}],
    ids=["scaled", "new-entry", "isotropy-entry"],
)
def test_jacobi_check_rejects_a_tampered_table(edits):
    model = q_model(1, 1, 1)
    _check_jacobi(model.structure, model.norms)
    edited = tampered_q111(edits)
    assert not jacobi_holds_reference(edited.n, structure_table(edited))
    with pytest.raises(ModelError, match="Jacobi identity failed"):
        _check_jacobi(edited.structure, edited.norms)


@pytest.mark.parametrize(
    "kind,indices",
    [("Q", (1, 1, 1)), ("M", (1, 1)), ("Q", (3, 2, 1)), ("M", (5, 3))],
    ids=["Q111", "M11", "Q321", "M53"],
)
def test_integer_jacobi_agrees_with_the_fraction_loop_on_random_edits(kind, indices):
    """On seeded edits of one to three triples of a model's three-form, the
    check on t and N (D = 1) agrees with the Fraction loop on the model's
    constants, which read its D as well."""
    for edited in form_edits(get_model(kind, indices), random.Random(18), 60):
        if jacobi_holds_reference(edited.n, structure_table(edited)):
            _check_jacobi(edited.structure, edited.norms)
        else:
            with pytest.raises(ModelError, match="Jacobi identity failed"):
                _check_jacobi(edited.structure, edited.norms)


def jacobi_verdict(form, norms):
    """Whether ``_check_jacobi`` accepts the three-form; it raises only its one message."""
    try:
        _check_jacobi(form, norms)
    except ModelError as err:
        assert str(err) == "Jacobi identity failed"
        return False
    return True


def tripled(form):
    """The three-form times 3; the Jacobi identity is quadratic, so this
    keeps it or its failure."""
    return tuple((p, q, r, 3 * t) for p, q, r, t in form)


def form_edits(model, rng, count):
    """``count`` copies of the model, each with one to three sorted triples
    of its three-form, new or stored, given a new t (sometimes the one it
    has)."""
    stored = {triple[:3]: triple[3] for triple in model.structure}
    for _ in range(count):
        edits = {}
        for _ in range(rng.randint(1, 3)):
            key = tuple(sorted(rng.sample(range(model.n), 3))) if rng.random() < 0.3 else rng.choice(list(stored))
            edits[key] = stored.get(key, 0) if rng.random() < 0.2 else rng.randint(-4, 4)
        yield tampered(model, edits)


def test_the_upper_cell_jacobi_check_agrees_with_the_per_triple_loop():
    """On every sweep three-form, on 50 seeded edits of each, and on each of
    these times 3, ``_check_jacobi`` accepts exactly the forms that the
    per-triple loop accepts."""
    rng = random.Random(37)
    verdicts = []
    for kind, indices in TUPLE_SETS["sweep"]:
        model = get_model(kind, indices)
        for form in (model.structure, *(edited.structure for edited in form_edits(model, rng, 50))):
            verdict = jacobi_per_triple(form, model.norms)
            assert jacobi_verdict(form, model.norms) == verdict, (kind, indices)
            assert jacobi_verdict(tripled(form), model.norms) == verdict, (kind, indices)
            assert jacobi_per_triple(tripled(form), model.norms) == verdict, (kind, indices)
            verdicts.append(verdict)
    assert len(verdicts) == 61 * 51
    assert verdicts.count(True) > 61 and verdicts.count(False) > 2_000


@pytest.mark.parametrize("name", TUPLE_SETS)
def test_every_built_table_is_antisymmetric(name):
    """Each built three-form lists distinct sorted triples p < q < r < n in
    ascending order with a nonzero t, so t_jik = -t_ijk and the zero t of a
    repeated index hold by storage, which every reader of the triples
    needs."""
    for kind, indices in TUPLE_SETS[name]:
        model = get_model(kind, indices)
        keys = [triple[:3] for triple in model.structure]
        assert keys == sorted(set(keys)), (kind, indices)
        for p, q, r, t in model.structure:
            assert 0 <= p < q < r < model.n and t, (kind, indices, p, q, r)


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
    *su2, (u1, _) = _ad(model, model.basis[7:])
    su2 = [rows for rows, _ in su2]
    if any(rows[i] for rows in su2 for i in (4, 5, 6)):
        return False
    if su2_commutant_dim(su2) != 4:
        return False
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
        return [bracket_coeffs(model, x, i) for x in (7, 8, 9) for i in range(model.TANGENT)]

    want = su2_brackets(m_model(1, 1))
    assert any(want)
    for indices in M_MODELS:
        assert su2_brackets(m_model(*indices)) == want, indices


def test_m_weights_on_the_cartan_e10_e11():
    for k, l in M_MODELS:
        assert isotropy_weights(m_model(k, l)) == ((1, l), (-1, l), (0, 2 * k))


# ---------------------------------------------------------------------------
# the constants read off the stored three-form against the integer cells the
# build wrote before it stored the three-form
# ---------------------------------------------------------------------------

# every sorted Q triple in 0..12, every M pair in -12..12, and the huge and
# negative indices, each read as given
TABLE_GRID = {
    "q-up-to-12": [("Q", t[::-1]) for t in itertools.combinations_with_replacement(range(13), 3) if any(t)],
    "m-within-12": [("M", t) for t in itertools.product(range(-12, 13), repeat=2) if any(t)],
    "huge-negative": TUPLE_SETS["huge"] + NEGATIVE,
}


def grid_bases(name):
    """(kind, indices, model, basis) for each grid tuple's basis as given,
    zero coordinates dropped, then its model's normalized basis."""
    for kind, indices in TABLE_GRID[name]:
        model = get_model(kind, indices)
        given = tuple((d, {a: c for a, c in p.items() if c}) for d, p in BASES[kind](*indices))
        for basis in (given, model.basis):
            yield kind, indices, model, basis


def cell_constants(cells, scale):
    """{(i, j): {k: c^k_ij}} for both orders of i, j, from the integer cells
    (p, q, r, L c^r_pq, L c^q_pr, L c^p_qr) over L = ``scale``."""
    out = {}
    for p, q, r, *vs in cells:
        for (i, j, k), v in zip(((p, q, r), (p, r, q), (q, r, p)), vs):
            out.setdefault((i, j), {})[k] = Fraction(v, scale)
            out.setdefault((j, i), {})[k] = Fraction(-v, scale)
    return out


@pytest.mark.parametrize("name", TABLE_GRID)
def test_the_rows_view_of_the_triples_is_the_table_the_build_wrote(name):
    """The constants ``_constants`` reads off the stored three-form are, as
    Fractions, the cells the cells-and-scale writer made over its reduced
    scale, triple for triple and in the same order, with the same norms or
    the same first error.  Every isotropy x acts q-skew on them,
    c^j_xi q(X_j, X_j) = -c^i_xj q(X_i, X_i), the property the build no
    longer checks."""
    built = 0
    for kind, indices, _, basis in grid_bases(name):
        got = outcome(_change_of_basis, *_algebra(kind), basis)
        want = outcome(change_of_basis_cells, *_algebra(kind), basis)
        if got[0] == "error":
            assert got == want, (kind, indices)
            continue
        (form, norms), ((n, scale, cells), want_norms) = got[1], want[1]
        assert norms == want_norms and [t[:3] for t in form] == [c[:3] for c in cells], (kind, indices)
        lcm, read = _constants([d for d, _ in basis], norms)
        constants = cell_constants([(*t[:3], *read(*t)) for t in form], lcm)
        assert constants == cell_constants(cells, scale), (kind, indices)
        qn = q_norms(norms, basis)
        for triple in form:
            for x in triple[:3]:
                if x >= CosetModel.TANGENT:
                    i, j = (y for y in triple[:3] if y != x)
                    assert constants[(x, i)][j] * qn[j] == -constants[(x, j)][i] * qn[i], (kind, indices, triple)
        built += 1
    assert built > len(TABLE_GRID[name])


@pytest.mark.parametrize("name", TABLE_GRID)
def test_maurer_cartan_from_the_triples_is_the_forms_of_the_written_table(name):
    """The forms built from the three-form have the masks, values and term
    insertion order of the forms written from the cells-and-scale writer's
    table, so ``derive``'s output does not depend on which of the two a
    model stores."""
    built = 0
    for kind, indices, model, basis in grid_bases(name):
        try:
            form, norms = _change_of_basis(*_algebra(kind), basis)
        except ModelError:
            continue
        (n, scale, cells), _ = change_of_basis_cells(*_algebra(kind), basis)
        forms = maurer_cartan(replace(model, basis=basis, structure=form, norms=norms))
        assert [(de.gens, de.dt_index) for de in forms] == [(group_gens(model), n)] * n
        want = [repr(list(terms.items())) for terms in maurer_cartan_rows(scale, cells_rows(n, cells))]
        assert [repr(list(de.terms.items())) for de in forms] == want, (kind, indices)
        built += 1
    assert built > len(TABLE_GRID[name])


def ad_fractions(ad):
    """``_ad``'s (rows, L) of one element as rows of ``Fraction`` c^j_xi."""
    rows, scale = ad
    return [{j: Fraction(c, scale) for j, c in row.items()} for row in rows]


def assert_ad_is_read_off_the_rows(model):
    """``_ad`` of each isotropy generator and each Cartan element over g, in
    one call, is ad_x on the tangent space read off the Fraction rows at its
    coordinates over the model's basis, ``fraction_cartan``'s for the Cartan."""
    isotropy = model.isotropy_indices
    elements = [model.basis[y] for y in isotropy] + MODEL_SPECS[model.kind].cartan(model)
    coords = [{y: Fraction(1)} for y in isotropy] + fraction_cartan(model)
    got = _ad(model, elements)
    assert len(got) == len(coords)
    for ad, x in zip(got, coords):
        assert ad_fractions(ad) == ad_all_rows(model, x)[: model.TANGENT]


@pytest.mark.parametrize("name", TABLE_GRID)
def test_ad_on_the_isotropy_algebra_is_read_off_the_rows_view(name):
    """``assert_ad_is_read_off_the_rows`` on every model of the grid and on
    its tangent basis reversed; the tampered norms and bases of
    ``test_isotropy_checks_reject_tampered_structure`` also hold it, with
    brackets a model may not have."""
    models = {(kind, get_model(kind, indices).indices) for kind, indices in TABLE_GRID[name]}
    for model in (get_model(kind, indices) for kind, indices in sorted(models)):
        assert_ad_is_read_off_the_rows(model)
        # the tangent elements reversed: each t_xij, i < j, is summed from the
        # other order of each pair of G's ad rows
        assert_ad_is_read_off_the_rows(permuted(model, [*reversed(range(model.TANGENT)), *model.isotropy_indices]))
