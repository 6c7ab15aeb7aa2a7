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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import holoflow.homogeneous as homogeneous
from holoflow._record import replace
from holoflow.algebra import LaurentPoly, Multivector, SymbolTable
from holoflow.homogeneous import (
    _ALGEBRA,
    MODEL_SPECS,
    CosetModel,
    ModelError,
    _ad,
    _algebra,
    _build_structure,
    _change_of_basis,
    _constants,
    _gbracket,
    _hnf_rows,
    _kernel_basis_1x3,
    _m_basis,
    _model,
    _pullback,
    _q,
    _q_basis,
    classify_invariant_g2,
    get_model,
    group_gens,
    invariant_d,
    isotropy_weights,
    m_model,
    maurer_cartan,
    model_spec,
    q_model,
)
from oracles import (
    ad_all_rows,
    canonical_weights,
    coefficient,
    form_table,
    fraction_rows,
    is_basic,
    isotropy_coords,
    isotropy_indices,
    model_matrices,
    pack,
    q_norms,
    structure_rows,
    structure_table,
    unpack,
    weights_by_fraction_cartan,
)
from paper_tables import ADMISSIBLE


def bracket_coeffs(model, i, j):
    """{k: c^k_ij} for either order of i, j, read off the ``Fraction`` rows."""
    return structure_rows(model)[i][j]


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


# ---------------------------------------------------------------------------
# the model-layer facts, proven once for every index tuple
# ---------------------------------------------------------------------------

# the indices and the coordinates of two Q Cartan elements as symbols.  A
# model's basis coordinates are polynomials in its indices, and the build
# only adds and multiplies them, so a fact that holds as a polynomial
# identity holds at every index tuple.  The build checks none of these facts
PROOF = SymbolTable(("k", "l", "m", "x1", "y1", "z1", "x2", "y2", "z2"))
SYMBOL = {name: LaurentPoly.variable(PROOF, name) for name in PROOF.base}
# a normalized index tuple has k > 0 on Q and (k, l) != (0, 0) on M
ALONE = {"Q": ("k",), "M": ("k", "l")}
# x = -(l y + m z) / k, which holds on the kernel of k x + l y + m z = 0
# (k > 0), where every row of ``_kernel_basis_1x3`` lies
ON_THE_KERNEL = {
    f"x{n}": -(SYMBOL["l"] * SYMBOL[f"y{n}"] + SYMBOL["m"] * SYMBOL[f"z{n}"]) * SYMBOL["k"] ** -1 for n in (1, 2)
}


def constant(value):
    return LaurentPoly.const(PROOF, value)


def symbolic_basis(kind):
    """The basis formula of ``kind`` at the symbolic indices."""
    return BASES[kind](*(SYMBOL[name] for name in model_spec(kind).index_names))


def gram(kind, basis):
    """The upper triangle of a basis's q-Gram matrix, row i from column i
    on: q(S_i, S_j) = sum_a P_ia P_ja N_a over g's q-orthogonal basis."""
    g_norms = _algebra(kind)[1]
    return [
        [sum((c * q.get(a, 0) * g_norms[a] for a, c in p.items()), constant(0)) for _, q in basis[i:]]
        for i, (_, p) in enumerate(basis)
    ]


def positive_at_every_model(kind, poly):
    """Whether a polynomial in the indices is positive at every normalized
    index tuple of ``kind`` (everywhere, for another kind): it is nonzero,
    each term has even exponents and a positive coefficient, so it is at
    least each of its terms, and for each index of ``ALONE[kind]`` it has a
    term in that index alone or a constant term."""
    terms = poly.named_terms()
    lone = [set(exps) for _, exps in terms if len(exps) <= 1]
    return (
        bool(terms)
        and all(c > 0 and all(e > 0 and e % 2 == 0 for e in exps.values()) for c, exps in terms)
        and all(any(names <= {x} for names in lone) for x in ALONE.get(kind, ()))
    )


def gram_failure(kind, rows, size):
    """The first failure of a basis's q-Gram rows in row-major order, or
    None: a norm that is not ``positive_at_every_model``, a product of two
    elements that is not identically zero, or fewer than ``size`` (dim g)
    elements."""
    for i, row in enumerate(rows, 1):
        if not positive_at_every_model(kind, row[0]):
            return "basis vector with non-positive q-norm"
        for j, v in enumerate(row[1:], i + 1):
            if v != 0:
                return f"basis is not q-orthogonal at pair {(i, j)}"
    return "basis is not closed under brackets" if len(rows) < size else None


def pulled_back(kind, basis):
    """{(i, j, k): t_ijk}, i < j < k, of the nonzero triples of a basis over
    g, by the build's own ``_pullback`` of G: it only adds and multiplies
    the coordinates, so at any indices the build's integer three-form is
    this one evaluated there."""
    n = len(basis)
    t = _pullback(_algebra(kind)[0], [tuple(p.items()) for _, p in basis], len(_ALGEBRA[kind]))
    return {(key // n // n, key // n % n, key % n): constant(0) + v for key, v in t.items() if v != 0}


def isotropy_form_failures(triples, modules):
    """The failures of a three-form's nonzero triples (p, q, r), p < q < r:
    an isotropy x and a tangent i with an isotropy j, so that [x, e_i]
    leaves the tangent space, or with a tangent j outside i's module."""
    module = {i: m for m in modules for i in m}
    tangent, failures = CosetModel.TANGENT, set()
    for p, q, r in triples:
        if p < tangent <= r:
            if q >= tangent:
                failures.add("isotropy bracket leaves the tangent space")
            elif q not in module[p]:
                failures.add("isotropy action does not preserve the modules")
    return failures


def symbolic_cartan(kind, basis, monkeypatch):
    """The spec's Cartan elements over g at the symbolic indices: Q's on two
    symbolic kernel vectors (x1, y1, z1) and (x2, y2, z2) in place of
    ``_kernel_basis_1x3``'s rows, M's the basis's e10 and e11."""
    vectors = [tuple(SYMBOL[f"{c}{n}"] for c in "xyz") for n in (1, 2)]
    monkeypatch.setattr(homogeneous, "_kernel_basis_1x3", lambda *indices: vectors)
    indices = tuple(SYMBOL[name] for name in model_spec(kind).index_names)
    return MODEL_SPECS[kind].cartan(SimpleNamespace(indices=indices, basis=basis))


def cartan_weights(kind, basis, norms, cartan):
    """(failures, weights) of Cartan elements x = S_x / D_x over g on a
    basis's tangent space of norms N.  The failures: an x that is not
    q-orthogonal to the tangent space on the kernel of k x + l y + m z = 0,
    and on an invariant plane (i, j) a part of ad_x e_i or ad_x e_j outside
    it, a speed c^j_xi = t_xij D_j / (D_x D_i N_j) that is not -c^i_xj, that
    is D_j^2 N_i != D_i^2 N_j where t_xij != 0, or one with a coefficient
    that is not an integer.  weights[plane] holds each x's c^j_xi."""
    tangent, g_norms, planes = CosetModel.TANGENT, _algebra(kind)[1], MODEL_SPECS[kind].planes
    dens, failures, speeds = [d for d, _ in basis], set(), []
    for dx, x in cartan:
        for _, p in basis[:tangent]:
            dot = sum((c * p.get(a, 0) * g_norms[a] for a, c in x.items()), constant(0))
            if not dot.subs(ON_THE_KERNEL).is_zero:
                failures.add("Cartan element is not in the isotropy algebra")
        form = pulled_back(kind, (*basis[:tangent], (dx, x)))  # t_xij under (i, j, 7)
        speed = {}
        for i, j in planes:
            if any((p in (i, j)) != (q in (i, j)) for p, q, r in form if r == tangent):
                failures.add("isotropy action leaves an invariant plane")
            t = form.get((i, j, tangent), constant(0))
            if t * (dens[j] ** 2 * norms[i] - dens[i] ** 2 * norms[j]) != 0:
                failures.add("isotropy action is not skew on an invariant plane")
            speed[i, j] = t * (Fraction(dens[j], dx * dens[i]) / norms[j].constant_value())
            if any(c.denominator != 1 for c in speed[i, j].terms.values()):
                failures.add("non-integer weight on the chosen Cartan basis")
        speeds.append(speed)
    return failures, [tuple(speed[plane] for speed in speeds) for plane in planes]


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_every_model_basis_is_a_q_orthogonal_basis_of_g(kind):
    """At every index tuple the basis formula gives dim g elements, q is
    diagonal on them, and each norm N_i = sum_a P_ia^2 N_a is positive at
    every normalized index tuple: the basis is a basis of g, a model's
    structure is g's in that basis, and the build's norms are the one-line
    sum, which this is."""
    basis = symbolic_basis(kind)
    rows = gram(kind, basis)
    assert gram_failure(kind, rows, len(_ALGEBRA[kind])) is None
    assert _change_of_basis(*_algebra(kind), basis)[1] == tuple(row[0] for row in rows)


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_every_isotropy_algebra_keeps_the_tangent_space_and_each_module(kind):
    """At every index tuple no nonzero triple of the pulled-back three-form
    holds an isotropy x, a tangent i and an isotropy j, or a tangent j
    outside i's module: [x, e_i] lies in i's module, and some does not
    vanish."""
    form = pulled_back(kind, symbolic_basis(kind))
    assert isotropy_form_failures(form, MODEL_SPECS[kind].modules) == set()
    assert any(p < CosetModel.TANGENT <= r for p, _, r in form)


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_every_cartan_element_turns_each_invariant_plane_at_an_integer_speed(kind, monkeypatch):
    """At every index tuple the spec's Cartan elements lie in the isotropy
    algebra (Q's by k x + l y + m z = 0) and turn each invariant plane into
    itself, skew, at a speed polynomial in the indices and the kernel
    vectors with integer coefficients: ``_ad`` and ``isotropy_weights`` need
    no membership, leak, skew or integer check.  On Q the weights on the
    three planes are minus the kernel vectors' x, y and z; on M they are
    (1, l), (-1, l), (0, 2k)."""
    basis = symbolic_basis(kind)
    norms = [row[0] for row in gram(kind, basis)]
    failures, weights = cartan_weights(kind, basis, norms, symbolic_cartan(kind, basis, monkeypatch))
    assert failures == set()
    if kind == "Q":
        assert weights == [(-SYMBOL[f"{c}1"], -SYMBOL[f"{c}2"]) for c in "xyz"]
    else:
        assert weights == [(constant(1), SYMBOL["l"]), (constant(-1), SYMBOL["l"]), (constant(0), 2 * SYMBOL["k"])]


# Q(1,1,1) has q-norms 1/2 on e1..e6 and the sorted triples (0, 1, k) and
# (2, 3, k) for k = 6, 7, 8, (4, 5, 6) and (4, 5, 8); the Cartan element read
# on the plane (e1, e2) first is (g2 - g8) / 2 = (e8 + e9) / 2, of speed -1
# there.  The three-form checks are tripped by edits of it; the Cartan checks
# read G, the basis and the norms, and are tripped by the norms, by a basis
# whose planes the Cartan does not keep (e3 or e7 in e2's place, and ad_x e1
# leaks out of the plane (e1, e2)), or by an element outside the isotropy
# algebra.  A Cartan element that moves the fixed line e7 is seen as a leak
# from the plane it moves into.
@pytest.mark.parametrize(
    "how,what,message",
    [
        ("form", {(0, 2, 7): 4}, "isotropy action does not preserve the modules"),
        ("form", {(0, 7, 8): 4}, "isotropy bracket leaves the tangent space"),
        ("norms", (4, 2, 2, 2, 2, 2, 6, 4, 12), "isotropy action is not skew on an invariant plane"),
        ("swap", (1, 2), "isotropy action leaves an invariant plane"),
        ("swap", (1, 6), "isotropy action leaves an invariant plane"),
        ("norms", (4, 4, 2, 2, 2, 2, 6, 4, 12), "non-integer weight on the chosen Cartan basis"),
        ("cartan", (2, {2: 1}), "Cartan element is not in the isotropy algebra"),
    ],
    ids=["modules", "tangent", "plane-skew", "plane-leak", "fixed-line", "weight", "membership"],
)
def test_isotropy_checks_reject_tampered_structure(how, what, message):
    """The proofs' isotropy checks, which no build runs, pass on Q(1,1,1)
    and fail on it tampered, each edit with one message: the three-form's
    on its edits, the Cartan elements' on edited norms, a swapped basis or
    an element outside the isotropy algebra."""
    model = q_model(1, 1, 1)
    cartan = MODEL_SPECS["Q"].cartan(model)
    if how == "form":
        model = tampered_q111(what)
    elif how == "norms":
        model = tampered_q111({}, what)
    elif how == "swap":
        model = swapped_q111(*what)
    else:
        cartan = [*cartan, what]
    form_failures = isotropy_form_failures([t[:3] for t in model.structure], model.modules)
    cartan_failures, _ = cartan_weights("Q", model.basis, [constant(v) for v in model.norms], cartan)
    assert (form_failures if how == "form" else cartan_failures) == {message}


@pytest.mark.parametrize("kind,indices", [("Q", (1, 1, 1)), ("M", (1, 1)), ("Q", (3, 2, 1)), ("M", (5, 3))])
def test_the_triple_isotropy_check_fails_first_where_the_row_scan_does(kind, indices):
    """On seeded edits of one to three triples {x, i, j} of the three-form,
    x isotropy and i tangent, some with j in i's module, the proofs' check
    read off the triples fails exactly where a scan of the ``Fraction`` rows
    does, with the same messages: both messages, alone and together, and a
    pass."""
    rng, model, seen = random.Random(43), get_model(kind, indices), []
    modules = {i: m for m in model.modules for i in m}
    for _ in range(300):
        edits = {}
        for _ in range(rng.randint(1, 3)):
            x, i = rng.choice(isotropy_indices(model)), rng.randrange(model.TANGENT)
            others = [j for j in (modules[i] if rng.random() < 0.6 else range(model.n)) if j not in (i, x)]
            if others:
                edits[tuple(sorted((x, i, rng.choice(others))))] = rng.choice([-2, -1, 1, 2])
        edited = tampered(model, edits)
        seen.append(isotropy_form_failures([t[:3] for t in edited.structure], edited.modules))
        assert seen[-1] == isotropy_scan(edited)
    assert set() in seen and set().union(*seen) == {
        "isotropy bracket leaves the tangent space",
        "isotropy action does not preserve the modules",
    }


def isotropy_scan(model):
    """The failures of the isotropy action by its definition on the
    ``Fraction`` rows: for each isotropy x, tangent i and c^j_xi != 0, a j
    off the tangent space or outside i's module."""
    rows, module, failures = structure_rows(model), {i: m for m in model.modules for i in m}, set()
    for x in isotropy_indices(model):
        for i in range(model.TANGENT):
            for j in rows[x][i]:
                if j >= model.TANGENT:
                    failures.add("isotropy bracket leaves the tangent space")
                elif j not in module[i]:
                    failures.add("isotropy action does not preserve the modules")
    return failures


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


def test_classification_normalizes_input():
    assert classify_invariant_g2(q_model(-1, 1, -1))
    assert q_model(2, 2, 2).indices == (1, 1, 1)
    assert m_model(3, -3).indices == (1, 1)


def test_the_weight_pattern_needs_pairwise_independent_weights(monkeypatch):
    """The G2 pattern's weights u, v, u + v are pairwise independent, and
    every model's are wherever a +-1 combination of them vanishes, so
    ``classify_invariant_g2`` reads only the combination.  At every index
    tuple a model's 3 x 2 weight matrix has rank 2, and two dependent rows
    of it with a vanishing combination would put the third on their line.
    On M the sum of the squared 2 x 2 minors is positive at every
    normalized index tuple; on Q it is |u_1 x u_2|^2 for the two Cartan
    vectors, which ``_kernel_basis_1x3`` gives independent, their cross
    product being +-(k, l, m) (``test_kernel_basis_matches_the_gcd_sweep``)."""
    for kind in ("Q", "M"):
        basis = symbolic_basis(kind)
        norms = [row[0] for row in gram(kind, basis)]
        _, weights = cartan_weights(kind, basis, norms, symbolic_cartan(kind, basis, monkeypatch))
        minors = sum(((u[0] * v[1] - u[1] * v[0]) ** 2 for u, v in itertools.combinations(weights, 2)), constant(0))
        if kind == "M":
            assert positive_at_every_model(kind, minors)
        else:
            (x1, y1, z1), (x2, y2, z2) = ([SYMBOL[f"{c}{n}"] for c in "xyz"] for n in (1, 2))
            assert minors == (y1 * z2 - z1 * y2) ** 2 + (z1 * x2 - x1 * z2) ** 2 + (x1 * y2 - y1 * x2) ** 2


def cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def test_only_q111_and_m11_admit_an_invariant_g2_structure(monkeypatch):
    """At any indices Q(1,1,1) and M(1,1) are the only admissible models, so
    what the tests prove of their structures holds for every structure a
    build gives.  ``classify_invariant_g2`` asks for signs s, t with
    w_1 + s w_2 + t w_3 = 0 on the weights, here the symbolic ones.  On Q
    the weights are minus the Cartan vectors' x, y and z, so entry n of the
    combination is -(u_n . v) for v = (1, s, t), and the identity
    (u_1 x u_2) x v = u_2 (u_1 . v) - u_1 (u_2 . v) holds: a vanishing
    combination puts v normal to the Cartan span, parallel to
    u_1 x u_2 = +-(k, l, m) (``test_kernel_basis_matches_the_gcd_sweep``),
    so |k| = |l| = |m| and the model is Q(1,1,1).  On M the combination is
    (1 - s, (1 + s) l + 2 t k): s = 1, and (k, l) spans the kernel of the
    linear form 2 t k + 2 l, so k = l = 1."""
    admissible = {"Q": set(), "M": set()}
    for kind in admissible:
        basis = symbolic_basis(kind)
        norms = [row[0] for row in gram(kind, basis)]
        _, (w1, w2, w3) = cartan_weights(kind, basis, norms, symbolic_cartan(kind, basis, monkeypatch))
        for s, t in itertools.product((1, -1), repeat=2):
            combination = [a + s * b + t * c for a, b, c in zip(w1, w2, w3)]
            if kind == "Q":
                u1, u2 = ([SYMBOL[f"{c}{n}"] for c in "xyz"] for n in (1, 2))
                v = [constant(1), constant(s), constant(t)]
                assert cross(cross(u1, u2), v) == [a * combination[1] - b * combination[0] for a, b in zip(u1, u2)]
                admissible[kind].add(q_model(1, s, t).indices)
            else:
                first, second = combination
                assert first == constant(1 - s)
                if first.is_zero:
                    terms = second.named_terms()
                    assert all(len(exps) == 1 and set(exps.values()) == {1} for _, exps in terms)
                    form = {name: int(c) for c, exps in terms for name in exps}  # a linear form in k, l
                    admissible[kind].add(m_model(form.get("l", 0), -form.get("k", 0)).indices)
    assert admissible == {kind: set(tuples) for kind, tuples in ADMISSIBLE.items()}
    monkeypatch.undo()  # the real Cartan vectors
    assert all(classify_invariant_g2(get_model(kind, indices)) for kind, (indices,) in admissible.items())


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
# the checks of the matrix path on small bases
# ---------------------------------------------------------------------------

# one-block matrices {packed (block, row, col): (re, im)}
S1 = {pack(0, 0, 1): (0, 1), pack(0, 1, 0): (0, 1)}
S2 = {pack(0, 0, 1): (1, 0), pack(0, 1, 0): (-1, 0)}
SIGMA_X = {pack(0, 0, 1): (1, 0), pack(0, 1, 0): (1, 0)}  # hermitian
S1_PLUS_S2 = {pack(0, 0, 1): (1, 1), pack(0, 1, 0): (-1, 1)}


def g_failure(mats):
    """The first failure of g's checks on a basis of matrices, or None: a
    product q that is not real (``gq_reference`` raises), a q-Gram matrix
    that is not diagonal and positive (``gram_failure``, in row-major
    order), or a bracket of two elements outside their span.  ``_algebra``
    runs none of them; ``test_g_is_real_orthogonal_positive_and_closed``
    runs them once on g's matrices."""
    try:
        rows = [[constant(gq_reference(x, y)) for y in mats[i:]] for i, x in enumerate(mats)]
        failure = gram_failure(None, rows, len(mats))
        brackets = (gbracket_reference(x, y) for x, y in itertools.combinations(mats, 2))
        if failure is None and not all(in_span_reference(br, mats)[1] for br in brackets):
            failure = "basis is not closed under brackets"
        return failure
    except ModelError as exc:
        return str(exc)


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
    """The exact checks that ``_build_structure`` leaves to the tests reject
    a small basis that is not real, not positive, not q-orthogonal or not
    closed, so their passing on g's matrices says something."""
    assert message in (g_failure(basis) or "")


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_g_is_real_orthogonal_positive_and_closed(kind):
    """g's own checks, once: on g's matrices every product q is real, the
    q-Gram matrix is diagonal and positive, and every bracket lies in the
    span, so ``_algebra`` reads G and the norms alone."""
    assert g_failure([s for _, s in model_matrices(kind, [(1, {a: 1}) for a in range(len(_ALGEBRA[kind]))])]) is None


def test_the_stored_table_view_keeps_the_golden_order():
    golden = json.loads(GOLDEN_MODELS.read_text())
    for record, (kind, indices) in zip(golden, sweep_tuples()):
        table = structure_table(get_model(kind, indices))
        in_order = [[i, j, [[k, str(c)] for k, c in coeffs.items()]] for (i, j), coeffs in table.items()]
        assert in_order == record["structure"]


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
# each model's three-form, norms, constants, Maurer-Cartan forms, ad_x and
# weights against the matrix path and the Fraction views, on one grid
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


def jacobi_holds(form, norms):
    """The Jacobi identity, in Fraction arithmetic, on every triple of the
    constants of a three-form over a basis of norms N (D = 1)."""
    n = len(norms)
    rows = fraction_rows(n, form_table(form, [1] * n, norms))
    for i, j, k in itertools.combinations(range(n), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for mid, cm in rows[a][b].items():
                for fin, cf in rows[mid][c].items():
                    acc[fin] = acc.get(fin, 0) + cm * cf
        if any(acc.values()):
            return False
    return True


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
# bases taken at their indices as given, not normalized, and the inputs of
# models that normalize them
NEGATIVE = [("Q", (-3, 2, 1)), ("Q", (2, -1, -1)), ("M", (-1, 1)), ("M", (-2, 4)), ("M", (3, -7))]
# every sorted Q triple in 0..12, every M pair in -12..12, and the huge and
# negative indices, each read as given: the one grid of the model-layer tests
TABLE_GRID = {
    "q-up-to-12": [("Q", t[::-1]) for t in itertools.combinations_with_replacement(range(13), 3) if any(t)],
    "m-within-12": [("M", t) for t in itertools.product(range(-12, 13), repeat=2) if any(t)],
    "huge-negative": TUPLE_SETS["huge"] + NEGATIVE,
}


def test_the_tuple_sets_cover_every_index_tuple_up_to_12():
    """The sets partition the coprime tuples up to 12, and the grid holds
    every tuple of them and of the negative inputs, so a test moved onto the
    grid keeps every tuple it had."""
    sweep, rest = TUPLE_SETS["sweep"], TUPLE_SETS["up-to-12"]
    assert len(sweep) == 61 and len(rest) == 334 + 93 - 61
    assert set(sweep) | set(rest) == set(index_tuples(12))
    grid = {t for tuples in TABLE_GRID.values() for t in tuples}
    assert grid.issuperset(itertools.chain(*TUPLE_SETS.values(), NEGATIVE))


BLOCK_SIZES = {"Q": (2, 2, 2), "M": (3, 2)}


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


def matrix_build(kind, basis):
    """The matrix path on the basis's matrices, made once per basis (many
    bases are met more than once): the three-form t_ijk = q([S_i, S_j], S_k),
    i < j < k, and the norms q(S_i, S_i), straight from the matrices."""
    return _matrix_build(kind, tuple((d, tuple((a, c) for a, c in p.items() if c)) for d, p in basis))


@functools.lru_cache(maxsize=None)
def _matrix_build(kind, basis):
    return _build_structure([s for _, s in model_matrices(kind, tuple((d, dict(p)) for d, p in basis))])


def grid_bases(name):
    """(kind, indices, model, basis) for each grid tuple's basis as given,
    zero coordinates dropped, then its model's normalized basis where that
    is another basis."""
    for kind, indices in TABLE_GRID[name]:
        model = get_model(kind, indices)
        given = tuple((d, {a: c for a, c in p.items() if c}) for d, p in BASES[kind](*indices))
        yield kind, indices, model, given
        if model.basis != given:
            yield kind, indices, model, model.basis


@pytest.mark.parametrize("name", TABLE_GRID)
def test_the_rows_view_of_the_triples_is_the_table_the_build_wrote(name):
    """Every grid basis builds, and its three-form and norms are the matrix
    build's, triple for triple and in the same order; the constants
    ``_constants`` reads off them over its scale L are the matrix build's
    c^k_ij = t_ijk D_k / (D_i D_j N_k), compared across the fraction bars.
    Every isotropy x acts q-skew on them, c^j_xi q(X_j, X_j) =
    -c^i_xj q(X_i, X_i) with q(X_i, X_i) = N_i / D_i^2, the property the
    build does not check.  The matrix build lists distinct sorted triples
    i < j < k with a nonzero t, so t_jik = -t_ijk and the zero t of a
    repeated index hold by storage, as every reader of the triples needs;
    the model stores the form and norms of its normalized basis."""
    for kind, indices, model, basis in grid_bases(name):
        got, want = _change_of_basis(*_algebra(kind), basis), matrix_build(kind, basis)
        assert got == want and repr(got) == repr(want), (kind, indices)
        if basis == model.basis:
            assert got == (model.structure, model.norms), (kind, indices)
        (form, norms), dens = got, [d for d, _ in basis]
        scale, read = _constants(dens, norms)
        cells = {}  # L c^k_ij under (i, j, k), for both orders of i, j
        for p, q, r, t in form:
            for (i, j, k), v, tk in zip(((p, q, r), (p, r, q), (q, r, p)), read(p, q, r, t), (t, -t, t)):
                assert v * dens[i] * dens[j] * norms[k] == tk * dens[k] * scale, (kind, indices, (i, j, k))
                cells[(i, j, k)], cells[(j, i, k)] = v, -v
        for p, q, r, _ in form:
            for x, i, j in ((p, q, r), (q, p, r), (r, p, q)):
                if x >= CosetModel.TANGENT:
                    skew = cells[(x, i, j)] * norms[j] * dens[i] ** 2 + cells[(x, j, i)] * norms[i] * dens[j] ** 2
                    assert skew == 0, (kind, indices, (x, i, j))


@pytest.mark.parametrize("name", TABLE_GRID)
def test_maurer_cartan_from_the_triples_is_the_forms_of_the_written_table(name):
    """The forms ``maurer_cartan`` builds from each grid basis's three-form
    have the masks, values and term insertion order of the forms written from
    the matrix build's table, de^i = -sum_{j<k} c^i_jk e^j ^ e^k with the
    pairs (j, k) in row-major order, so ``derive``'s output does not depend
    on how the constants are read."""
    for kind, indices, model, basis in grid_bases(name):
        form, norms = matrix_build(kind, basis)
        forms = maurer_cartan(replace(model, basis=basis, structure=form, norms=norms))
        n = len(basis)
        assert [(de.gens, de.dt_index) for de in forms] == [(group_gens(model), n)] * n
        table = form_table(form, [d for d, _ in basis], norms)
        want = [[((1 << j) | (1 << k), -coeffs[i]) for (j, k), coeffs in table.items() if i in coeffs] for i in range(n)]
        assert [repr(list(de.terms.items())) for de in forms] == list(map(repr, want)), (kind, indices)


def combined(*terms):
    """sum c X over the product of the denominators, for the terms
    (c, (D, {a: P_a})) of elements over g."""
    den, x = math.prod(d for _, (d, _) in terms), {}
    for c, (d, p) in terms:
        for a, v in p.items():
            x[a] = x.get(a, 0) + c * v * (den // d)
    return den, x


def cartan_candidates(model):
    """Elements (D, {a: P_a}) over g in the isotropy algebra: the spec's two
    Cartan elements and one integer combination, each at two scales."""
    u, v = MODEL_SPECS[model.kind].cartan(model)
    return [(d * s, p) for d, p in (u, v, combined((3, u), (-2, v))) for s in (1, 3)]


def ad_fractions(ad):
    """``_ad``'s (rows, L) of one element as rows of ``Fraction`` c^j_xi."""
    rows, scale = ad
    return [{j: Fraction(c, scale) for j, c in row.items()} for row in rows]


def assert_ad_is_read_off_the_rows(model):
    """``_ad`` of each isotropy generator and each ``cartan_candidates``
    element, in one call, is ad_x on the tangent space read off the Fraction
    rows at its coordinates over the model's basis, ``isotropy_coords``'s."""
    isotropy, candidates = isotropy_indices(model), cartan_candidates(model)
    elements = [model.basis[y] for y in isotropy] + candidates
    coords = [{y: Fraction(1)} for y in isotropy] + [isotropy_coords(model, x) for x in candidates]
    got = _ad(model, elements)
    assert len(got) == len(coords)
    for ad, x in zip(got, coords):
        assert ad_fractions(ad) == ad_all_rows(model, x)[: model.TANGENT]


@pytest.mark.parametrize("name", TABLE_GRID)
def test_ad_on_the_isotropy_algebra_is_read_off_the_rows_view(name):
    """``assert_ad_is_read_off_the_rows`` on every model of the grid and on
    its tangent basis reversed, and each model's weights and verdict: the
    weights on the ``Fraction`` Cartan coordinates, and G2 exactly at the
    unit indices."""
    models = {(kind, get_model(kind, indices).indices) for kind, indices in TABLE_GRID[name]}
    for model in (get_model(kind, indices) for kind, indices in sorted(models)):
        assert_ad_is_read_off_the_rows(model)
        assert isotropy_weights(model) == weights_by_fraction_cartan(model), model.indices
        assert classify_invariant_g2(model) == (set(model.indices) == {1}), model.indices
        # the tangent elements reversed: each t_xij, i < j, is summed from the
        # other order of each pair of G's ad rows
        assert_ad_is_read_off_the_rows(permuted(model, [*reversed(range(model.TANGENT)), *isotropy_indices(model)]))


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
        packed = model_matrices(kind, BASES[kind](*indices))
        placed = tuple_assembled(kind, BASES[kind](*indices))
        assert len(packed) == len(placed)
        for (d, s), (d0, s0) in zip(packed, placed):
            assert d == d0
            assert len(s) == len(s0) and {unpack(key): v for key, v in s.items()} == s0, (kind, indices)
            assert set(s0) <= set(positions[kind])


@pytest.mark.parametrize("kind,i", [("Q", 0), ("Q", 6), ("M", 4), ("M", 10)])
def test_a_basis_element_over_a_doubled_denominator_gives_the_same_model(kind, i):
    """X = S / D = 2S / 2D: its integer norm N = q(S, S) quadruples, the
    triples that hold i double, and q(X, X) = N / D^2 stays, so the
    constants, the q-norms and the weights stay."""
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
    """The q-Gram matrix that the proofs read off a basis's coordinates,
    sum_a P_ia P_ja N_a, is the one of its matrices, and ``gram_failure``
    rejects each tampered unit basis with the same message on both, at the
    row-major first failure; a basis shorter than g's fails as not closed
    only after the q-Gram scan has passed."""
    basis = edited(kind, edits)
    mats = [s for _, s in model_matrices(kind, basis)]
    from_matrices = [[constant(gq_reference(x, y)) for y in mats[i:]] for i, x in enumerate(mats)]
    assert gram(kind, basis) == from_matrices
    size = len(_ALGEBRA[kind])
    failure = gram_failure(kind, gram(kind, basis), size)
    assert failure == gram_failure(kind, from_matrices, size) and message in failure
    assert gram_failure(kind, gram(kind, edited(kind, {})), size) is None


@st.composite
def integer_bases(draw):
    """A basis over g of integer coordinates: D in 1..4 and coordinates in
    -5..5 per element, dim g elements or one fewer.  Element i has a nonzero
    coordinate on g_{order_i} for a drawn order, so the elements are mostly
    independent."""
    kind = draw(st.sampled_from(["Q", "M"]))
    norms = _algebra(kind)[1]
    size = draw(st.sampled_from([len(norms), len(norms) - 1]))
    vectors = []
    for a in draw(st.permutations(range(len(norms))))[:size]:
        v = draw(st.lists(st.integers(-5, 5), min_size=len(norms), max_size=len(norms)))
        v[a] = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
        vectors.append(v)
    return kind, tuple((draw(st.integers(1, 4)), {a: c for a, c in enumerate(v) if c}) for v in vectors)


@seed(15701675048555244247100204733004659790823186216251561346229074560746096995680204982680095834647414816347992398442492)
@settings(max_examples=100, deadline=None, database=None)
@given(integer_bases())
def test_the_pulled_back_build_is_the_matrix_build_on_random_bases(case):
    """On any integer basis over g, q-orthogonal or not, the pullback of g's
    three-form and the sums of g's norms give the three-form and the norms
    of the matrix path on the basis's matrices: t_ijk and q(S_i, S_i) are
    multilinear in the coordinates, and g's basis is q-orthogonal.  A drawn
    basis meets g's triples in every order of (i, j, k), which the grids'
    bases do not."""
    kind, basis = case
    got = _change_of_basis(*_algebra(kind), basis)
    want = matrix_build(kind, basis)
    assert got == want and repr(got) == repr(want)


def test_a_fresh_sweep_builds_each_kinds_algebra_once():
    """Every model of a kind is a pullback of one three-form: a fresh
    61-model sweep runs the matrix path twice, on g's 9 and 11 elements,
    which make su(2)^3's 3 and su(3) + su(2)'s 10 nonzero sorted triples.
    The builds and classifications make no ``Fraction``; the Maurer-Cartan
    forms after them do, so the count is seen to work."""
    child = (
        "import fractions, json, sys\n"
        "import holoflow.homogeneous as h\n"
        "real, sizes, forms = h._build_structure, [], []\n"
        "def build(mats):\n"
        "    triples, norms = real(mats)\n"
        "    sizes.append(len(mats))\n"
        "    forms.append(len(triples))\n"
        "    return triples, norms\n"
        "h._build_structure = build\n"
        "new, made = fractions.Fraction.__new__, []\n"
        "def counted(cls, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    return new(cls, *args, **kwargs)\n"
        "fractions.Fraction.__new__ = counted\n"
        "for kind, indices in json.loads(sys.argv[1]):\n"
        "    h.classify_invariant_g2(h.get_model(kind, indices))\n"
        "in_sweep = len(made)\n"
        "h.maurer_cartan(h.q_model(1, 1, 1))\n"
        "print(json.dumps([sizes, forms, in_sweep, len(made) > in_sweep]))\n"
    )
    src = str(Path(homogeneous.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-c", child, json.dumps(TUPLE_SETS["sweep"])]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[9, 11], [3, 10], 0, True]


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_g_three_form_is_antisymmetric_and_jacobi_by_construction(kind):
    """Why ``_algebra`` checks neither antisymmetry nor the Jacobi identity:
    on g's matrices the full ordered table G_abc = q([g_a, g_b], g_c), every
    bracket and product by the reference loops, is totally antisymmetric,
    since the trace is cyclic, its sorted triples are the stored ones, and
    their constants satisfy the Jacobi identity, which commutators do.  The
    loops also hold the primitives of the matrix path, ``_gbracket`` and
    ``_q``, on every ordered pair."""
    n, (form, norms) = len(_ALGEBRA[kind]), _algebra(kind)
    mats = [s for _, s in model_matrices(kind, [(1, {a: 1}) for a in range(n)])]
    G = {}
    for a, b in itertools.product(range(n), repeat=2):
        br = gbracket_reference(mats[a], mats[b])
        assert _gbracket(mats[a], mats[b]) == br, (kind, a, b)
        for c, x in enumerate(mats):
            G[(a, b, c)] = gq_reference(br, x)
            assert _q(br, x) == G[(a, b, c)], (kind, a, b, c)
    for (a, b, c), v in G.items():
        assert G[(b, c, a)] == v and G[(b, a, c)] == -v and G[(a, c, b)] == -v, (kind, a, b, c)
    assert tuple((a, b, c, v) for (a, b, c), v in sorted(G.items()) if a < b < c and v) == form
    assert norms == tuple(gq_reference(x, x) for x in mats)
    assert jacobi_holds(form, norms)


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


@seed(9820070900293093032411990085693932034597445586571722644763639653989409518779010298507179347629195232859800323944955)
@settings(max_examples=200, deadline=None, database=None)
@given(sweep_basis_elements())
def test_an_element_over_g_is_in_the_isotropy_span_iff_it_is_q_orthogonal_to_the_tangent_space(case):
    """Every X over g lies in the span of a whole basis, a basis of g, and
    in the span of a part exactly where its products with the rest of the
    basis vanish: why a Cartan element q-orthogonal to the tangent space
    lies in the isotropy algebra.  On the isotropy part ``_ad`` gives ad_x
    read off the Fraction rows where X is in the span."""
    kind, indices, part, x = case
    model = get_model(kind, indices)
    mats = [s for _, s in model_matrices(kind, model.basis)]
    inside = range(model.n)[PARTS[part]]
    ((_, matrix),) = model_matrices(kind, [(1, x)])
    t, in_span = in_span_reference(matrix, [mats[k] for k in inside])
    assert in_span == (not any(gq_reference(matrix, s) for k, s in enumerate(mats) if k not in inside))
    if part == "all":
        assert in_span
    if part == "isotropy" and in_span:
        coords = {7 + k: Fraction(tk * model.basis[7 + k][0], model.norms[7 + k]) for k, tk in enumerate(t) if tk}
        (ad,) = _ad(model, [(1, x)])
        assert ad_fractions(ad) == ad_all_rows(model, coords)[: model.TANGENT]


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


def in_lattice(row, echelon):
    """Whether ``row`` is an integer combination of the ``echelon`` rows,
    reduced against each row's pivot in turn."""
    for top in echelon:
        col = next(c for c, v in enumerate(top) if v)
        qt, rest = divmod(row[col], top[col])
        if rest:
            return False
        row = [x - qt * y for x, y in zip(row, top)]
    return not any(row)


def minors_gcd(rows, r):
    """The gcd of the r x r minors of integer rows of length 3."""
    minors = []
    for picked in itertools.combinations(rows, r):
        for cols in itertools.combinations(range(3), r):
            sub = [[row[c] for c in cols] for row in picked]
            minors.append(determinant(sub) if r == 3 else sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
    return math.gcd(*minors)


@seed(28679644985509114482801117154228453791979300422402753761367715386982453769702111339155554241415149514131344329326336)
@settings(max_examples=300, deadline=None, database=None)
@given(row_sets())
def test_the_hnf_is_the_reduced_echelon_basis_of_the_row_lattice(rows):
    """By definition of the HNF, which makes it unique: the nonzero rows come
    first with their pivots in ascending columns, each pivot is positive and
    reduces the entries above it to 0 <= e < pivot, and the rows span the
    lattice of the input.  The input lies in the span of the output, and the
    two have the same gcd of maximal minors, so neither is a sublattice of
    index > 1 of the other."""
    got = _hnf_rows(rows)
    rank = rank3(rows)
    echelon = got[:rank]
    assert len(got) == 3 and all(map(any, echelon)) and not any(map(any, got[rank:]))
    pivots = [next(c for c, v in enumerate(row) if v) for row in echelon]
    assert pivots == sorted(set(pivots))
    for r, (row, col) in enumerate(zip(echelon, pivots)):
        assert row[col] > 0
        assert all(0 <= above[col] < row[col] for above in echelon[:r])
    assert all(in_lattice(list(row), echelon) for row in rows)
    assert minors_gcd(echelon, rank) == minors_gcd(rows, rank)


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
    s1, s2, s3 = (abs(u1[i].get(j, 0)) for i, j in ((0, 1), (2, 3), (4, 5)))
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
