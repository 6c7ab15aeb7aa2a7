"""Symbolic derivation of the holonomy systems and the Kaehler search."""

from fractions import Fraction
from itertools import product

import pytest

from holoflow.algebra import LaurentPoly, Multivector, SymbolTable, wedge
from holoflow.flow import (
    DerivationError,
    _solve_linear,
    closure_residual,
    coefficient_map,
    cosymplectic_constraints,
    derivation,
    derive_flow,
    exterior_d_time,
    hitchin_residual,
    invariant_two_form_terms,
    kaehler_search,
)
from holoflow._record import replace
from holoflow.homogeneous import StructureTensor, invariant_d, m_model, q_model
from holoflow.structures import build_invariant_structure
from mutations import perturbed_system


def mono(table, coeff, exps):
    return LaurentPoly.monomial(table, coeff, exps)


def expected_q_rhs(table):
    return {
        "a": mono(table, Fraction(-1, 6), {"f": 1, "a": -1}),
        "b": mono(table, Fraction(-1, 6), {"f": 1, "b": -1}),
        "c": mono(table, Fraction(-1, 6), {"f": 1, "c": -1}),
        "f": (
            mono(table, Fraction(1, 6), {"f": 2, "a": -2})
            + mono(table, Fraction(1, 6), {"f": 2, "b": -2})
            + mono(table, Fraction(1, 6), {"f": 2, "c": -2})
            + LaurentPoly.const(table, -3)
        ),
    }


def expected_m_rhs(table):
    return {
        "a": mono(table, Fraction(3, 8), {"c": 1, "a": -1}),
        "b": mono(table, Fraction(1, 4), {"c": 1, "b": -1}),
        "c": (
            LaurentPoly.const(table, 8)
            + mono(table, Fraction(-1, 4), {"c": 2, "b": -2})
            + mono(table, Fraction(-3, 4), {"c": 2, "a": -2})
        ),
    }


def test_derive_flow_q_exact():
    sys = derive_flow(q_model(1, 1, 1))
    table = sys.table
    want = expected_q_rhs(table)
    for name in sys.state:
        assert sys.rhs[name] == want[name]
    assert sys.rank == 4


def test_derive_flow_m_exact():
    sys = derive_flow(m_model(1, 1))
    table = sys.table
    want = expected_m_rhs(table)
    for name in sys.state:
        assert sys.rhs[name] == want[name]
    assert sys.rank == 3


def test_back_substitution_annihilates_closure():
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        struct = build_invariant_structure(model)
        sys = derive_flow(model, struct)
        assert closure_residual(struct, sys).is_zero


def test_cosymplectic_constraints_empty():
    assert cosymplectic_constraints(q_model(1, 1, 1)) == []
    assert cosymplectic_constraints(m_model(1, 1)) == []


def test_cone_values_satisfy_cosymplectic_trivially():
    # the constraint list is empty, so any nonzero assignment passes; the
    # nearly parallel cone data is the distinguished example
    for poly in cosymplectic_constraints(q_model(1, 1, 1)):
        val = poly.eval({"a": 0.125**0.5, "b": 0.125**0.5, "c": 0.125**0.5, "f": 0.75})
        assert val == 0.0


def test_hitchin_residual_vanishes():
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        sys = derive_flow(model)
        assert hitchin_residual(model, sys).is_zero


def test_hitchin_residual_detects_perturbation():
    model = q_model(1, 1, 1)
    sys = perturbed_system(derive_flow(model), "a")
    res = hitchin_residual(model, sys)
    assert not res.is_zero
    # the defect sits in coefficients pairing the V1 plane with e7
    offending = {res.indices_of(m) for m in res.terms}
    assert (0, 2, 4, 6) in offending and (0, 1, 2, 3) in offending
    struct = build_invariant_structure(model)
    closure = closure_residual(struct, sys)
    assert not closure.is_zero


def test_kaehler_search_q():
    model = q_model(1, 1, 1)
    cert = kaehler_search(model, derive_flow(model))
    assert cert.signs == (1, 1, 1, 1)
    assert cert.all_solutions == ((1, 1, 1, 1), (-1, -1, -1, -1))
    assert cert.unique_up_to_sign


def test_kaehler_search_m():
    model = m_model(1, 1)
    cert = kaehler_search(model, derive_flow(model))
    assert cert.signs == (1, -1, 1)
    assert cert.all_solutions == ((1, -1, 1), (-1, 1, -1))


def _kaehler_brute_force(model, sys, struct):
    """Reference search: the full d(eta) of every signed sum, under the system."""
    basis = invariant_two_form_terms(model, struct)
    subs = sys.rhs_substitution(struct.table)
    winners = []
    for signs in product((1, -1), repeat=len(basis)):
        eta = Multivector.zero(struct.gens, struct.dt_index)
        for s, term in zip(signs, basis):
            eta = eta + (term if s == 1 else -term)
        d_eta = exterior_d_time(eta, model)
        if coefficient_map(d_eta, lambda p: p.subs(subs)).is_zero:
            winners.append((signs, eta, d_eta))
    return winners


@pytest.mark.parametrize(
    "model,perturb",
    [(q_model(1, 1, 1), None), (m_model(1, 1), None), (q_model(1, 1, 1), "a")],
    ids=["Q", "M", "Q-perturbed"],
)
def test_linear_kaehler_search_matches_brute_force(model, perturb):
    struct = build_invariant_structure(model)
    sys = derive_flow(model, struct)
    if perturb:
        sys = perturbed_system(sys, perturb)
    winners = _kaehler_brute_force(model, sys, struct)
    if len(winners) != 2:
        assert perturb  # the derived systems have a unique closed eta up to sign
        with pytest.raises(DerivationError):
            kaehler_search(model, sys, struct)
        return
    cert = kaehler_search(model, sys, struct)
    assert cert.all_solutions == tuple(signs for signs, _, _ in winners)
    signs, eta, d_eta = max(winners, key=lambda w: w[0])
    assert cert.signs == signs
    assert cert.eta == eta
    assert cert.d_eta == d_eta


def hand_written_two_forms(model, struct):
    """The invariant two-forms of each model, written out term by term."""
    table, gens, dt = struct.table, struct.gens, struct.dt_index

    def term(sym_exps, idx):
        coeff = LaurentPoly.monomial(table, 1, sym_exps)
        return Multivector.basis(gens, [i - 1 if i > 0 else dt for i in idx], coeff, dt_index=dt)

    if model.kind == "Q":
        return [
            term({"a": 2}, (1, 2)),
            term({"b": 2}, (3, 4)),
            term({"c": 2}, (5, 6)),
            term({"f": 1}, (7, 0)),  # f e7 ^ dt
        ]
    return [
        term({"a": 2}, (1, 2)) + term({"a": 2}, (3, 4)),
        term({"b": 2}, (5, 6)),
        term({"c": 1}, (7, 0)),
    ]


@pytest.mark.parametrize("model", [q_model(1, 1, 1), m_model(1, 1)], ids=["Q", "M"])
def test_invariant_two_forms_match_the_hand_written_lists(model):
    struct = build_invariant_structure(model)
    derived = invariant_two_form_terms(model, struct)
    expected = hand_written_two_forms(model, struct)
    assert derived == expected
    assert [list(f.terms) for f in derived] == [list(f.terms) for f in expected]


def test_derivation_is_built_once_and_matches_the_builders():
    model = m_model(1, 1)
    deriv = derivation(model)
    assert derivation(m_model(1, 1)) is deriv
    assert deriv.sys.rhs == derive_flow(model).rhs
    assert deriv.d_Omega == exterior_d_time(deriv.struct.Omega, model)
    assert deriv.cert.signs == kaehler_search(model, deriv.sys).signs


def test_a_tampered_model_used_first_changes_nothing_for_the_real_one():
    """Derived objects hang on the model they come from: a Q(1,1,1) with one
    structure constant doubled, used first, gets its own d and derivation."""
    model = q_model(1, 1, 1)
    table = {key: dict(v) for key, v in model.structure.table.items()}
    table[(0, 1)][6] *= 2
    tampered = replace(model, structure=StructureTensor.from_table(model.n, table))
    omega = build_invariant_structure(model).omega
    d_tampered = invariant_d(omega, tampered)
    assert derivation(tampered).model is tampered
    d_model = invariant_d(omega, model)
    assert d_model != d_tampered
    assert d_model == invariant_d(omega, q_model.__wrapped__(1, 1, 1))  # built afresh
    assert derivation(model).model is model
    assert derivation(model).sys.rhs == derive_flow(model).rhs


def test_eta_fourth_power_is_volume_multiple():
    model = q_model(1, 1, 1)
    cert = kaehler_search(model, derive_flow(model))
    power = cert.eta
    for _ in range(3):
        power = wedge(power, cert.eta)
    ((mask, poly),) = power.terms.items()
    ev = poly.eval({"a": 1.0, "b": 1.0, "c": 1.0, "f": 1.0})
    assert ev != 0.0
    # the single surviving subset is e1..e7 ^ dt
    assert bin(mask).count("1") == 8


def test_ode_parity_symmetries_by_formal_substitution():
    # a solution map x_i(t) -> eta_i * x_i(-t) preserves the system iff
    # rhs_i(eta * x) = -eta_i * rhs_i(x)
    sys = derive_flow(q_model(1, 1, 1))
    for signs in ({"a": 1, "b": 1, "c": 1, "f": -1}, {"a": -1, "b": 1, "c": 1, "f": -1}):
        flip = {n: s * LaurentPoly.variable(sys.table, n) for n, s in signs.items()}
        for name in sys.state:
            mapped = sys.rhs[name].subs(flip)
            assert mapped == sys.rhs[name] * Fraction(-signs[name])

    sysm = derive_flow(m_model(1, 1))
    for signs in (
        {"a": 1, "b": 1, "c": -1},
        {"a": 1, "b": -1, "c": -1},
        {"a": -1, "b": 1, "c": -1},
    ):
        flip = {n: s * LaurentPoly.variable(sysm.table, n) for n, s in signs.items()}
        for name in sysm.state:
            mapped = sysm.rhs[name].subs(flip)
            assert mapped == sysm.rhs[name] * Fraction(-signs[name])


def test_json_serialization_has_monomial_denominators():
    sys = derive_flow(m_model(1, 1))
    doc = sys.to_json_dict()
    assert doc["model"] == "M"
    assert doc["state"] == ["a", "b", "c"]
    a_rhs = doc["rhs"]["a"]
    assert len(a_rhs["denominator"]) == 1
    coeffs = {t["coeff"] for t in a_rhs["numerator"]}
    assert "3/8" in coeffs


# ---------------------------------------------------------------------------
# elimination in the Laurent ring
# ---------------------------------------------------------------------------

AB = SymbolTable(("a", "b"))


def test_solve_linear_with_monomial_pivots_is_exact():
    # a a' + b' - b - 3a = 0 and b^2 b' - 3a b^2 = 0: a' = b/a, b' = 3a
    a, b = LaurentPoly.variable(AB, "a"), LaurentPoly.variable(AB, "b")
    eqs = [
        ({"a": a, "b": LaurentPoly.const(AB, 1)}, -b - 3 * a),
        ({"b": b**2}, -3 * a * b**2),
    ]
    values, rank = _solve_linear(eqs, ("a", "b"), AB)
    assert rank == 2
    assert values == {"a": b * a**-1, "b": 3 * a}


def test_solve_linear_rejects_a_non_monomial_pivot():
    # a' appears only with the coefficient a + b, which is not a unit
    a, b = LaurentPoly.variable(AB, "a"), LaurentPoly.variable(AB, "b")
    eqs = [
        ({"a": a + b}, LaurentPoly.const(AB, -1)),
        ({"b": LaurentPoly.const(AB, 1)}, -a),
    ]
    with pytest.raises(DerivationError, match="monomial pivot"):
        _solve_linear(eqs, ("a", "b"), AB)
