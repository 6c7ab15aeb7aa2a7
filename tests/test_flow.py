"""Symbolic derivation of the holonomy systems and the Kaehler search."""

from fractions import Fraction
from itertools import product

import pytest

from holoflow import flow
from holoflow.algebra import LaurentPoly, Multivector, SymbolTable
from holoflow.flow import (
    DerivationError,
    KaehlerCertificate,
    _solve_linear,
    coefficient_map,
    derive_flow,
    exterior_d_time,
    invariant_two_form_terms,
    kaehler_search,
    split_dt,
    time_chain,
    under_system,
)
from holoflow._record import replace
from holoflow.homogeneous import invariant_d, m_model, q_model
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
        deriv = model.derivation
        sys = derive_flow(model)
        assert under_system(deriv.d_Omega, sys, deriv.struct.table).is_zero


def cosymplectic_constraints(model):
    """Polynomial constraints forcing d(*omega) = 0 on the orbit.

    An empty list means every structure in the invariant ansatz is
    cosymplectic.
    """
    star_omega, _ = split_dt(model.derivation.struct.Omega)
    d_star = invariant_d(star_omega, model)
    return [poly for _, poly in d_star.sorted_terms()]


def hitchin_residual(model, sys):
    """d/dt(*omega) - d_orbit(omega) under the derived system; contract: 0."""
    struct = model.derivation.struct
    star_omega, omega = split_dt(struct.Omega)
    lhs = under_system(time_chain(star_omega), sys, struct.table)
    rhs = invariant_d(omega, model)
    return lhs - rhs


@pytest.mark.parametrize("model", [q_model(1, 1, 1), m_model(1, 1)], ids=["Q", "M"])
def test_every_coefficient_of_d_Omega_is_linear_in_the_derivative_symbols(model):
    """Why ``_linear_system`` does not guard ``linear_in``: Omega's
    coefficients hold no derivative symbol, and ``time_chain`` adds
    sum(dc/dx * x'), so each coefficient of d(Omega) has degree at most 1 in
    the x', with no negative power."""
    deriv = model.derivation
    primes = range(deriv.struct.table.nbase, len(deriv.struct.table.names))

    def prime_exponents(form):
        return {tuple(vec[i] for i in primes) for poly in form.terms.values() for vec in poly.terms}

    assert prime_exponents(deriv.struct.Omega) == {(0,) * len(primes)}
    exponents = prime_exponents(deriv.d_Omega)
    assert all(min(e) >= 0 and sum(e) <= 1 for e in exponents)
    assert len(exponents) == 1 + len(primes)  # every x' occurs


TAMPERED_D_OMEGA = {
    "spatial": (
        lambda d, one: d + Multivector.basis(d.gens, [0, 1, 2, 3, 4], one, dt_index=d.dt_index),
        "spatial part of d(Omega) does not vanish identically: ",
    ),
    "inconsistent": (
        lambda d, one: d + Multivector.basis(d.gens, [0, 1, 2, 4, d.dt_index], one, dt_index=d.dt_index),
        "inconsistent closure equations",
    ),
    "underdetermined": (
        lambda d, one: Multivector(
            d.gens, {m: c for m, c in d.terms.items() if "f'" not in c.symbols()}, d.dt_index
        ),
        "underdetermined system; no pivot for ['f']",
    ),
}


@pytest.mark.parametrize("case", list(TAMPERED_D_OMEGA))
def test_derive_flow_rejects_a_tampered_d_Omega(case):
    """A fresh Q(1,1,1) whose cached d(Omega) gains a dt-free term, gains a
    dt term with no derivative symbol, or loses every term with f'."""
    edit, message = TAMPERED_D_OMEGA[case]
    model = replace(q_model(1, 1, 1))
    deriv = model.derivation
    vars(deriv)["d_Omega"] = edit(deriv.d_Omega, LaurentPoly.const(deriv.struct.table, 1))
    with pytest.raises(DerivationError) as got:
        derive_flow(model)
    assert str(got.value).startswith(message)


def test_derive_flow_rejects_a_system_that_does_not_close_d_Omega(monkeypatch):
    """The back-substitution check is d(Omega) = 0 under the derived system:
    an elimination that returned twice each right-hand side fails it."""
    real = flow._solve_linear

    def doubled(*args):
        values, rank = real(*args)
        return {x: 2 * p for x, p in values.items()}, rank

    monkeypatch.setattr(flow, "_solve_linear", doubled)
    with pytest.raises(DerivationError, match="^back-substitution of the derived system fails$"):
        derive_flow(q_model(1, 1, 1))


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
    deriv = model.derivation
    closure = under_system(deriv.d_Omega, sys, deriv.struct.table)
    assert not closure.is_zero


def test_kaehler_search_q():
    model = q_model(1, 1, 1)
    sys = derive_flow(model)
    cert = kaehler_search(model, sys)
    assert cert.signs == (1, 1, 1, 1)
    # the search returns only a unique pair, so the certificate keeps no list
    assert [name for name, _ in KaehlerCertificate.__record_fields__] == ["signs", "eta", "d_eta"]
    winners = _kaehler_brute_force(model, sys, model.derivation.struct)
    assert [signs for signs, _, _ in winners] == [(1, 1, 1, 1), (-1, -1, -1, -1)]


def test_kaehler_search_m():
    model = m_model(1, 1)
    sys = derive_flow(model)
    cert = kaehler_search(model, sys)
    assert cert.signs == (1, -1, 1)
    winners = _kaehler_brute_force(model, sys, model.derivation.struct)
    assert [signs for signs, _, _ in winners] == [(1, -1, 1), (-1, 1, -1)]


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
    struct = model.derivation.struct
    sys = derive_flow(model)
    if perturb:
        sys = perturbed_system(sys, perturb)
    winners = _kaehler_brute_force(model, sys, struct)
    if len(winners) != 2:
        assert perturb  # the derived systems have a unique closed eta up to sign
        with pytest.raises(DerivationError):
            kaehler_search(model, sys)
        return
    cert = kaehler_search(model, sys)
    assert [signs for signs, _, _ in winners] == [cert.signs, tuple(-x for x in cert.signs)]
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
    deriv = model.derivation
    assert m_model(1, 1).derivation is deriv
    assert deriv.sys.rhs == derive_flow(model).rhs
    assert deriv.d_Omega == exterior_d_time(deriv.struct.Omega, model)
    assert deriv.cert.signs == kaehler_search(model, deriv.sys).signs


def _count_builds(monkeypatch, *names):
    """Calls of each named ``flow`` global with the model they were given,
    in the order they return."""
    calls = []
    for name in names:
        real = getattr(flow, name)

        def counted(*args, _real=real, _name=name):
            out = _real(*args)
            calls.append((_name, args[-1] if _name == "exterior_d_time" else args[0]))
            return out

        monkeypatch.setattr(flow, name, counted)
    return calls


def test_models_asked_for_in_turn_build_each_structure_once(monkeypatch):
    """Q(2,2,2) and Q(1,1,1) normalize to the same indices but are two model
    objects; each keeps its own derivation, however often both are asked for."""
    calls = _count_builds(monkeypatch, "build_invariant_structure")
    first, second = q_model.__wrapped__(2, 2, 2), q_model.__wrapped__(1, 1, 1)
    for _ in range(2):
        assert first.derivation.struct.model is first
        assert second.derivation.struct.model is second
    assert len(calls) == 2
    assert calls[0][1] is first and calls[1][1] is second


def test_the_builders_read_the_models_derivation(monkeypatch):
    """``derive_flow`` and ``kaehler_search`` take the structure and d(Omega)
    of ``model.derivation``, so they build one of each per model object."""
    model = m_model.__wrapped__(1, 1)
    calls = _count_builds(monkeypatch, "build_invariant_structure", "exterior_d_time")
    sys = derive_flow(model)
    assert derive_flow(model) == sys
    assert [name for name, _ in calls] == ["build_invariant_structure", "exterior_d_time"]
    assert all(m is model for _, m in calls)
    deriv = model.derivation
    del calls[:]
    assert derive_flow(model) == derive_flow(model) == deriv.sys
    assert kaehler_search(model, deriv.sys) == deriv.cert
    assert "build_invariant_structure" not in [name for name, _ in calls]


def test_a_derivation_builds_its_pieces_in_order(monkeypatch):
    """Structure, d(Omega), system, certificate: the first failure of a
    derivation is the one of the first piece that fails."""
    calls = _count_builds(
        monkeypatch, "build_invariant_structure", "exterior_d_time", "derive_flow", "kaehler_search"
    )
    q_model.__wrapped__(1, 1, 1).derivation.cert
    done = [name for name, _ in calls]
    assert done[:3] == ["build_invariant_structure", "exterior_d_time", "derive_flow"]
    assert done[-1] == "kaehler_search"
    assert set(done[3:-1]) == {"exterior_d_time"}  # d of each basis two-form


def test_a_tampered_model_used_first_changes_nothing_for_the_real_one():
    """Derived objects hang on the model they come from: a Q(1,1,1) with one
    triple of its three-form doubled, used first, gets its own d and
    derivation."""
    model = q_model(1, 1, 1)
    form = tuple((p, q, r, 2 * t if (p, q, r) == (0, 1, 6) else t) for p, q, r, t in model.structure)
    assert form != model.structure
    tampered = replace(model, structure=form)
    _, omega = split_dt(build_invariant_structure(model).Omega)
    d_tampered = invariant_d(omega, tampered)
    assert tampered.derivation.cert is not None  # the whole derivation, built first
    assert tampered.derivation.model is tampered
    d_model = invariant_d(omega, model)
    assert d_model != d_tampered
    assert d_model == invariant_d(omega, q_model.__wrapped__(1, 1, 1))  # built afresh
    assert model.derivation.cert is not None
    assert model.derivation.model is model
    assert model.derivation.sys.rhs == derive_flow(model).rhs


def test_eta_fourth_power_is_volume_multiple():
    """Why ``kaehler_search`` does not check eta^4: the planes and the fixed
    line with dt split the coframe into four disjoint pairs, each with a
    monomial coefficient, so every signed sum's eta^4 is 4! times their
    product on e1..e7 ^ dt."""
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        struct = model.derivation.struct
        basis = invariant_two_form_terms(model, struct)
        volume = 0b1111111 | 1 << struct.dt_index  # e1..e7 ^ dt
        for signs in product((1, -1), repeat=len(basis)):
            eta = Multivector.zero(struct.gens, struct.dt_index)
            for sign, term in zip(signs, basis):
                eta = eta + (term if sign == 1 else -term)
            power = eta
            for _ in range(3):
                power = power.wedge(eta)
            ((mask, poly),) = power.terms.items()
            assert mask == volume and len(poly.terms) == 1, (model.kind, signs)


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
