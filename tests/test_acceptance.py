"""Acceptance criteria: every quantitative claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure output).  Tolerances are pinned here, not configurable.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from holoflow.algebra import LaurentPoly, Multivector, wedge
from holoflow.closed_form import compare, profile
from holoflow.flow import derivation, derive_flow, kaehler_search
from holoflow.homogeneous import (
    classify_invariant_g2,
    invariant_d,
    m_model,
    q_model,
)
from holoflow.integrate import IntegratorConfig, OrbitSpec, solve_orbit
from holoflow.structures import build_invariant_structure, canonical_forms
from holoflow.verify import (
    ProfileSampler,
    check_closure,
    su4_family_check,
)
from mutations import perturbed_system


def criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def models():
    return q_model(1, 1, 1), m_model(1, 1)


@pytest.fixture(scope="module")
def systems(models):
    Q, M = models
    return derive_flow(Q), derive_flow(M)


@pytest.fixture(scope="module")
def cone_runs(systems):
    """t_end = 1e4 runs: both Q orbits x 3 initial choices, all 3 M orbits."""
    sysq, sysm = systems
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=1e4)
    runs = {}
    q_inits = {
        "s2xs2xs2": [
            {"a": 1, "b": 1, "c": 1},
            {"a": 2, "b": 1, "c": Fraction(1, 2)},
            {"a": 1, "b": 3, "c": 2},
        ],
        "s2xs2": [
            {"b": 1, "c": 1},
            {"b": 2, "c": Fraction(1, 2)},
            {"b": Fraction(3, 2), "c": 3},
        ],
    }
    m_inits = {
        "cp2xs2": [{"a": 1, "b": 1}, {"a": 2, "b": Fraction(1, 2)}, {"a": 1, "b": 3}],
        "cp2": [{"a": 1}, {"a": 2}, {"a": Fraction(1, 2)}],
        "s2": [{"b": 1}, {"b": 2}, {"b": Fraction(1, 2)}],
    }
    for orbit, inits in q_inits.items():
        for vals in inits:
            spec = OrbitSpec("Q", orbit, vals)
            runs[("Q", orbit, tuple(sorted(vals.items())))] = solve_orbit(sysq, spec, cfg)
    for orbit, inits in m_inits.items():
        for vals in inits:
            spec = OrbitSpec("M", orbit, vals)
            runs[("M", orbit, tuple(sorted(vals.items())))] = solve_orbit(sysm, spec, cfg)
    return runs


def _mono(table, coeff, exps):
    return LaurentPoly.monomial(table, coeff, exps)


def test_criterion_1_symbolic_derivation_q(models):
    Q, _ = models
    t0 = time.time()
    sys = derive_flow(Q)
    elapsed = time.time() - t0
    tab = sys.table
    want = {
        "a": _mono(tab, Fraction(-1, 6), {"f": 1, "a": -1}),
        "b": _mono(tab, Fraction(-1, 6), {"f": 1, "b": -1}),
        "c": _mono(tab, Fraction(-1, 6), {"f": 1, "c": -1}),
        "f": (
            _mono(tab, Fraction(1, 6), {"f": 2, "a": -2})
            + _mono(tab, Fraction(1, 6), {"f": 2, "b": -2})
            + _mono(tab, Fraction(1, 6), {"f": 2, "c": -2})
            + LaurentPoly.const(tab, -3)
        ),
    }
    exact = all(sys.rhs[x] == want[x] for x in sys.state)
    criterion(
        1,
        "Q system derived exactly",
        exact and elapsed < 5.0,
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_symbolic_derivation_m(models):
    _, M = models
    sys = derive_flow(M)
    tab = sys.table
    want = {
        "a": _mono(tab, Fraction(3, 8), {"c": 1, "a": -1}),
        "b": _mono(tab, Fraction(1, 4), {"c": 1, "b": -1}),
        "c": (
            LaurentPoly.const(tab, 8)
            + _mono(tab, Fraction(-1, 4), {"c": 2, "b": -2})
            + _mono(tab, Fraction(-3, 4), {"c": 2, "a": -2})
        ),
    }
    exact = all(sys.rhs[x] == want[x] for x in sys.state)
    criterion(2, "M system derived exactly", exact)


def test_criterion_3_classification_sweep():
    q_hits = []
    for k in range(6):
        for l in range(k + 1):
            for m in range(l + 1):
                if (k, l, m) == (0, 0, 0):
                    continue
                if math.gcd(math.gcd(k, l), m) != 1:
                    continue
                if classify_invariant_g2(q_model(k, l, m)):
                    q_hits.append((k, l, m))
    m_hits = []
    for k in range(6):
        for l in range(6):
            if (k, l) == (0, 0) or math.gcd(k, l) != 1:
                continue
            if classify_invariant_g2(m_model(k, l)):
                m_hits.append((k, l))
    ok = q_hits == [(1, 1, 1)] and m_hits == [(1, 1)]
    criterion(3, "classification sweep", ok, f"Q: {q_hits}, M: {m_hits}")


def test_criterion_4_closed_form_q(systems):
    sysq, _ = systems
    t0 = time.time()
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=50.0)
    traj, _ = solve_orbit(sysq, spec, cfg)
    prof = profile("Q", spec)
    dev = compare(traj, prof)
    elapsed = time.time() - t0
    # spot value at s = -3 for a0 = f0 = 0, b0 = c0 = 1: the exact
    # antiderivative of s (s-3)^2 at -3 is 459/4 and the denominator
    # product is -108; the ODE-consistent variation-of-constants factor
    # is -6, giving -6 * (459/4) / (-108) = 51/8
    spot = prof.value_squared(Fraction(-3)) == Fraction(51, 8)
    criterion(
        4,
        "Q closed-form agreement",
        dev <= 1e-8 and spot and elapsed < 2.0,
        f"deviation {dev:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_closed_form_m(systems):
    _, sysm = systems
    spec = OrbitSpec("M", "cp2", {"a": 1})
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=50.0)
    traj, _ = solve_orbit(sysm, spec, cfg)
    dev = compare(traj, profile("M", spec))
    criterion(5, "M closed-form agreement", dev <= 1e-8, f"deviation {dev:.2e}")


def test_criterion_6_cone_limits_q(cone_runs):
    worst = 0.0
    count = 0
    for (kind, orbit, _vals), (traj, _) in cone_runs.items():
        if kind != "Q":
            continue
        count += 1
        t = traj.ts[-1]
        a, b, c, f = np.asarray(traj.ys)[-1, :4]
        deltas = [
            abs(a * a / t / t - 0.125),
            abs(b * b / t / t - 0.125),
            abs(c * c / t / t - 0.125),
            abs(abs(f) / t - 0.75),
        ]
        worst = max(worst, max(deltas))
    ok = worst <= 1e-3 and count == 6
    criterion(6, "Q cone limits", ok, f"{count} runs, worst delta {worst:.2e}")


def test_criterion_7_cone_limits_m(cone_runs):
    worst = 0.0
    orbits = set()
    for (kind, orbit, _vals), (traj, _) in cone_runs.items():
        if kind != "M":
            continue
        orbits.add(orbit)
        t = traj.ts[-1]
        a, b, c = np.asarray(traj.ys)[-1, :3]
        deltas = [
            abs(a * a / t / t - 0.75),
            abs(b * b / t / t - 0.5),
            abs(c / t - 2.0),
        ]
        worst = max(worst, max(deltas))
    ok = worst <= 1e-3 and orbits == {"cp2xs2", "cp2", "s2"}
    criterion(7, "M cone limits", ok, f"orbits {sorted(orbits)}, worst delta {worst:.2e}")


def test_criterion_8_smoothness_verdicts(models, systems):
    from holoflow.verify import smoothness_report

    Q, M = models
    sysq, sysm = systems
    expect = [
        (Q, sysq, "s2xs2xs2", "non-smooth", {"f": Fraction(-3)}, {"f": Fraction(3, 2)}),
        (
            Q,
            sysq,
            "s2xs2",
            "smooth",
            {"a": Fraction(1, 2), "f": Fraction(-3, 2)},
            {"a": Fraction(1, 2), "f": Fraction(3, 2)},
        ),
        (M, sysm, "cp2xs2", "non-smooth", {"c": Fraction(8)}, {"c": Fraction(4)}),
        (
            M,
            sysm,
            "cp2",
            "smooth",
            {"b": Fraction(1), "c": Fraction(4)},
            {"b": Fraction(1), "c": Fraction(4)},
        ),
        (
            M,
            sysm,
            "s2",
            "non-smooth",
            {"a": Fraction(1), "c": Fraction(8, 3)},
            {"a": Fraction(1), "c": Fraction(4)},
        ),
    ]
    ok = True
    details = []
    for model, sys, orbit, verdict, computed, required in expect:
        rep = smoothness_report(model, orbit)
        good = (
            rep.verdict == verdict
            and rep.computed == computed
            and rep.required == required
        )
        ok = ok and good
        details.append(f"{model.kind}/{orbit}:{rep.verdict}")
    criterion(8, "five smoothness verdicts", ok, "; ".join(details))


def test_criterion_9_kaehler_certificates(models, systems, cone_runs):
    Q, M = models
    sysq, sysm = systems
    certq = kaehler_search(Q, sysq)
    certm = kaehler_search(M, sysm)
    signs_ok = (
        certq.signs == (1, 1, 1, 1)
        and certq.unique_up_to_sign
        and certm.signs == (1, -1, 1)
        and certm.unique_up_to_sign
    )
    worst = 0.0
    derivs = {"Q": derivation(Q), "M": derivation(M)}
    specs = {
        ("Q", "s2xs2xs2"): {"a": 1, "b": 1, "c": 1},
        ("Q", "s2xs2"): {"b": 1, "c": 1},
        ("M", "cp2xs2"): {"a": 1, "b": 1},
        ("M", "cp2"): {"a": 1},
        ("M", "s2"): {"b": 1},
    }
    for (kind, orbit), vals in specs.items():
        traj, _ = cone_runs[(kind, orbit, tuple(sorted(vals.items())))]
        prof = profile(kind, OrbitSpec(kind, orbit, vals))
        sampler = ProfileSampler(prof, traj)
        rep = check_closure(sampler, derivs[kind])
        worst = max(worst, rep.d_eta_residual)
    ok = signs_ok and worst <= 1e-9
    criterion(
        9,
        "Kaehler certificates",
        ok,
        f"signs Q{certq.signs} M{certm.signs}, worst d-eta residual {worst:.2e}",
    )


def test_criterion_10_structural_identities(models):
    Q, M = models
    can = canonical_forms()  # Omega is built as *omega + dx0 ^ omega
    ok = True

    # invariant structures satisfy the identity exactly
    for model in (Q, M):
        s = build_invariant_structure(model)
        ok = ok and s.Omega == s.star_omega + wedge(s.dt_form(), s.omega)

    # star is an involution on every grade in dimension 7
    for k in range(8):
        for idx in itertools.combinations(range(7), k):
            u = Multivector.basis(can.omega.gens, list(idx), Fraction(1))
            ok = ok and u.hodge_star().hodge_star() == u

    # Omega ^ Omega = 14 vol on the canonical 8-space
    sq = wedge(can.Omega, can.Omega)
    ok = ok and list(sq.terms.items()) == [((1 << 8) - 1, Fraction(14))]

    # d^2 = 0 on every generator of both models
    for model in (Q, M):
        gens = model.gen_names + ("dt",)
        one = LaurentPoly.const(model.symbols, 1)
        for i in range(model.n):
            e = Multivector.basis(gens, [i], one, dt_index=len(gens) - 1)
            ok = ok and invariant_d(invariant_d(e, model), model).is_zero
    criterion(10, "structural identities", ok)


def test_criterion_11_property_suites(models, systems, cone_runs):
    Q, M = models
    sysq, sysm = systems
    ok = True
    details = []

    # first-integral drift within 10 * rtol (relative) on the cone runs
    worst = 0.0
    for (kind, orbit, vals), (traj, _) in cone_runs.items():
        prim = np.asarray(traj.ys)[:, -1]
        if kind == "Q":
            a0sq = float(dict(vals).get("a", 0)) ** 2
            a2 = np.asarray(traj.ys)[:, 0] ** 2
            drift = np.max(np.abs(a2 + prim / 3 - a0sq) / np.maximum(a2, 1.0))
        else:
            a0sq = float(dict(vals).get("a", 0)) ** 2
            a2 = np.asarray(traj.ys)[:, 0] ** 2
            drift = np.max(np.abs(a2 - 0.75 * prim - a0sq) / np.maximum(a2, 1.0))
        worst = max(worst, float(drift))
    ok = ok and worst <= 10 * 1e-10
    details.append(f"drift {worst:.2e}")

    # parity symmetries by formal substitution
    parity = True
    for signs in ({"a": 1, "b": 1, "c": 1, "f": -1}, {"a": -1, "b": 1, "c": 1, "f": -1}):
        flip = {n: s * LaurentPoly.variable(sysq.table, n) for n, s in signs.items()}
        for name in sysq.state:
            parity = parity and sysq.rhs[name].subs(flip) == sysq.rhs[
                name
            ] * Fraction(-signs[name])
    for signs in (
        {"a": 1, "b": 1, "c": -1},
        {"a": 1, "b": -1, "c": -1},
        {"a": -1, "b": 1, "c": -1},
    ):
        flip = {n: s * LaurentPoly.variable(sysm.table, n) for n, s in signs.items()}
        for name in sysm.state:
            parity = parity and sysm.rhs[name].subs(flip) == sysm.rhs[
                name
            ] * Fraction(-signs[name])
    ok = ok and parity
    details.append(f"parity {'ok' if parity else 'broken'}")

    # SU(4) certificate passes on the derived systems, fails on a mutation
    su4_q = su4_family_check(Q, sysq).passed
    su4_m = su4_family_check(M, sysm).passed
    su4_bad = su4_family_check(Q, perturbed_system(sysq, "a")).passed
    ok = ok and su4_q and su4_m and not su4_bad
    details.append(f"su4 Q={su4_q} M={su4_m} mutated={su4_bad}")

    criterion(11, "property suites", ok, "; ".join(details))
