"""Acceptance criteria: every claim of the paper, each held by one test.

Each of the paper's eleven claims is asserted here and nowhere else in the
suite, against the expected values of ``tests/paper_tables.py``.  Each test
prints one ``ACCEPTANCE`` PASS/FAIL line (visible with ``pytest -s`` or
``-rP``), and a failing one names each case that failed.  Tolerances are
pinned here, not configurable.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from holoflow.algebra import LaurentPoly, Multivector
from holoflow.closed_form import compare, profile
from holoflow.flow import KaehlerCertificate, derive_flow, kaehler_search, split_dt
from holoflow.homogeneous import (
    classify_invariant_g2,
    invariant_d,
    m_model,
    q_model,
)
from holoflow.integrate import IntegratorConfig, OrbitSpec, solve_orbit
from holoflow.structures import Spin7Structure, build_invariant_structure, canonical_forms
from holoflow.verify import (
    ProfileSampler,
    check_closure,
    smoothness_report,
    su4_family_check,
)
from mutations import perturbed_system
from oracles import cone_quantities, exact_value_squared, star_omega_and_omega
from paper_tables import (
    ADMISSIBLE,
    AFFINE_SLOPES,
    CONE_REFS,
    DERIVED_RANK,
    DERIVED_RHS,
    KAEHLER_SIGNS,
    ORBIT_CATALOG,
    PARITY_SIGNS,
    SMOOTHNESS,
)


def criterion(number: int, name: str, failed: list, detail: str = "") -> None:
    """Print the criterion's ACCEPTANCE line; fail naming each failed case."""
    print(f"ACCEPTANCE {number:2d} {name}: {'FAIL' if failed else 'PASS'}  {detail}")
    assert not failed, f"criterion {number} ({name}) failed on {'; '.join(failed)}  {detail}"


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


def run_name(kind, orbit, vals):
    return f"{kind}/{orbit} {dict(vals)}"


def derivation_failures(sys, kind):
    """The right-hand sides, and the rank, that differ from the paper's."""
    table = sys.table
    want = {
        x: sum((LaurentPoly.monomial(table, c, exps) for c, exps in terms), LaurentPoly.zero(table))
        for x, terms in DERIVED_RHS[kind].items()
    }
    failed = [f"{x}'" for x in sys.state if x not in want or sys.rhs[x] != want[x]]
    if tuple(sys.state) != tuple(want):
        failed.append(f"state {sys.state}")
    if sys.rank != DERIVED_RANK[kind]:
        failed.append(f"rank {sys.rank}")
    return failed


def test_criterion_1_symbolic_derivation_q(models):
    Q, _ = models
    t0 = time.time()
    sys = derive_flow(Q)
    elapsed = time.time() - t0
    failed = derivation_failures(sys, "Q")
    if not elapsed < 5.0:
        failed.append("runtime")
    criterion(1, "Q system derived exactly", failed, f"runtime {elapsed:.2f}s")


def test_criterion_2_symbolic_derivation_m(models):
    _, M = models
    criterion(2, "M system derived exactly", derivation_failures(derive_flow(M), "M"))


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
    hits = {"Q": q_hits, "M": m_hits}
    failed = [f"{kind} admits {hits[kind]}" for kind in hits if hits[kind] != ADMISSIBLE[kind]]
    criterion(3, "classification sweep", failed, f"Q: {q_hits}, M: {m_hits}")


def test_criterion_4_closed_form_q(systems):
    sysq, _ = systems
    t0 = time.time()
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=50.0)
    traj, _ = solve_orbit(sysq, spec, cfg)
    prof = profile("Q", spec)
    dev = compare(traj, prof)
    elapsed = time.time() - t0
    # spot value at s = -3 for a0 = f0 = 0, b0 = c0 = 1: the quartic
    # antiderivative s^4/4 - 2 s^3 + 9 s^2/2 of s (s-3)^2 is 459/4 there,
    # the denominator product s (s-3)^2 is -108, and variation of constants
    # multiplies the integral by -6, giving 51/8
    s = Fraction(-3)
    anti = s**4 / 4 - 2 * s**3 + Fraction(9, 2) * s**2
    den = s * (s - 3) ** 2
    spot = -6 * anti / den
    failed = [] if dev <= 1e-8 else ["deviation"]
    if (anti, den, spot) != (Fraction(459, 4), -108, Fraction(51, 8)):
        failed.append(f"spot steps {anti}, {den}, {spot}")
    if exact_value_squared(prof, s) != spot:
        failed.append(f"spot value {exact_value_squared(prof, s)}")
    if not elapsed < 2.0:
        failed.append("runtime")
    criterion(4, "Q closed-form agreement", failed, f"deviation {dev:.2e}, runtime {elapsed:.2f}s")


def test_criterion_5_closed_form_m(systems):
    _, sysm = systems
    spec = OrbitSpec("M", "cp2", {"a": 1})
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-12, t_end=50.0)
    traj, _ = solve_orbit(sysm, spec, cfg)
    dev = compare(traj, profile("M", spec))
    criterion(5, "M closed-form agreement", [] if dev <= 1e-8 else ["deviation"], f"deviation {dev:.2e}")


def cone_deltas(kind, cone_runs):
    """Each run of the kind: its endpoint's largest distance from the paper's
    cone limits."""
    refs = CONE_REFS[kind]
    deltas = {}
    for (run_kind, orbit, vals), (traj, _) in cone_runs.items():
        if run_kind == kind:
            got = cone_quantities(kind, traj.ts[-1], np.asarray(traj.ys)[-1:])
            assert list(got) == list(refs)
            deltas[run_name(kind, orbit, vals)] = max(abs(float(got[q][0]) - ref) for q, ref in refs.items())
    return deltas


def test_criterion_6_cone_limits_q(cone_runs):
    deltas = cone_deltas("Q", cone_runs)
    failed = [run for run, delta in deltas.items() if not delta <= 1e-3]
    if len(deltas) != 6:
        failed.append(f"{len(deltas)} runs")
    criterion(6, "Q cone limits", failed, f"{len(deltas)} runs, worst delta {max(deltas.values(), default=0.0):.2e}")


def test_criterion_7_cone_limits_m(cone_runs):
    deltas = cone_deltas("M", cone_runs)
    orbits = {orbit for kind, orbit, _ in cone_runs if kind == "M"}
    failed = [run for run, delta in deltas.items() if not delta <= 1e-3]
    if orbits != {"cp2xs2", "cp2", "s2"}:
        failed.append(f"orbits {sorted(orbits)}")
    criterion(7, "M cone limits", failed, f"orbits {sorted(orbits)}, worst delta {max(deltas.values(), default=0.0):.2e}")


def test_criterion_8_smoothness_verdicts(models):
    unit = {model.kind: model for model in models}
    failed, details = [], []
    for (kind, orbit), (verdict, computed) in SMOOTHNESS.items():
        (row,) = [row for row in ORBIT_CATALOG[kind] if row.orbit_key == orbit]
        rep = smoothness_report(unit[kind], orbit)
        if (rep.verdict, rep.computed, rep.required) != (verdict, computed, row.required):
            failed.append(f"{kind}/{orbit}")
        details.append(f"{kind}/{orbit}:{rep.verdict}")
    criterion(8, "five smoothness verdicts", failed, "; ".join(details))


def test_criterion_9_kaehler_certificates(models, systems, cone_runs):
    Q, M = models
    sysq, sysm = systems
    certq = kaehler_search(Q, sysq)
    certm = kaehler_search(M, sysm)
    failed = []
    # kaehler_search returns only when the signs and their negatives are
    # the one closed pair, so the certificate keeps no list of winners
    fields = [name for name, _ in KaehlerCertificate.__record_fields__]
    if fields != ["signs", "eta", "d_eta"]:
        failed.append(f"fields {fields}")
    for kind, cert in (("Q", certq), ("M", certm)):
        if cert.signs != KAEHLER_SIGNS[kind]:
            failed.append(f"{kind} signs {cert.signs}")
    worst = 0.0
    derivs = {"Q": Q.derivation, "M": M.derivation}
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
        residual = check_closure(sampler, derivs[kind]).d_eta_residual
        if not residual <= 1e-9:
            failed.append(f"{run_name(kind, orbit, vals)} d-eta residual {residual:.2e}")
        worst = max(worst, residual)
    criterion(
        9,
        "Kaehler certificates",
        failed,
        f"signs Q{certq.signs} M{certm.signs}, worst d-eta residual {worst:.2e}",
    )


def test_criterion_10_structural_identities(models):
    Q, M = models
    can = canonical_forms()  # Omega is built as *omega + dx0 ^ omega
    failed = []

    # a structure stores Omega alone, and Omega = *omega + dt ^ omega exactly
    fields = [name for name, _ in Spin7Structure.__record_fields__]
    if fields != ["model", "table", "Omega"]:
        failed.append(f"fields {fields}")
    for model in (Q, M):
        if split_dt(build_invariant_structure(model).Omega) != star_omega_and_omega(model):
            failed.append(f"{model.kind} Omega = *omega + dt ^ omega")

    # star is an involution on every grade in dimension 7
    for k in range(8):
        for idx in itertools.combinations(range(7), k):
            u = Multivector.basis(can.omega.gens, list(idx), Fraction(1))
            if u.hodge_star().hodge_star() != u:
                failed.append(f"** on {idx}")

    # Omega ^ Omega = 14 vol on the canonical 8-space
    sq = can.Omega.wedge(can.Omega)
    if list(sq.terms.items()) != [((1 << 8) - 1, Fraction(14))]:
        failed.append("Omega ^ Omega")

    # d^2 = 0 on every generator of both models
    for model in (Q, M):
        gens = model.gen_names + ("dt",)
        one = LaurentPoly.const(model.symbols, 1)
        for i in range(model.n):
            e = Multivector.basis(gens, [i], one, dt_index=len(gens) - 1)
            if not invariant_d(invariant_d(e, model), model).is_zero:
                failed.append(f"{model.kind} d^2 {gens[i]}")
    criterion(10, "structural identities", failed)


def test_criterion_11_property_suites(models, systems, cone_runs):
    Q, M = models
    sysq, sysm = systems
    failed = []
    details = []

    # every affine square x^2 = x0^2 + m_x s of the closed form, with s the
    # primitive, within 10 * rtol (relative) on the cone runs
    worst = 0.0
    for (kind, orbit, vals), (traj, _) in cone_runs.items():
        ys = np.asarray(traj.ys)
        s = ys[:, -1]
        for x, slope in AFFINE_SLOPES[kind].items():
            x2 = ys[:, traj.state_names.index(x)] ** 2
            x0sq = float(dict(vals).get(x, 0)) ** 2
            drift = float(np.max(np.abs(x2 - x0sq - float(slope) * s) / np.maximum(x2, 1.0)))
            if not drift <= 10 * 1e-10:
                failed.append(f"{run_name(kind, orbit, vals)} {x}^2 drift {drift:.2e}")
            worst = max(worst, drift)
    details.append(f"drift {worst:.2e}")

    # parity symmetries by formal substitution: a solution map
    # x(t) -> e x(-t) preserves the system iff rhs_x(e x) = -e_x rhs_x(x)
    parity = True
    for kind, sys in (("Q", sysq), ("M", sysm)):
        for signs in PARITY_SIGNS[kind]:
            flip = {n: s * LaurentPoly.variable(sys.table, n) for n, s in signs.items()}
            for name in sys.state:
                if sys.rhs[name].subs(flip) != sys.rhs[name] * Fraction(-signs[name]):
                    failed.append(f"{kind} parity {signs} on {name}'")
                    parity = False
    details.append(f"parity {'ok' if parity else 'broken'}")

    # the SU(4) certificate holds on the derived systems, every field of it,
    # and no system with one right-hand side scaled keeps the family parallel
    passed = {}
    mutants = parallel = 0
    for model, sys in ((Q, sysq), (M, sysm)):
        cert = su4_family_check(model, sys)
        passed[model.kind] = cert.passed
        for field in ("family_parallel", "family_moves", "kaehler_unique", "no_parallel_vector"):
            if not getattr(cert, field):
                failed.append(f"{model.kind} su4 {field}")
        for name in sys.state:
            for factor in (Fraction(2), Fraction(1001, 1000)):
                cert = su4_family_check(model, perturbed_system(sys, name, factor))
                mutants += 1
                if cert.passed or cert.family_parallel:
                    failed.append(f"{model.kind} su4 passes with {name}' x {factor}")
                    parallel += 1
    details.append(f"su4 Q={passed['Q']} M={passed['M']}, {parallel} of {mutants} mutants parallel")

    criterion(11, "property suites", failed, "; ".join(details))
