"""Canonical forms, invariant structures and the rotation family."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow import structures
from holoflow._record import replace
from holoflow.algebra import LaurentPoly, Multivector
from holoflow.flow import exterior_d_time, split_dt
from holoflow.homogeneous import MODEL_SPECS, is_basic, m_model, model_spec, q_model
from holoflow.structures import (
    CANON8,
    Spin7Structure,
    StructureError,
    build_invariant_structure,
    canonical_forms,
    _rotate_form,
    _rotation,
    rotate_structure,
    rotation_generator,
)
from oracles import coefficient, star_omega_and_omega
from paper_tables import FRAME_MAP, OMEGA4_TERMS

UNIT_Q = {"a": 1.0, "b": 1.0, "c": 1.0, "f": 1.0}


def coeff(struct, indices):
    """Coefficient by 1-based orbit indices; 0 stands for dt."""
    idx = [i - 1 if i > 0 else struct.dt_index for i in indices]
    return coefficient(struct.Omega, idx)


def test_canonical_spot_coefficients():
    can = canonical_forms()
    assert coefficient(can.omega, [0, 1, 2]) == Fraction(1)  # dx^123
    assert coefficient(can.Omega, [4, 5, 6, 7]) == Fraction(1)  # dx^4567
    assert coefficient(can.Omega, [1, 2, 4, 7]) == Fraction(-1)
    assert len(can.omega.terms) == 7 and len(can.Omega.terms) == 14


def test_Omega_is_the_textbook_four_form():
    """Omega, built as *omega + dx0 ^ omega, is the textbook table: the same
    terms in the same order, each a Fraction."""
    want = Multivector.zero(CANON8, dt_index=0)
    for idx, sign in OMEGA4_TERMS:
        want = want + Multivector.basis(CANON8, list(idx), Fraction(sign), dt_index=0)
    Omega = canonical_forms().Omega
    assert Omega == want
    assert list(Omega.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in Omega.terms.values())


def test_omega_wedge_star_is_seven_volumes():
    can = canonical_forms()
    vol = can.omega.wedge(can.omega.hodge_star())
    assert list(vol.terms.values()) == [Fraction(7)]
    assert list(vol.terms.keys()) == [(1 << 7) - 1]


def test_Omega_wedge_Omega_is_fourteen_volumes():
    can = canonical_forms()
    sq = can.Omega.wedge(can.Omega)
    assert list(sq.terms.values()) == [Fraction(14)]


def test_invariant_coefficients_q():
    s = build_invariant_structure(q_model(1, 1, 1))
    tab = s.table
    assert coeff(s, (1, 3, 5, 7)) == LaurentPoly.monomial(tab, 1, {"a": 1, "b": 1, "c": 1, "f": 1})
    assert coeff(s, (1, 2, 3, 4)) == LaurentPoly.monomial(tab, -1, {"a": 2, "b": 2})
    assert coeff(s, (1, 2, 7, 0)) == LaurentPoly.monomial(tab, -1, {"a": 2, "f": 1})
    assert coeff(s, (2, 4, 6, 0)) == LaurentPoly.monomial(tab, 1, {"a": 1, "b": 1, "c": 1})
    assert len(s.Omega.terms) == 14


def test_invariant_coefficients_m():
    s = build_invariant_structure(m_model(1, 1))
    tab = s.table
    assert coeff(s, (1, 2, 3, 4)) == LaurentPoly.monomial(tab, -1, {"a": 4})
    assert coeff(s, (5, 6, 7, 0)) == LaurentPoly.monomial(tab, 1, {"b": 2, "c": 1})
    assert coeff(s, (1, 3, 6, 7)) == LaurentPoly.monomial(tab, 1, {"a": 2, "b": 1, "c": 1})
    assert coeff(s, (2, 4, 5, 0)) == LaurentPoly.monomial(tab, 1, {"a": 2, "b": 1})
    assert len(s.Omega.terms) == 14


def test_unit_frame_reproduces_canonical_coefficients():
    """At a = b = c = f = 1 the structure is the canonical one, read through
    the frame permutation."""
    can = canonical_forms()
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        s = build_invariant_structure(model)
        ev = s.Omega.eval_numeric(UNIT_Q)
        inverse = {s.dt_index: ((0, 1),)}
        for slot in range(1, 8):
            target, _ = FRAME_MAP[model.kind][slot]
            inverse[target - 1] = ((slot, 1),)
        back = ev.substitute(inverse, CANON8, dt_index=0)
        assert back.terms == {m: float(c) for m, c in can.Omega.terms.items()}


def test_structure_identity_omega_star_dt():
    """Omega = *omega + dt ^ omega: its dt-free part and dt-part are the
    canonical *omega and omega, each substituted on its own.  The structure
    stores Omega alone."""
    assert [name for name, _ in Spin7Structure.__record_fields__] == ["model", "table", "Omega"]
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        s = build_invariant_structure(model)
        assert split_dt(s.Omega) == star_omega_and_omega(model)


def test_a_build_substitutes_once_and_checks_basic_once(monkeypatch):
    """One substitution into the canonical four-form and one is_basic."""
    can = canonical_forms()
    monkeypatch.setattr(structures, "canonical_forms", lambda: can)
    calls = []
    substitute, basic = Multivector.substitute, structures.is_basic

    def counted_substitute(self, *args, **kwargs):
        calls.append("substitute")
        return substitute(self, *args, **kwargs)

    def counted_is_basic(form, model):
        calls.append("is_basic")
        return basic(form, model)

    monkeypatch.setattr(Multivector, "substitute", counted_substitute)
    monkeypatch.setattr(structures, "is_basic", counted_is_basic)
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        calls.clear()
        build_invariant_structure(model)
        assert calls == ["substitute", "is_basic"]


def test_the_canonical_four_form_is_built_once_and_each_build_owns_its_form(monkeypatch):
    """The canonical terms are built once per process.  A ``Multivector`` is
    mutable, so each build returns its own: editing one structure's four-form,
    or the canonical forms, changes no later build."""
    calls = []
    canonical = structures.canonical_forms
    monkeypatch.setattr(structures, "canonical_forms", lambda: calls.append(1) or canonical())
    structures._canonical_Omega_terms.cache_clear()
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        first = build_invariant_structure(model)
        want = dict(first.Omega.terms)
        mask = next(iter(want))
        first.Omega.terms[mask] = first.Omega.terms[mask] * 2
        del first.Omega.terms[next(reversed(want))]
        canonical_forms().Omega.terms.clear()
        second = build_invariant_structure(model)
        assert second.Omega is not first.Omega
        assert second.Omega.terms == want
    assert calls == [1]


def _with_dt(model, star_omega, omega):
    """*omega + dt ^ omega."""
    dt = star_omega.dt_index
    one = LaurentPoly.const(model.symbols, 1)
    return star_omega + Multivector.basis(star_omega.gens, [dt], one, dt_index=dt).wedge(omega)


#: frame-map edits per model kind: one slot sent to an isotropy generator,
#: two slots of different modules swapped
TAMPERED_FRAMES = [
    ("Q", {1: (8, "f")}),
    ("Q", {2: (3, "b"), 4: (1, "a")}),
    ("M", {1: (8, "c")}),
    ("M", {2: (1, "a"), 4: (6, "b")}),
]


@pytest.mark.parametrize("kind,edits", TAMPERED_FRAMES, ids=["Q-iso", "Q-swap", "M-iso", "M-swap"])
def test_Omega_is_basic_exactly_when_omega_and_its_star_are(monkeypatch, kind, edits):
    """The dropped checks on omega and *omega were implied by the one on
    Omega, on the real frame and on a tampered one; the tampered frame trips
    the structure's basic check, and so does each mixed pair."""
    model = q_model(1, 1, 1) if kind == "Q" else m_model(1, 1)
    real = star_omega_and_omega(model)
    spec = MODEL_SPECS[kind]
    monkeypatch.setitem(MODEL_SPECS, kind, replace(spec, frame_map={**spec.frame_map, **edits}))
    tampered = star_omega_and_omega(model)
    with pytest.raises(StructureError, match="invariant structure is not basic"):
        build_invariant_structure(model)
    for star_omega, omega in itertools.product((real[0], tampered[0]), (real[1], tampered[1])):
        Omega = _with_dt(model, star_omega, omega)
        assert is_basic(Omega, model) == (is_basic(star_omega, model) and is_basic(omega, model))
    assert is_basic(_with_dt(model, *real), model)
    assert not is_basic(_with_dt(model, *tampered), model)


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_the_d_of_a_basic_Omega_has_no_isotropy_term(monkeypatch, kind):
    """Why ``derive_flow`` does not check d(Omega) for isotropy terms: Omega
    is basic, i_x Omega = 0 and L_x Omega = i_x dOmega + d i_x Omega = 0, so
    i_x dOmega = 0 for every isotropy x.  Over the real frame, each tampered
    frame of ``TAMPERED_FRAMES``, their mixed pairs and the rotation family's
    L(Omega) and L(L(Omega)), every four-form that ``is_basic`` accepts has a
    d on G/H x I with no isotropy generator; a horizontal one it rejects may
    have one."""
    model = q_model(1, 1, 1) if kind == "Q" else m_model(1, 1)
    iso = sum(1 << x for x in model.isotropy_indices)
    pairs, spec = [star_omega_and_omega(model)], MODEL_SPECS[kind]
    for _, edits in (frame for frame in TAMPERED_FRAMES if frame[0] == kind):
        monkeypatch.setitem(MODEL_SPECS, kind, replace(spec, frame_map={**spec.frame_map, **edits}))
        pairs.append(star_omega_and_omega(model))
    monkeypatch.setitem(MODEL_SPECS, kind, spec)
    forms = [_with_dt(model, *pair) for pair in itertools.product(*zip(*pairs))]
    struct = build_invariant_structure(model)
    V = rotation_generator(struct, struct.Omega)
    forms += [V, rotation_generator(struct, V)]
    seen = set()
    for Omega in forms:
        basic = is_basic(Omega, model)
        leaks = any(mask & iso for mask in exterior_d_time(Omega, model).terms)
        assert not (basic and leaks)
        seen.add((basic, leaks, any(mask & iso for mask in Omega.terms)))
    assert {(True, False, False), (False, True, False)} <= seen, seen


@pytest.fixture
def fresh_canonical_terms():
    """The canonical four-form's terms are built again, from the table as
    the test leaves it."""
    structures._canonical_Omega_terms.cache_clear()
    yield
    structures._canonical_Omega_terms.cache_clear()


@pytest.mark.parametrize("flip", range(len(structures.OMEGA3_TERMS)))
def test_a_split_three_form_is_rejected_as_not_definite(monkeypatch, fresh_canonical_terms, flip):
    """One flipped sign of the three-form table gives a split form (B_phi
    with three +6 on its diagonal), which defines no metric.  Flips 0-2 on
    Q(1,1,1) and flip 0 on M(1,1) pass every other exact gate; the
    definiteness check rejects all seven, before any structure is built."""
    terms = list(structures.OMEGA3_TERMS)
    idx, sign = terms[flip]
    terms[flip] = (idx, -sign)
    monkeypatch.setattr(structures, "OMEGA3_TERMS", tuple(terms))
    not_definite = "^the canonical three-form is not definite: B_phi is not -6 I$"
    with pytest.raises(StructureError, match=not_definite):
        canonical_forms()
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        with pytest.raises(StructureError, match=not_definite):
            build_invariant_structure(model)


def test_inadmissible_model_rejected():
    with pytest.raises(StructureError):
        build_invariant_structure(q_model(2, 1, 1))


def test_monomial_degrees_of_q_structure():
    s = build_invariant_structure(q_model(1, 1, 1))
    dt_bit = 1 << s.dt_index
    for mask, poly in s.Omega.terms.items():
        ((vec, _),) = poly.terms.items()
        total = sum(vec)
        assert total == (3 if mask & dt_bit else 4)


# ---------------------------------------------------------------------------
# rotation family
# ---------------------------------------------------------------------------


def test_rotation_identity():
    s = build_invariant_structure(q_model(1, 1, 1))
    assert rotate_structure(s, (Fraction(1), Fraction(0))).Omega == s.Omega


def test_rotation_rejects_an_exact_pair_off_the_unit_circle():
    s = build_invariant_structure(q_model(1, 1, 1))
    with pytest.raises(StructureError, match=r"^exact rotation pair must satisfy c\^2 \+ s\^2 = 1$"):
        rotate_structure(s, (Fraction(1), Fraction(1)))


@seed(19903656298249881756725223930799227802549080990371397210261387234722118451146069523399347617960584982798258102261771)
@settings(max_examples=15, deadline=None, database=None)
@given(st.fractions(-3, 3, max_denominator=7))
def test_rotation_back_by_the_conjugate_pair_is_the_identity(u):
    # (c, s) on the unit circle from the rational parametrisation
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        struct = build_invariant_structure(model)
        back = rotate_structure(rotate_structure(struct, (c, s)), (c, -s))
        assert back == struct


@pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5, 7)])
def test_generator_gives_the_family_in_closed_form(u):
    """rotate_structure is Omega + V sin(k phi)/k + W (1 - cos(k phi))/k^2."""
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        deriv = model.derivation
        struct = deriv.struct
        k = MODEL_SPECS[model.kind].family_weight
        V = rotation_generator(struct, struct.Omega)
        W = rotation_generator(struct, V)
        assert not V.is_zero
        assert rotation_generator(struct, W) == V.scaled(-k * k)
        ck, sk = Fraction(1), Fraction(0)
        for _ in range(k):
            ck, sk = c * ck - s * sk, s * ck + c * sk
        closed = struct.Omega + V.scaled(sk / k) + W.scaled((1 - ck) / (k * k))
        assert rotate_structure(struct, (c, s)).Omega == closed
        # the weight-0 part is the Kaehler square, the paper's omega^2/2 in
        # Omega = omega^2/2 + Re Psi, with this package's sign convention
        eta = deriv.cert.eta
        weight_zero = struct.Omega + W.scaled(Fraction(1, k * k))
        assert weight_zero == eta.wedge(eta).scaled(Fraction(-1, 2))


def test_rotation_group_law_exact():
    s = build_invariant_structure(q_model(1, 1, 1))
    p = (Fraction(3, 5), Fraction(4, 5))
    q = (Fraction(5, 13), Fraction(12, 13))
    pq = (p[0] * q[0] - p[1] * q[1], p[1] * q[0] + p[0] * q[1])
    lhs = rotate_structure(rotate_structure(s, p), q)
    rhs = rotate_structure(s, pq)
    assert lhs.Omega == rhs.Omega


def test_rotation_at_pi_matches_dense_pullback_oracle():
    """Compare against a brute-force matrix pullback on all 4-subsets."""
    import itertools

    s = build_invariant_structure(q_model(1, 1, 1))
    theta = math.pi
    rot = rotate_structure(s, theta)
    # dense oracle: numeric pullback matrix on the 7 orbit generators
    r = np.eye(8)
    for (i, j) in ((0, 1), (2, 3), (4, 5)):
        cs, sn = math.cos(theta), math.sin(theta)
        r[i, i] = cs
        r[i, j] = -sn
        r[j, i] = sn
        r[j, j] = cs
    vals = {"a": 1.1, "b": 0.8, "c": 1.7, "f": -0.6}
    dense = np.zeros([8] * 4)
    ev = s.Omega.eval_numeric(vals)
    for mask, c in ev.terms.items():
        idx = [i if i < 7 else 7 for i in ev.indices_of(mask)]
        for perm in itertools.permutations(range(4)):
            sign = 1
            for x in range(4):
                for y in range(x + 1, 4):
                    if perm[x] > perm[y]:
                        sign = -sign
            pidx = tuple(idx[p] for p in perm)
            dense[pidx] = sign * c
    pulled = np.einsum("abcd,ai,bj,ck,dl->ijkl", dense, r, r, r, r)
    got = rot.Omega.eval_numeric(vals)
    for combo in itertools.combinations(range(8), 4):
        want = pulled[combo]
        have = got.terms.get(sum(1 << i for i in
                                 [c if c < 7 else got.dt_index for c in combo]), 0.0)
        assert abs(want - have) < 1e-9


def test_rotation_preserves_diagonal_metric():
    for theta in (0.4, 1.3):
        cs, sn = math.cos(theta), math.sin(theta)
        r = np.eye(7)
        for (i, j) in ((0, 1), (2, 3), (4, 5)):
            r[i, i] = cs
            r[i, j] = -sn
            r[j, i] = sn
            r[j, j] = cs
        for diag in ([1.2, 1.2, 0.7, 0.7, 2.0, 2.0, 0.4],):
            g = np.diag(diag)
            assert np.allclose(r.T @ g @ r, g, atol=1e-12)


def test_family_periods():
    vals = {"a": 1.3, "b": 0.7, "c": 1.9, "f": -2.1}
    s = build_invariant_structure(q_model(1, 1, 1))
    period = 2 * math.pi / 3
    for theta, same in ((period, True), (period / 2, False), (0.37, False)):
        rot = rotate_structure(s, theta)
        d = _coeff_distance(rot, s, vals)
        assert (d < 1e-12) == same

    vals_m = {"a": 1.3, "b": 0.7, "c": 1.9}
    m = build_invariant_structure(m_model(1, 1))
    period_m = math.pi / 2
    for theta, same in ((period_m, True), (period_m / 3, False)):
        rot = rotate_structure(m, theta)
        assert (_coeff_distance(rot, m, vals_m) < 1e-12) == same


def rotate_structure_reference(struct, theta):
    """Pull back by the reference torus action with unit speeds (1, 1, 1)."""
    planes = model_spec(struct.model).planes
    return replace(struct, Omega=_rotate_form(struct.Omega, planes, _rotation(theta, Fraction(1), (1, 1, 1))))


def test_m_action_generates_reference_family():
    """The ad-action at theta matches the reference torus action at 4*theta."""
    vals = {"a": 1.3, "b": 0.7, "c": 1.9}
    m = build_invariant_structure(m_model(1, 1))
    for theta in (0.3, 0.7, 1.9):
        lhs = rotate_structure(m, theta)
        rhs = rotate_structure_reference(m, 4 * theta)
        assert _coeff_distance(lhs, rhs, vals) < 1e-12


def _coeff_distance(s1, s2, vals):
    e1 = s1.Omega.eval_numeric(vals).terms
    e2 = s2.Omega.eval_numeric(vals).terms
    keys = set(e1) | set(e2)
    return max(abs(e1.get(k, 0.0) - e2.get(k, 0.0)) for k in keys)
