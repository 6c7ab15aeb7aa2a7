"""Canonical forms, invariant structures and the rotation family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow.algebra import LaurentPoly, Multivector, wedge
from holoflow.flow import derivation
from holoflow.homogeneous import MODEL_SPECS, m_model, q_model
from holoflow.structures import (
    CANON8,
    StructureError,
    build_invariant_structure,
    canonical_forms,
    _rotate_all,
    _rotation,
    rotate_structure,
    rotation_generator,
)
from paper_tables import FRAME_MAP, OMEGA4_TERMS

UNIT_Q = {"a": 1.0, "b": 1.0, "c": 1.0, "f": 1.0}


def coeff(struct, indices):
    """Coefficient by 1-based orbit indices; 0 stands for dt."""
    idx = [i - 1 if i > 0 else struct.dt_index for i in indices]
    return struct.Omega.coefficient(idx)


def test_canonical_spot_coefficients():
    can = canonical_forms()
    assert can.omega.coefficient([0, 1, 2]) == Fraction(1)  # dx^123
    assert can.Omega.coefficient([4, 5, 6, 7]) == Fraction(1)  # dx^4567
    assert can.Omega.coefficient([1, 2, 4, 7]) == Fraction(-1)
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
    vol = wedge(can.omega, can.omega.hodge_star())
    assert list(vol.terms.values()) == [Fraction(7)]
    assert list(vol.terms.keys()) == [(1 << 7) - 1]


def test_Omega_wedge_Omega_is_fourteen_volumes():
    can = canonical_forms()
    sq = wedge(can.Omega, can.Omega)
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
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        s = build_invariant_structure(model)
        assert s.Omega == s.star_omega + wedge(s.dt_form(), s.omega)


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


@settings(max_examples=15, deadline=None)
@given(st.fractions(-3, 3, max_denominator=7))
def test_rotation_back_by_the_conjugate_pair_is_the_identity(u):
    # (c, s) on the unit circle from the rational parametrisation
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        struct = build_invariant_structure(model)
        back = rotate_structure(rotate_structure(struct, (c, s)), (c, -s))
        assert (back.Omega, back.omega, back.star_omega) == (
            struct.Omega,
            struct.omega,
            struct.star_omega,
        )


@pytest.mark.parametrize("u", [Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5, 7)])
def test_generator_gives_the_family_in_closed_form(u):
    """rotate_structure is Omega + V sin(k phi)/k + W (1 - cos(k phi))/k^2."""
    c, s = (1 - u * u) / (1 + u * u), 2 * u / (1 + u * u)
    for model in (q_model(1, 1, 1), m_model(1, 1)):
        deriv = derivation(model)
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
        assert weight_zero == wedge(eta, eta).scaled(Fraction(-1, 2))


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
    return _rotate_all(struct, _rotation(theta, Fraction(1), (1, 1, 1)))


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
