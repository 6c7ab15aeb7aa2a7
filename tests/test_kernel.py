"""The DOPRI5 stepper kernel and its generated right-hand sides."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import _kernel
from holoflow._kernel import _stepper_py
from holoflow.flow import derivation
from holoflow.homogeneous import get_model
from holoflow.integrate import (
    IntegratorConfig,
    OrbitSpec,
    _compile_terms,
    integrate,
    series_start,
)

# Q holonomy system as flat term lists: state (a, b, c, f, F)
COEFFS = [-1 / 6, -1 / 6, -1 / 6, 1 / 6, 1 / 6, 1 / 6, -3.0, 1.0]
EXPS = [
    -1, 0, 0, 1, 0,
    0, -1, 0, 1, 0,
    0, 0, -1, 1, 0,
    -2, 0, 0, 2, 0,
    0, -2, 0, 2, 0,
    0, 0, -2, 2, 0,
    0, 0, 0, 0, 0,
    0, 0, 0, 1, 0,
]
OWNER = [0, 1, 2, 3, 3, 3, 3, 4]
Y0 = [0.5e-6, 1.0, 1.0, -1.5e-6, -0.75e-12]
WATCH = [True, True, True, True, False]


def reference_rhs(coeffs, exps, owner, nstate, nout=None):
    """The term-list interpreter the generated right-hand sides replace."""
    nout = nstate if nout is None else nout

    def rhs(y, out):
        for i in range(nout):
            out[i] = 0.0
        for k in range(len(coeffs)):
            term = coeffs[k]
            base = k * nstate
            for j in range(nstate):
                e = exps[base + j]
                if e == 0:
                    continue
                yj = y[j]
                if yj == 0.0 and e < 0:
                    return False
                term *= yj**e
            out[owner[k]] += term
        return all(math.isfinite(v) for v in out)

    return rhs


def run(t_end=50.0, rtol=1e-10):
    return _stepper_py.solve(
        _stepper_py.make_rhs(COEFFS, EXPS, OWNER, 5),
        5, Y0, 1e-6, t_end, rtol, 1e-12, 0.0, WATCH, 100000,
    )


def test_pure_backend_completes():
    status, ts, ys, dense, na, nr, nfev, maxerr = run()
    assert status == "done"
    assert ts[-1] == 50.0
    assert maxerr <= 1.0
    assert len(ys) == len(ts) * 5
    assert len(dense) == (len(ts) - 1) * 25


def test_dense_eval_reproduces_endpoints():
    status, ts, ys, dense, *_ = run(t_end=5.0)
    n = 5
    out = [0.0] * n
    for step in (0, len(ts) // 2, len(ts) - 2):
        _stepper_py.dense_eval(dense, n, step, 0.0, out)
        start = np.asarray(ys[step * n : (step + 1) * n])
        assert np.allclose(out, start, rtol=1e-13, atol=1e-15)
        _stepper_py.dense_eval(dense, n, step, 1.0, out)
        end = np.asarray(ys[(step + 1) * n : (step + 2) * n])
        assert np.allclose(out, end, rtol=1e-13, atol=1e-15)


def test_zero_base_negative_exponent_flags_blowup():
    y0 = [0.0, 1.0, 1.0, 1.0, 0.0]  # a = 0 with a^-1 in the rhs
    status, *_ = _stepper_py.solve(
        _stepper_py.make_rhs(COEFFS, EXPS, OWNER, 5),
        5, y0, 0.0, 1.0, 1e-8, 1e-10, 0.0, WATCH, 1000,
    )
    assert status == "blowup"


def test_power_beyond_float_range_flags_blowup():
    # a^-2 at a = 1e-200 overflows in the first evaluation; f^2 overflows
    # once f passes 1e154 on the way to t = 1e300
    rhs = _stepper_py.make_rhs(COEFFS, EXPS, OWNER, 5)
    y0 = [1e-200, 1.0, 1.0, 1.0, 0.0]
    status, *_ = _stepper_py.solve(rhs, 5, y0, 0.0, 1.0, 1e-8, 1e-10, 0.0, WATCH, 1000)
    assert status == "blowup"
    status, ts, *_ = run(t_end=1e300)
    assert status == "blowup"
    assert 1e150 < ts[-1] < 1e300


# ---------------------------------------------------------------------------
# generated right-hand sides against the reference interpreter
# ---------------------------------------------------------------------------


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _call(rhs, y, nout):
    out = [0.0] * nout
    try:
        return rhs(y, out), out
    except OverflowError:
        return OverflowError, None


# tiny, huge, subnormal and signed-zero magnitudes, so products overflow
# to inf and zero bases meet negative exponents
COEFF = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, -1e300, 1.7e308]),
)
STATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-200, -1e-160, 1e160, -1e200, 1e308, 5e-324]),
)


@st.composite
def term_lists(draw):
    """A term list of ``nstate`` inputs and ``nout`` outputs: as many as the
    inputs (a right-hand side) or fewer or more (the closure forms)."""
    nstate = draw(st.integers(1, 5))
    nout = draw(st.one_of(st.just(nstate), st.integers(1, 8)))
    nterms = draw(st.integers(0, 8))
    coeffs = draw(st.lists(COEFF, min_size=nterms, max_size=nterms))
    exps = draw(st.lists(st.integers(-3, 3), min_size=nterms * nstate, max_size=nterms * nstate))
    owner = draw(st.lists(st.integers(0, nout - 1), min_size=nterms, max_size=nterms))
    ys = draw(st.lists(st.lists(STATE, min_size=nstate, max_size=nstate), min_size=1, max_size=4))
    return coeffs, exps, owner, nstate, nout, ys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(term_lists())
def test_generated_rhs_is_bit_identical_to_the_interpreter(case):
    coeffs, exps, owner, nstate, nout, ys = case
    generated = _stepper_py.make_rhs(coeffs, exps, owner, nstate, nout)
    reference = reference_rhs(coeffs, exps, owner, nstate, nout)
    for y in ys:
        ok_gen, out_gen = _call(generated, y, nout)
        ok_ref, out_ref = _call(reference, y, nout)
        assert ok_gen is ok_ref
        if ok_ref is True:
            assert _bits(out_gen) == _bits(out_ref)


def test_generator_accepts_only_numbers():
    with pytest.raises(TypeError):
        _stepper_py.make_rhs(["__import__('os')"], [1], [0], 1)
    with pytest.raises(TypeError):
        _stepper_py.make_rhs([1], [1], [0], 1)  # an int coefficient
    with pytest.raises(TypeError):
        _stepper_py.make_rhs([float("inf")], [1], [0], 1)
    with pytest.raises(TypeError):
        _stepper_py.make_rhs([1.0], [1.0], [0], 1)
    with pytest.raises(ValueError):
        _stepper_py.make_rhs([1.0], [1], [1], 1)  # owner out of range
    with pytest.raises(ValueError):
        _stepper_py.make_rhs([1.0], [1], [2], 1, 2)
    with pytest.raises(ValueError):
        _stepper_py.make_rhs([1.0], [1], [0], 1, 0)
    with pytest.raises(ValueError):
        _stepper_py.make_rhs([1.0], [1, 0], [0], 1)


UNIT_ORBITS = [
    ("Q", "s2xs2", {"b": 1, "c": 1}),
    ("Q", "s2xs2xs2", {"a": 1, "b": 1, "c": 1}),
    ("M", "cp2", {"a": 1}),
    ("M", "cp2xs2", {"a": 1, "b": 1}),
    ("M", "s2", {"b": 1}),
]


@pytest.mark.parametrize("kind,orbit,values", UNIT_ORBITS)
def test_solve_is_bit_identical_with_the_interpreter(kind, orbit, values):
    sys_ = derivation(get_model(kind, (1, 1, 1) if kind == "Q" else (1, 1))).sys
    start, _ = series_start(sys_, OrbitSpec(kind, orbit, values))
    coeffs, exps, owner, nstate = _compile_terms(sys_)
    cfg = IntegratorConfig()
    y0 = [start.values[n] for n in sys_.state] + [start.primitive]
    watch = [True] * len(sys_.state) + [False]
    runs = [
        _stepper_py.solve(
            rhs, nstate, y0, start.t, cfg.t_end, cfg.rtol, cfg.atol,
            cfg.initial_step, watch, cfg.max_steps,
        )
        for rhs in (
            reference_rhs(coeffs, exps, owner, nstate),
            _stepper_py.make_rhs(coeffs, exps, owner, nstate),
        )
    ]
    ref, gen = runs
    assert ref[0] == gen[0] == "done"
    for a, b in zip(ref[1:4], gen[1:4]):  # ts, ys, dense
        assert _bits(a) == _bits(b)
    assert ref[4:] == gen[4:]  # naccept, nreject, nfev, max_err


def test_one_generation_per_term_list(monkeypatch):
    monkeypatch.setattr(_stepper_py, "_RHS_CACHE", {})
    calls = []
    real = _stepper_py._generate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_stepper_py, "_generate", counted)
    sys_ = derivation(get_model("M", (1, 1))).sys
    start, _ = series_start(sys_, OrbitSpec("M", "cp2", {"a": 1}))
    cfg = IntegratorConfig(t_end=10.0)
    first = integrate(sys_, start, cfg)
    second = integrate(sys_, start, cfg)
    assert len(calls) == 1
    assert len(_stepper_py._RHS_CACHE) == 1
    assert np.array_equal(first.ys, second.ys)
    assert _kernel.make_rhs is _stepper_py.make_rhs
