"""The DOPRI5 stepper kernel and its generated right-hand sides."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from holoflow import _kernel
from holoflow._kernel import (
    A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
    A71, A73, A74, A75, A76, E1, E3, E4, E5, E6, E7,
    MAX_SCALE, MIN_SCALE, SAFETY, _finite_rhs, _initial_step,
)
from holoflow.homogeneous import get_model
from holoflow.integrate import (
    MAX_STEPS,
    IntegratorConfig,
    OrbitSpec,
    _compile_terms,
    integrate,
    series_start,
)
from paper_tables import UNIT_ORBITS

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


def reference_solve(rhs, nstate, y0, t0, t_end, rtol, atol, h0, watch, max_steps):
    """The interpreted DOPRI5 loop the generated solve loops replace: one
    ``rhs(y, out)`` call per stage and a loop over components for every
    stage argument and the error norm.  Returns
    ``ys`` flat, row after row."""
    n = nstate
    y = list(map(float, y0))
    t = float(t0)
    k1 = [0.0] * n
    k2 = [0.0] * n
    k3 = [0.0] * n
    k4 = [0.0] * n
    k5 = [0.0] * n
    k6 = [0.0] * n
    k7 = [0.0] * n
    ytmp = [0.0] * n
    y1 = [0.0] * n

    ts = [t]
    ys = list(y)
    naccept = nreject = nfev = 0
    max_err = 0.0

    if not _finite_rhs(rhs, y, k1):
        return ("blowup", ts, ys, naccept, nreject, 1, max_err)
    nfev = 1

    hmax = abs(t_end - t)
    h = h0 if h0 > 0.0 else _initial_step(rhs, n, t, y, k1, rtol, atol, hmax)
    nfev += 2
    h = min(h, hmax)

    sign0 = [0.0] * n
    for i in range(n):
        if watch[i]:
            sign0[i] = 1.0 if y[i] > 0 else (-1.0 if y[i] < 0 else 0.0)

    status = "running"
    steps = 0
    while status == "running":
        steps += 1
        if steps > max_steps:
            status = "max_steps"
            break
        if t + h >= t_end:
            h = t_end - t
        if h <= abs(t) * 1e-16 + 1e-300:
            status = "underflow"
            break

        try:
            for i in range(n):
                ytmp[i] = y[i] + h * A21 * k1[i]
            ok = rhs(ytmp, k2)
            for i in range(n):
                ytmp[i] = y[i] + h * (A31 * k1[i] + A32 * k2[i])
            ok = ok and rhs(ytmp, k3)
            for i in range(n):
                ytmp[i] = y[i] + h * (A41 * k1[i] + A42 * k2[i] + A43 * k3[i])
            ok = ok and rhs(ytmp, k4)
            for i in range(n):
                ytmp[i] = y[i] + h * (A51 * k1[i] + A52 * k2[i] + A53 * k3[i] + A54 * k4[i])
            ok = ok and rhs(ytmp, k5)
            for i in range(n):
                ytmp[i] = y[i] + h * (
                    A61 * k1[i] + A62 * k2[i] + A63 * k3[i] + A64 * k4[i] + A65 * k5[i]
                )
            ok = ok and rhs(ytmp, k6)
            for i in range(n):
                y1[i] = y[i] + h * (
                    A71 * k1[i] + A73 * k3[i] + A74 * k4[i] + A75 * k5[i] + A76 * k6[i]
                )
            ok = ok and rhs(y1, k7)
        except OverflowError:
            ok = False  # a power beyond float range, as a non-finite value
        nfev += 6

        if not ok:
            nreject += 1
            h *= 0.5
            if h <= abs(t) * 1e-16 + 1e-300:
                status = "blowup"
            continue

        err = 0.0
        for i in range(n):
            e = h * (
                E1 * k1[i] + E3 * k3[i] + E4 * k4[i] + E5 * k5[i] + E6 * k6[i] + E7 * k7[i]
            )
            sc = atol + rtol * max(abs(y[i]), abs(y1[i]))
            r = e / sc
            err += r * r
        err = math.sqrt(err / n)

        if err <= 1.0:  # accepted
            t += h
            naccept += 1
            if err > max_err:
                max_err = err
            y, y1 = y1, y
            k1, k7 = k7, k1  # FSAL
            ts.append(t)
            ys.extend(y)

            crossed = False
            for i in range(n):
                if watch[i] and sign0[i] != 0.0 and y[i] * sign0[i] <= 0.0:
                    crossed = True
            if crossed:
                status = "sign_change"
            elif t >= t_end:
                status = "done"
            else:
                fac = SAFETY * err ** (-0.2) if err > 0.0 else MAX_SCALE
                h = min(h * min(MAX_SCALE, max(MIN_SCALE, fac)), hmax)
        else:
            nreject += 1
            fac = SAFETY * err ** (-0.2)
            h *= max(MIN_SCALE, min(1.0, fac))

    return (status, ts, ys, naccept, nreject, nfev, max_err)


def flat(rows):
    return [v for row in rows for v in row]


def run(t_end=50.0, rtol=1e-10):
    status, ts, ys, *rest = _kernel.solve(
        (COEFFS, EXPS, OWNER, 5), Y0, 1e-6, t_end, rtol, 1e-12, 0.0, WATCH, 100000,
    )
    return (status, ts, flat(ys), *rest)


def test_pure_backend_completes():
    status, ts, ys, na, nr, nfev, maxerr = run()
    assert status == "done"
    assert ts[-1] == 50.0
    assert maxerr <= 1.0
    assert len(ys) == len(ts) * 5
    assert na == len(ts) - 1


def test_zero_base_negative_exponent_flags_blowup():
    y0 = [0.0, 1.0, 1.0, 1.0, 0.0]  # a = 0 with a^-1 in the rhs
    status, *_ = _kernel.solve(
        (COEFFS, EXPS, OWNER, 5), y0, 0.0, 1.0, 1e-8, 1e-10, 0.0, WATCH, 1000,
    )
    assert status == "blowup"


def test_power_beyond_float_range_flags_blowup():
    # a^-2 at a = 1e-200 overflows in the first evaluation; f^2 overflows
    # once f passes 1e154 on the way to t = 1e300
    y0 = [1e-200, 1.0, 1.0, 1.0, 0.0]
    status, *_ = _kernel.solve(
        (COEFFS, EXPS, OWNER, 5), y0, 0.0, 1.0, 1e-8, 1e-10, 0.0, WATCH, 1000,
    )
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


def _assert_same_rhs(coeffs, exps, owner, nin, nout, ys):
    generated = _kernel.make_rhs(coeffs, exps, owner, nin, nout)
    reference = reference_rhs(coeffs, exps, owner, nin, nout)
    for y in ys:
        ok_gen, out_gen = _call(generated, y, nout)
        ok_ref, out_ref = _call(reference, y, nout)
        assert ok_gen is ok_ref
        if ok_ref is True:
            assert _bits(out_gen) == _bits(out_ref)


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


@seed(27412486317141166758946189090611981657915556684259302596470751776449332086252519463980632264086293784058433106059048)
@settings(max_examples=300, deadline=None, database=None)
@given(term_lists())
def test_generated_rhs_is_bit_identical_to_the_interpreter(case):
    _assert_same_rhs(*case)


def test_generator_accepts_only_numbers():
    with pytest.raises(TypeError):
        _kernel.make_rhs(["__import__('os')"], [1], [0], 1)
    with pytest.raises(TypeError):
        _kernel.make_rhs([1], [1], [0], 1)  # an int coefficient
    with pytest.raises(TypeError):
        _kernel.make_rhs([float("inf")], [1], [0], 1)
    with pytest.raises(TypeError):
        _kernel.make_rhs([1.0], [1.0], [0], 1)
    with pytest.raises(ValueError):
        _kernel.make_rhs([1.0], [1], [1], 1)  # owner out of range
    with pytest.raises(ValueError):
        _kernel.make_rhs([1.0], [1], [2], 1, 2)
    with pytest.raises(ValueError):
        _kernel.make_rhs([1.0], [1], [0], 1, 0)
    with pytest.raises(ValueError):
        _kernel.make_rhs([1.0], [1, 0], [0], 1)
    with pytest.raises(TypeError):  # the solve loop's generator checks its terms too
        _kernel.solve((["__import__('os')"], [1], [0], 1), [1.0], 0.0, 1.0, 1e-6, 1e-9, 0.0, [True], 10)


@pytest.mark.parametrize(
    "kind,orbit,values", [(kind, orbit, dict.fromkeys(names, 1)) for kind, orbit, names in UNIT_ORBITS]
)
def test_solve_is_bit_identical_with_the_interpreter(kind, orbit, values):
    sys_ = get_model(kind, (1, 1, 1) if kind == "Q" else (1, 1)).derivation.sys
    start, _ = series_start(sys_, OrbitSpec(kind, orbit, values))
    coeffs, exps, owner, nstate = _compile_terms(sys_)
    cfg = IntegratorConfig()
    y0 = [start.values[n] for n in sys_.state] + [start.primitive]
    watch = [True] * len(sys_.state) + [False]
    args = (y0, start.t, cfg.t_end, cfg.rtol, cfg.atol, cfg.initial_step, watch, MAX_STEPS)
    ref = reference_solve(reference_rhs(coeffs, exps, owner, nstate), nstate, *args)
    gen = _kernel.solve((coeffs, exps, owner, nstate), *args)
    gen = (gen[0], gen[1], flat(gen[2]), *gen[3:])
    assert ref[0] == gen[0] == "done"
    for a, b in zip(ref[1:3], gen[1:3]):  # ts, ys
        assert _bits(a) == _bits(b)
    assert ref[3:] == gen[3:]  # naccept, nreject, nfev, max_err


def test_one_generation_per_term_list(monkeypatch):
    monkeypatch.setattr(_kernel, "_LOOP_CACHE", {})
    calls = {"_generate": [], "_generate_loop": []}
    for name, log in calls.items():
        real = getattr(_kernel, name)

        def counted(*args, real=real, log=log):
            log.append(args)
            return real(*args)

        monkeypatch.setattr(_kernel, name, counted)
    sys_ = get_model("M", (1, 1)).derivation.sys
    start, _ = series_start(sys_, OrbitSpec("M", "cp2", {"a": 1}))
    cfg = IntegratorConfig(t_end=10.0)
    first = integrate(sys_, start, cfg)
    second = integrate(sys_, start, cfg)
    assert len(calls["_generate"]) == 1
    assert len(calls["_generate_loop"]) == 1
    assert len(_kernel._LOOP_CACHE) == 1
    assert np.array_equal(first.ys, second.ys)


# ---------------------------------------------------------------------------
# generated solve loops against the reference loop
# ---------------------------------------------------------------------------


def _both_solves(coeffs, exps, owner, nstate, *args):
    """The generated loop and the reference loop on the reference rhs, each
    as its result with ``ys`` flat, or the type of the error it raised."""
    try:
        gen = _kernel.solve((coeffs, exps, owner, nstate), *args)
        gen = (gen[0], gen[1], flat(gen[2]), *gen[3:])
    except (OverflowError, ZeroDivisionError) as exc:
        gen = type(exc)
    try:
        ref = reference_solve(reference_rhs(coeffs, exps, owner, nstate), nstate, *args)
    except (OverflowError, ZeroDivisionError) as exc:
        ref = type(exc)
    return gen, ref


def _assert_same_run(gen, ref):
    if isinstance(ref, type):
        assert gen is ref
        return
    assert gen[0] == ref[0]  # status
    for a, b in zip(gen[1:3], ref[1:3]):  # ts, ys
        assert _bits(a) == _bits(b)
    assert gen[3:6] == ref[3:6]  # naccept, nreject, nfev
    assert _bits(gen[6:]) == _bits(ref[6:])  # max_err


# (coeffs, exps, owner, nstate, y0, t0, t_end, rtol, atol, h0, watch, max_steps)
STATUS_CASES = {
    # f^2 overflows once f passes 1e154 on the way to t = 1e300
    "blowup": (COEFFS, EXPS, OWNER, 5, Y0, 1e-6, 1e300, 1e-10, 1e-12, 0.0, WATCH, 100000),
    # y' = -1 from y = 1 crosses zero at t = 1
    "sign_change": ([-1.0], [0], [0], 1, [1.0], 0.0, 10.0, 1e-6, 1e-9, 0.0, [True], 1000),
    # a first step of 1 is below the resolution of t = 1e17
    "underflow": ([1.0], [1], [0], 1, [1.0], 1e17, 2e17, 1e-6, 1e-9, 1.0, [True], 1000),
    "max_steps": (COEFFS, EXPS, OWNER, 5, Y0, 1e-6, 50.0, 1e-10, 1e-12, 0.0, WATCH, 7),
    "done": (COEFFS, EXPS, OWNER, 5, Y0, 1e-6, 50.0, 1e-8, 1e-10, 1e-3, WATCH, 1000),
}


@pytest.mark.parametrize("status", sorted(STATUS_CASES))
def test_generated_loop_is_bit_identical_on_every_status(status):
    gen, ref = _both_solves(*STATUS_CASES[status])
    assert ref[0] == status
    _assert_same_run(gen, ref)


#: runs whose first step is chosen automatically but no float step fits:
#: an empty span, and a slope whose square over its error scale is beyond
#: float range
NO_FIRST_STEP_CASES = {
    "empty-span": ([1.0], [0], [0], 1, [1.0], 1.0, 1.0, 1e-6, 1e-9, 0.0, [False], 1000),
    "steep-slope": ([1e200], [0], [0], 1, [1.0], 0.0, 1.0, 1e-10, 1e-12, 0.0, [False], 1000),
}


@pytest.mark.parametrize("case", sorted(NO_FIRST_STEP_CASES))
def test_no_first_step_stops_as_underflow(case):
    gen, ref = _both_solves(*NO_FIRST_STEP_CASES[case])
    assert ref[0] == "underflow"
    _assert_same_run(gen, ref)


def _mostly(values, special):
    """Draws from ``values`` about seven times in eight, else from ``special``."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(special) if k == 7 else values)


@st.composite
def solve_cases(draw):
    """A right-hand side, its start, tolerances and a step budget.  Moderate
    values with a share of extreme ones give runs that end in every status,
    with rejected steps and with errors raised by the first step's choice."""
    nstate = draw(st.integers(1, 4))
    nterms = draw(st.integers(0, 6))
    coeff = _mostly(st.floats(-3.0, 3.0, allow_nan=False), [0.0, -0.0, 1e-8, 1e8, -1e150])
    coeffs = draw(st.lists(coeff, min_size=nterms, max_size=nterms))
    exponent = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])
    exps = draw(st.lists(exponent, min_size=nterms * nstate, max_size=nterms * nstate))
    owner = draw(st.lists(st.integers(0, nstate - 1), min_size=nterms, max_size=nterms))
    # nonzero start values, so a negative exponent does not end most runs at once
    signed = st.builds(math.copysign, st.floats(0.1, 10.0), st.sampled_from([1.0, -1.0]))
    value = _mostly(signed, [0.0, -0.0, 1e-200, 1e100, -1e160, 5e-324])
    y0 = draw(st.lists(value, min_size=nstate, max_size=nstate))
    t0 = draw(st.sampled_from([0.0, 1e-6, 1.0, 1e17]))
    t_end = t0 + draw(st.sampled_from([1e-3, 1.0, 10.0, 1e4]))
    rtol = draw(st.sampled_from([1e-3, 1e-6, 1e-10, 1e-13]))
    atol = draw(st.sampled_from([1e-6, 1e-12, 1e-300]))
    h0 = draw(st.sampled_from([0.0, 0.0, 1e-4, 0.5, 1e6]))
    watch = draw(st.lists(st.booleans(), min_size=nstate, max_size=nstate))
    max_steps = draw(st.integers(1, 300))
    return (coeffs, exps, owner, nstate, y0, t0, t_end, rtol, atol, h0, watch, max_steps)


@seed(15247528173148648965039954372321088011127215462643127835068585544137071212408061812430488482252877919268382220982008)
@settings(max_examples=300, deadline=None, database=None)
@given(solve_cases())
def test_generated_loop_is_bit_identical_to_the_reference_loop(case):
    _assert_same_run(*_both_solves(*case))


# ---------------------------------------------------------------------------
# the term emitter
# ---------------------------------------------------------------------------

EXTREME_BASES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    0.5, -0.5, 1.0, -1.0, 3.0, -7.25, 1e308, -1e308, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]


def _power(x, e):
    try:
        return struct.pack("<d", x**e)
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("x", EXTREME_BASES, ids=repr)
def test_int_and_float_exponents_give_the_same_power(x):
    """The emitter writes each exponent as a float literal: ``x ** e`` and
    ``x ** float(e)`` are the same C ``pow`` on the same double."""
    for e in range(-40, 41):
        assert _power(x, e) == _power(x, float(e)), e


def _emitted(monkeypatch, generate, *args):
    """The source lines ``generate(*args)`` compiles."""
    seen = []
    real = _kernel._compile

    def capture(lines, *rest):
        seen.append(lines)
        return real(lines, *rest)

    monkeypatch.setattr(_kernel, "_compile", capture)
    generate(*args)
    return seen[-1]


def test_emitter_sums_thousands_of_terms_in_one_output():
    """One sum of some thousands of terms is too deep for the compiler, so
    the emitter splits it over lines; an output with no terms reads 0.0."""
    rng = np.random.default_rng(24)
    nterms = 5000
    coeffs = [float(c) for c in rng.uniform(-2.0, 2.0, nterms)]
    exps = [int(e) for e in rng.choice([-2, -1, 0, 1, 2, 3], 2 * nterms)]
    owner = [0] * nterms
    _assert_same_rhs(coeffs, exps, owner, 2, 2, [[1.0, 0.5], [-0.75, 3.0], [0.0, 1.0]])
    run = _both_solves(coeffs, exps, owner, 2, [1.0, 0.5], 0.0, 1.0, 1e-6, 1e-9, 0.0, [False, False], 3)
    assert run[1][0] == "max_steps"
    _assert_same_run(*run)


def test_emitter_drops_a_unit_coefficient_bit_for_bit():
    """``1.0 * x`` is ``x``, -0.0 included, and the sum's leading 0.0 still
    turns a lone -0.0 term into 0.0."""
    coeffs = [1.0, 1.0, -0.0, 1.0]
    exps = [1, 0, 1, 1, 0, 0, 2, -1]
    owner = [0, 1, 1, 2]
    ys = [[-0.0, 3.0], [-0.0, -0.0], [2.5, -0.0], [-0.0, 1e-200]]
    _assert_same_rhs(coeffs, exps, owner, 2, 3, ys)
    run = _both_solves([1.0, 1.0], [1, 0, 1, 1], [0, 1], 2, [-0.0, -0.0], 0.0, 1.0, 1e-6, 1e-9, 0.0, [True, False], 50)
    assert run[1][0] == "done"
    _assert_same_run(*run)


def test_emitter_gives_outputs_without_terms_zero():
    _assert_same_rhs([2.0], [1, 1], [1], 2, 4, [[1.5, -2.0], [0.0, math.inf]])
    _assert_same_rhs([], [], [], 2, 3, [[1.5, -2.0]])
    run = _both_solves([-0.5], [0, 1, 0], [2], 3, [1.0, 2.0, 3.0], 0.0, 2.0, 1e-8, 1e-10, 0.0, [True] * 3, 100)
    assert run[1][0] == "done"
    _assert_same_run(*run)


@pytest.mark.parametrize("e", [10**400, -(10**400)], ids=["huge", "-huge"])
def test_exponent_beyond_float_range_keeps_its_int(e, monkeypatch):
    """An exponent no double holds stays an int literal: its power raises
    OverflowError, as ``y ** e`` does for every float y."""
    lines = _emitted(monkeypatch, _kernel._generate, (1.0,), (e,), (0,), 1, 1)
    assert f"    p0 = y0 ** {e}" in "\n".join(lines)
    rhs = _kernel.make_rhs([1.0], [e], [0], 1)
    for y in (2.0, 0.5, 0.0, -0.0, -3.0):
        with pytest.raises(OverflowError):
            rhs([y], [0.0])
        with pytest.raises(OverflowError):
            y**e
    _assert_same_rhs([1.0], [e], [0], 1, 1, [[2.0], [-0.5]])
    run = _both_solves([1.0], [e], [0], 1, [2.0], 0.0, 1.0, 1e-6, 1e-9, 0.0, [False], 10)
    assert run[1][0] == "blowup"
    _assert_same_run(*run)


@pytest.mark.parametrize("kind", ["Q", "M"])
def test_each_distinct_power_is_computed_once_per_stage(kind, monkeypatch):
    sys_ = get_model(kind, (1, 1, 1) if kind == "Q" else (1, 1)).derivation.sys
    coeffs, exps, owner, nstate = _compile_terms(sys_)
    powers = {(k % nstate, e) for k, e in enumerate(exps) if e not in (0, 1)}
    assert len(powers) < sum(e not in (0, 1) for e in exps)  # some power repeats
    rhs = _emitted(monkeypatch, _kernel._generate, tuple(coeffs), tuple(exps), tuple(owner), nstate, nstate)
    loop = _emitted(monkeypatch, _kernel._generate_loop, tuple(coeffs), tuple(exps), tuple(owner), nstate)
    assert "\n".join(rhs).count("**") == len(powers)
    # each exponent is a float literal, which pow needs no conversion for
    assert all(line.split(" ** ")[1].endswith(".0") for line in rhs if "**" in line)
    # six stages, and the step-size control's two ``err ** -0.2``
    assert "\n".join(loop).count("**") == 6 * len(powers) + 2
    assert not any("+=" in line for line in rhs)  # each output is one sum
