"""The DOPRI5 stepper kernel on a flat term-list right-hand side."""

import numpy as np

from holoflow._kernel import _stepper_py

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


def run(t_end=50.0, rtol=1e-10):
    return _stepper_py.solve(
        COEFFS, EXPS, OWNER, 5, Y0, 1e-6, t_end, rtol, 1e-12, 0.0, WATCH, 100000,
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
        COEFFS, EXPS, OWNER, 5, y0, 0.0, 1.0, 1e-8, 1e-10, 0.0, WATCH, 1000,
    )
    assert status == "blowup"
