"""Pure-Python Dormand-Prince 5(4) stepper on generated right-hand sides.

A right-hand side is a flat list of power-product terms
``deriv[owner[k]] += coeff[k] * prod(y_j ** exps[k, j])``; ``make_rhs`` turns
it into one straight-line function, once per term list.  The same generator
compiles the closure check's forms, whose outputs outnumber their inputs.
"""

from __future__ import annotations

import math

# Dormand-Prince 5(4) tableau
C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
A71, A73, A74, A75, A76 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
E1, E3, E4, E5, E6, E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
D1 = -12715105075.0 / 11282082432.0
D3 = 87487479700.0 / 32700410799.0
D4 = -10690763975.0 / 1880347072.0
D5 = 701980252875.0 / 199316789632.0
D6 = -1453857185.0 / 822651844.0
D7 = 69997945.0 / 29380423.0

# step-size control: safety factor and the bounds on one step's growth
SAFETY = 0.9
MIN_SCALE = 0.2
MAX_SCALE = 5.0


#: generated right-hand sides, keyed on (coeffs, exps, owner, nin, nout)
_RHS_CACHE = {}


def make_rhs(coeffs, exps, owner, nin, nout=None):
    """The function ``rhs(y, out) -> bool`` of one term list.

    Term ``k`` adds ``coeffs[k] * y[0] ** exps[k * nin] * ...`` (zero
    exponents left out) to ``out[owner[k]]``; ``y`` holds ``nin`` values and
    ``out`` receives ``nout`` (by default ``nin``, as for a right-hand side).
    The function is straight-line code generated once per term list; it
    computes the same floats, in the same order, as a loop over the terms
    and their factors.  It writes ``out`` and returns whether every entry is
    finite, or returns False without writing ``out`` when a zero base meets
    a negative exponent.
    """
    key = (tuple(coeffs), tuple(exps), tuple(owner), nin, nin if nout is None else nout)
    rhs = _RHS_CACHE.get(key)
    if rhs is None:
        rhs = _RHS_CACHE[key] = _generate(*key)
    return rhs


def _generate(coeffs, exps, owner, nin, nout):
    # the source holds only float reprs, int exponents and y{j}/o{i} names
    if not all(type(n) is int and n >= 1 for n in (nin, nout)):
        raise ValueError("nin and nout must be positive ints")
    if len(owner) != len(coeffs) or len(exps) != len(coeffs) * nin:
        raise ValueError("term lists of mismatched lengths")
    if not all(type(c) is float and math.isfinite(c) for c in coeffs):
        raise TypeError("coefficients must be finite floats")
    if not all(type(e) is int for e in exps):
        raise TypeError("exponents must be ints")
    if not all(type(i) is int and 0 <= i < nout for i in owner):
        raise ValueError("owners must be output indices")
    ys = ", ".join(f"y{j}" for j in range(nin))
    outs = [f"o{i}" for i in range(nout)]
    lines = [
        "def rhs(y, out):",
        f"    {ys}, = y",
        f"    {' = '.join(outs)} = 0.0",
        "    try:",
    ]
    for k, c in enumerate(coeffs):
        # y ** 1 is y exactly, so a unit exponent is left out
        factors = "".join(
            f" * y{j}" if e == 1 else f" * y{j} ** {e}"
            for j, e in enumerate(exps[k * nin : (k + 1) * nin])
            if e
        )
        lines.append(f"        o{owner[k]} += {c!r}{factors}")
    if not coeffs:
        lines.append("        pass")
    lines.append("    except ZeroDivisionError:")
    lines.append("        return False")
    lines.extend(f"    out[{i}] = o{i}" for i in range(nout))
    lines.append("    return " + " and ".join(f"isfinite({o})" for o in outs))
    namespace = {"isfinite": math.isfinite}
    exec(compile("\n".join(lines), "<holoflow rhs>", "exec"), namespace)
    return namespace["rhs"]


def solve(rhs, nstate, y0, t0, t_end, rtol, atol, h0, watch, max_steps):
    """Adaptive DOPRI5 loop with Hairer dense-output coefficients.

    ``rhs(y, out)`` writes the derivative of the ``nstate`` components of
    ``y`` into ``out`` and returns False on a non-finite value (see
    ``make_rhs``); an OverflowError it raises counts as a False return, so
    the step is rejected.  ``h0 <= 0`` picks the first step automatically;
    no step is longer than ``|t_end - t0|``.  Components flagged in
    ``watch`` stop the run with status ``sign_change`` when they cross zero.

    Returns (status, ts, ys, dense, naccept, nreject, nfev, max_err) where
    ``ys`` is flat row-major and ``dense`` holds 5*nstate continuous-extension
    coefficients per accepted step.
    """
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
    dense = []
    naccept = nreject = nfev = 0
    max_err = 0.0

    if not _finite_rhs(rhs, y, k1):
        return ("blowup", ts, ys, dense, naccept, nreject, 1, max_err)
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

        if err <= 1.0:
            # accepted; store Hairer continuous-extension coefficients
            for i in range(n):
                ydiff = y1[i] - y[i]
                bspl = h * k1[i] - ydiff
                dense.append(y[i])
                dense.append(ydiff)
                dense.append(bspl)
                dense.append(ydiff - h * k7[i] - bspl)
                dense.append(
                    h
                    * (
                        D1 * k1[i]
                        + D3 * k3[i]
                        + D4 * k4[i]
                        + D5 * k5[i]
                        + D6 * k6[i]
                        + D7 * k7[i]
                    )
                )
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

    return (status, ts, ys, dense, naccept, nreject, nfev, max_err)


def _finite_rhs(rhs, y, out):
    """``rhs(y, out)``, reading an OverflowError (a float ``**`` beyond
    float range) as a non-finite value."""
    try:
        return rhs(y, out)
    except OverflowError:
        return False


def _initial_step(rhs, n, t, y, f0, rtol, atol, hmax):
    d0 = 0.0
    d1 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d0 += (y[i] / sc) ** 2
        d1 += (f0[i] / sc) ** 2
    d0 = math.sqrt(d0 / n)
    d1 = math.sqrt(d1 / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, hmax)
    y1 = [y[i] + h0 * f0[i] for i in range(n)]
    f1 = [0.0] * n
    if not _finite_rhs(rhs, y1, f1):
        return max(1e-12, h0 * 1e-3)
    d2 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d2 += ((f1[i] - f0[i]) / sc) ** 2
    d2 = math.sqrt(d2 / n) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, hmax)


def dense_eval(dense, nstate, step, theta, out):
    """Evaluate the continuous extension of one accepted step at theta."""
    base = step * 5 * nstate
    th1 = 1.0 - theta
    for i in range(nstate):
        o = base + 5 * i
        out[i] = dense[o] + theta * (
            dense[o + 1]
            + th1 * (dense[o + 2] + theta * (dense[o + 3] + th1 * dense[o + 4]))
        )
    return out
