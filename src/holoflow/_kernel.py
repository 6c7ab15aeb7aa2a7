"""Pure-Python Dormand-Prince 5(4) stepper, generated per right-hand side.

A right-hand side is a flat list of power-product terms
``deriv[owner[k]] += coeff[k] * prod(y_j ** exps[k, j])``; ``make_rhs`` turns
it into one straight-line function.  The same term emitter writes the solve
loop of each list: the state, the stage slopes and the error norm are local
scalars, and the six stage evaluations are the right-hand side's terms
inlined.  The same generator compiles the closure check's forms, whose
outputs outnumber their inputs.
"""

from __future__ import annotations

import math
import sys

# the module's own name under the stepper's old package path, which
# ``perfbench/test_recorder.py`` still reads
_impl = sys.modules[__name__]

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

# step-size control: safety factor and the bounds on one step's growth
SAFETY = 0.9
MIN_SCALE = 0.2
MAX_SCALE = 5.0

# the stage and error weights as (stage, weight) pairs; stage 2's
# argument y + h * A21 * k1 has its own form
STAGE_WEIGHTS = (
    ((1, A31), (2, A32)),
    ((1, A41), (2, A42), (3, A43)),
    ((1, A51), (2, A52), (3, A53), (4, A54)),
    ((1, A61), (2, A62), (3, A63), (4, A64), (5, A65)),
    ((1, A71), (3, A73), (4, A74), (5, A75), (6, A76)),
)
ERROR_WEIGHTS = ((1, E1), (3, E3), (4, E4), (5, E5), (6, E6), (7, E7))


#: generated solve loops, keyed on (coeffs, exps, owner, nstate): the one
#: cache keyed on content rather than on its source, as a content key cannot go stale
_LOOP_CACHE = {}


def make_rhs(coeffs, exps, owner, nin, nout=None):
    """The function ``rhs(y, out) -> bool`` of one term list.

    Term ``k`` adds ``coeffs[k] * y[0] ** exps[k * nin] * ...`` (zero
    exponents left out) to ``out[owner[k]]``; ``y`` holds ``nin`` values and
    ``out`` receives ``nout`` (by default ``nin``, as for a right-hand side).
    The function is straight-line code, generated anew by each call, so a
    caller keeps it; it computes the same floats, in the same order, as a
    loop over the terms and their factors.  It writes ``out`` and returns
    whether every entry is finite, or returns False without writing ``out``
    when a zero base meets a negative exponent.
    """
    return _generate(coeffs, exps, owner, nin, nin if nout is None else nout)


def _check_terms(coeffs, exps, owner, nin, nout):
    # the source holds only float and int reprs and generated names
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


#: most terms summed on one line: a single sum of some thousands of terms
#: nests too deep for CPython's compiler
SUM_TERMS = 64


def _term_lines(coeffs, exps, owner, nin, ins, outs, indent):
    """The lines that set each local of ``outs`` to its terms' sum, reading
    the input locals ``ins``.

    Every float is the one the term loop of ``make_rhs``'s docstring
    computes.  Each distinct power ``in ** e`` is computed once, as a local
    ``p{m}``, in the order the terms first use it, so the first power that
    raises is the one the term loop meets first.  Its exponent is written
    as the float ``e`` converts to (the same C ``pow`` on the same double),
    or as the int where that conversion overflows, so that it raises as the
    int does.  Each output is one left-to-right sum ``0.0 + t1 + t2 + ...``
    of its terms in term order, split over lines of ``SUM_TERMS`` terms.
    """
    lines = []
    powers = {}
    sums = [[] for _ in outs]
    for k, c in enumerate(coeffs):
        factors = []
        for j, e in enumerate(exps[k * nin : (k + 1) * nin]):
            if e == 1:  # y ** 1 is y exactly
                factors.append(ins[j])
            elif e:
                name = powers.get((j, e))
                if name is None:
                    name = powers[j, e] = f"p{len(powers)}"
                    lines.append(f"{indent}{name} = {ins[j]} ** {_exponent(e)}")
                factors.append(name)
        if c != 1.0 or not factors:  # 1.0 * x is x exactly
            factors.insert(0, repr(c))
        sums[owner[k]].append(" * ".join(factors))
    for out, terms in zip(outs, sums):
        lines.append(f"{indent}{out} = {' + '.join(['0.0'] + terms[:SUM_TERMS])}")
        lines.extend(
            f"{indent}{out} = {' + '.join([out] + terms[i : i + SUM_TERMS])}"
            for i in range(SUM_TERMS, len(terms), SUM_TERMS)
        )
    return lines


def _exponent(e):
    try:
        return repr(float(e))
    except OverflowError:
        return repr(e)


def _compile(lines, filename, name, namespace):
    exec(compile("\n".join(lines), filename, "exec"), namespace)
    return namespace[name]


def _generate(coeffs, exps, owner, nin, nout):
    _check_terms(coeffs, exps, owner, nin, nout)
    ins = [f"y{j}" for j in range(nin)]
    outs = [f"o{i}" for i in range(nout)]
    lines = [
        "def rhs(y, out):",
        f"    {', '.join(ins)}, = y",
        "    try:",
    ]
    lines.extend(_term_lines(coeffs, exps, owner, nin, ins, outs, " " * 8))
    lines.append("    except ZeroDivisionError:")
    lines.append("        return False")
    lines.extend(f"    out[{i}] = o{i}" for i in range(nout))
    lines.append("    return " + " and ".join(f"isfinite({o})" for o in outs))
    return _compile(lines, "<holoflow rhs>", "rhs", {"isfinite": math.isfinite})


def solve(terms, y0, t0, t_end, rtol, atol, h0, watch, max_steps):
    """Adaptive DOPRI5 run of one term list.

    ``terms`` is ``(coeffs, exps, owner, nstate)``, a right-hand side as
    ``make_rhs`` reads it; its solve loop is generated on first use and
    cached.  A step whose stages meet a non-finite value, a zero base with
    a negative exponent or a power beyond float range is rejected and the
    step halved; the run ends as ``blowup`` once the step underflows that
    way.  ``h0 <= 0`` picks the first step automatically; no step is longer
    than ``|t_end - t0|``.  Components flagged in ``watch`` stop the run
    with status ``sign_change`` when they cross zero.

    Returns (status, ts, ys, naccept, nreject, nfev, max_err) where ``ys``
    holds one list of ``nstate`` values per sample.
    """
    coeffs, exps, owner, nstate = terms
    key = (tuple(coeffs), tuple(exps), tuple(owner), nstate)
    loop = _LOOP_CACHE.get(key)
    if loop is None:
        loop = _LOOP_CACHE[key] = _generate_loop(*key)
    return loop(y0, t0, t_end, rtol, atol, h0, watch, max_steps)


def _generate_loop(coeffs, exps, owner, n):
    """The source of one term list's solve loop, compiled.

    Every float is computed as the interpreted loop over components
    (``reference_solve`` in ``tests/test_kernel.py``) computes it: the same
    operations in the same order, with ``max``/``min`` of two
    floats written as the comparisons CPython makes.
    """
    rhs = make_rhs(coeffs, exps, owner, n)  # checks the term list before any source is written
    idx = range(n)

    def row(prefix):
        return ", ".join(f"{prefix}{i}" for i in idx)

    def weighted(weights, i):
        return " + ".join(f"{w!r} * k{s}_{i}" for s, w in weights)

    def finite(s):
        return " and ".join(f"isfinite(k{s}_{i})" for i in idx)

    used = sorted({j for k in range(len(coeffs)) for j in idx if exps[k * n + j]})
    lines = [
        "def solve(y_start, t0, t_end, rtol, atol, h0, watch, max_steps):",
        "    y = list(map(float, y_start))",
        "    t = float(t0)",
        f"    k1 = [0.0] * {n}",
        "    ts = [t]",
        "    ys = [list(y)]",
        "    if not _finite_rhs(rhs, y, k1):",
        '        return ("blowup", ts, ys, 0, 0, 1, 0.0)',
        "    naccept = nreject = 0",
        "    nfev = 3",
        "    max_err = 0.0",
        "    hmax = abs(t_end - t)",
        f"    h = h0 if h0 > 0.0 else _initial_step(rhs, {n}, t, y, k1, rtol, atol, hmax)",
        "    h = min(h, hmax)",
        f"    {row('y')}, = y",
        f"    {row('k1_')}, = k1",
    ]
    lines.extend(
        f"    s{i} = (1.0 if y{i} > 0 else (-1.0 if y{i} < 0 else 0.0)) if watch[{i}] else 0.0"
        for i in idx
    )
    lines += [
        "    steps = 0",
        "    while True:",
        "        steps += 1",
        "        if steps > max_steps:",
        '            status = "max_steps"',
        "            break",
        "        if t + h >= t_end:",
        "            h = t_end - t",
        "        if h <= abs(t) * 1e-16 + 1e-300:",
        '            status = "underflow"',
        "            break",
        "        ok = False",
        "        try:",
        f"            a21 = h * {A21!r}",
    ]
    # stages 2..7: each argument, then the inlined terms, then the finite
    # test that guards the next stage; stage 7's argument is the new state
    indent = " " * 12
    ins = [f"z{j}" for j in idx]
    lines.extend(f"{indent}z{j} = y{j} + a21 * k1_{j}" for j in used)
    for s, weights in enumerate((None,) + STAGE_WEIGHTS, start=2):
        if weights is not None:
            if s == 7:
                ins = [f"yn{j}" for j in idx]
            lines.extend(
                f"{indent}{ins[j]} = y{j} + h * ({weighted(weights, j)})"
                for j in (idx if s == 7 else used)
            )
        outs = [f"k{s}_{i}" for i in idx]
        lines.extend(_term_lines(coeffs, exps, owner, n, ins, outs, indent))
        if s < 7:
            lines.append(f"{indent}if {finite(s)}:")
            indent += "    "
    lines += [
        f"{indent}ok = {finite(7)}",
        "        except (ZeroDivisionError, OverflowError):",
        "            pass  # a zero to a negative power or a power beyond float range",
        "        nfev += 6",
        "        if not ok:",
        "            nreject += 1",
        "            h *= 0.5",
        "            if h <= abs(t) * 1e-16 + 1e-300:",
        '                status = "blowup"',
        "                break",
        "            continue",
        "        err = 0.0",
    ]
    for i in idx:
        lines += [
            f"        e = h * ({weighted(ERROR_WEIGHTS, i)})",
            f"        a = abs(y{i})",
            f"        b = abs(yn{i})",
            "        r = e / (atol + rtol * (b if b > a else a))",
            "        err += r * r",
        ]
    lines += [
        f"        err = sqrt(err / {n})",
        "        if err <= 1.0:",
    ]
    crossed = " or ".join(f"s{i} != 0.0 and y{i} * s{i} <= 0.0" for i in idx)
    lines += [
        "            t += h",
        "            naccept += 1",
        "            if err > max_err:",
        "                max_err = err",
        f"            {row('y')} = {row('yn')}",
        f"            {row('k1_')} = {row('k7_')}",  # FSAL
        "            ts.append(t)",
        f"            ys.append([{row('y')}])",
        f"            if {crossed}:",
        '                status = "sign_change"',
        "                break",
        "            if t >= t_end:",
        '                status = "done"',
        "                break",
        f"            fac = {SAFETY!r} * err ** -0.2 if err > 0.0 else {MAX_SCALE!r}",
        f"            fac = fac if fac > {MIN_SCALE!r} else {MIN_SCALE!r}",
        f"            fac = fac if fac < {MAX_SCALE!r} else {MAX_SCALE!r}",
        "            h *= fac",
        "            if hmax < h:",
        "                h = hmax",
        "        else:",
        "            nreject += 1",
        f"            fac = {SAFETY!r} * err ** -0.2",
        "            fac = fac if fac < 1.0 else 1.0",
        f"            h *= fac if fac > {MIN_SCALE!r} else {MIN_SCALE!r}",
        "    return (status, ts, ys, naccept, nreject, nfev, max_err)",
    ]
    namespace = {
        "isfinite": math.isfinite,
        "sqrt": math.sqrt,
        "rhs": rhs,
        "_finite_rhs": _finite_rhs,
        "_initial_step": _initial_step,
    }
    return _compile(lines, "<holoflow solve>", "solve", namespace)


def _finite_rhs(rhs, y, out):
    """``rhs(y, out)``, reading an OverflowError (a float ``**`` beyond
    float range) as a non-finite value."""
    try:
        return rhs(y, out)
    except OverflowError:
        return False


def _square(x):
    """x ** 2, or inf where it is beyond float range."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _initial_step(rhs, n, t, y, f0, rtol, atol, hmax):
    """Hairer's first-step estimate, at most ``hmax``.  It is 0 (the loop
    then stops as ``underflow``, as after a too-small explicit step) when
    the span is empty or the slopes are too steep for any float step."""
    d0 = 0.0
    d1 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d0 += _square(y[i] / sc)
        d1 += _square(f0[i] / sc)
    d0 = math.sqrt(d0 / n)
    d1 = math.sqrt(d1 / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, hmax)
    if h0 == 0.0:
        return 0.0
    y1 = [y[i] + h0 * f0[i] for i in range(n)]
    f1 = [0.0] * n
    if not _finite_rhs(rhs, y1, f1):
        return max(1e-12, h0 * 1e-3)
    d2 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d2 += _square((f1[i] - f0[i]) / sc)
    d2 = math.sqrt(d2 / n) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100.0 * h0, h1, hmax)
