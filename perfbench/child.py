"""One benchmark process: a set-up probe, a CLI call, the sweep or a solve scan.

    python3 perfbench/child.py --stats FILE [--trace] setup WORKLOAD
    python3 perfbench/child.py --stats FILE [--trace] cli HOLOFLOW-ARGS...
    python3 perfbench/child.py --stats FILE [--trace] sweep
    python3 perfbench/child.py --stats FILE [--trace] solve SEED SECONDS [COUNT]

``src`` must be on ``PYTHONPATH``.  The stats file records the
speed probes taken here (see ``speed.py``), and for ``setup`` when the
process was ready for a first timed operation.  ``sweep`` and ``solve`` add
each operation's start and end.  All times are ``time.perf_counter``, which
is ``CLOCK_MONOTONIC`` and so shared with the parent.  With ``--trace`` the
stats hold the recorder's spans and counts too; the parent takes the timer
probes' time off the spans they interrupted.  ``cli`` mode exits with
``holoflow.cli.main``'s code, like the installed ``holoflow`` command.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import traceback
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from recorder import Recorder  # noqa: E402

#: the paper's singular orbits; solve-scan draws its initial data on them
ORBITS = (("Q", "s2xs2"), ("Q", "s2xs2xs2"), ("M", "cp2"), ("M", "cp2xs2"), ("M", "s2"))
#: the accuracy solve-scan asks for and the bars its outputs must meet
SOLVE_TOLERANCES = {"rtol": 1e-12, "atol": 1e-14, "t_end": 1e8}
SOLVE_BARS = {"closed_form": 1e-8, "cone": 1e-3}


def sweep_grid():
    """Every normalized coprime index tuple up to 5: 40 Q and 21 M models."""
    for k in range(6):
        for l in range(k + 1):
            for m in range(l + 1):
                if (k, l, m) != (0, 0, 0) and math.gcd(math.gcd(k, l), m) == 1:
                    yield "Q", (k, l, m)
    for k in range(6):
        for l in range(6):
            if (k, l) != (0, 0) and math.gcd(k, l) == 1:
                yield "M", (k, l)


def solve_specs(seed: int):
    """Endless seeded initial data: each cycle visits the five orbits in a
    shuffled order with values p/q, p and q in 1..9, and a random branch."""
    from holoflow.integrate import ORBIT_COLLAPSING

    rng = random.Random(seed)
    while True:
        for kind, orbit in rng.sample(ORBITS, len(ORBITS)):
            state = ("a", "b", "c", "f") if kind == "Q" else ("a", "b", "c")
            values = {
                x: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for x in state
                if x not in ORBIT_COLLAPSING[kind][orbit]
            }
            yield kind, orbit, values, rng.random() < 0.5


def _derive_systems():
    from holoflow.flow import derive_flow
    from holoflow.homogeneous import m_model, q_model

    return {"Q": derive_flow(q_model(1, 1, 1)), "M": derive_flow(m_model(1, 1))}


def run_setup(stats, workload):
    import holoflow.cli  # noqa: F401  (the import every workload pays)

    if workload == "solve-scan":
        _derive_systems()
    stats["ready"] = time.perf_counter()
    try:
        from holoflow import _kernel

        stats["backend"] = getattr(_kernel, "BACKEND", None)
    except ImportError:
        stats["backend"] = None
    return 0


def run_cli(stats, argv, recorder):
    import holoflow.cli

    if recorder:
        recorder.install()
    try:
        return holoflow.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        return exc.code if isinstance(exc.code, int) else 2


def run_sweep(stats, recorder):
    from holoflow import homogeneous

    if recorder:
        recorder.install()
    clock = time.perf_counter
    ops = stats["ops"] = []
    for kind, indices in sweep_grid():
        start = clock()
        # looked up on the module at each call, so the recorder's wrappers are used
        hit = homogeneous.classify_invariant_g2(homogeneous.get_model(kind, indices))
        ops.append([kind, list(indices), start, clock(), bool(hit)])
    return 0


def run_solve(stats, seed, seconds, count, recorder):
    import holoflow  # noqa: F401

    if recorder:
        recorder.install()
    from holoflow.closed_form import compare, profile
    from holoflow.integrate import IntegratorConfig, OrbitSpec, solve_orbit
    from holoflow.verify import cone_fit

    systems = _derive_systems()
    cfg = IntegratorConfig(**SOLVE_TOLERANCES)
    clock = time.perf_counter
    probes = stats["probes"]
    ops = stats["ops"] = []
    # solve time in reference seconds: checks and probes take about as long
    # again, so solving for SECONDS / 2 keeps the run near SECONDS
    solving = 0.0
    for kind, orbit, values, negative in solve_specs(seed):
        label = f"{kind} {orbit} " + ",".join(f"{k}={v}" for k, v in values.items())
        label += " -" if negative else " +"
        problems = []
        steps = 0
        # a solve is shorter than the timer's period: probe right before each
        before = speed.probe(units=1)
        probes.append(before)
        start = clock()
        try:
            spec = OrbitSpec(kind, orbit, values, negative_branch=negative)
            traj, _ = solve_orbit(systems[kind], spec, cfg)
        except Exception as exc:  # a failed solve is counted, not fatal
            end = clock()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            end = clock()
            # checks stay outside the timed region
            steps = int(traj.stats.get("naccept", 0))
            if traj.status != "done":
                problems.append(f"status {traj.status}")
            deviation = compare(traj, profile(kind, spec))
            if not deviation <= SOLVE_BARS["closed_form"]:
                problems.append(f"closed-form deviation {deviation:.3g}")
            cone = cone_fit(traj)
            if not cone.max_delta <= SOLVE_BARS["cone"]:
                problems.append(f"cone delta {cone.max_delta:.3g}")
        ops.append([label, start, end, steps, problems])
        solving += (end - start) * speed.REFERENCE_S / before[1]
        if (len(ops) >= count) if count is not None else (solving >= seconds / 2):
            break
    probes.append(speed.probe(units=1))
    return 0


def main(argv):
    if argv[:1] != ["--stats"]:
        raise SystemExit(__doc__)
    stats_path, rest = argv[1], argv[2:]
    traced = rest[0] == "--trace"
    mode, args = rest[traced], rest[traced + 1 :]
    recorder = Recorder() if traced else None
    stats = {"mode": mode, "probes": []}
    code = 3
    try:
        with speed.Sampler(stats["probes"]):
            if mode == "setup":
                code = run_setup(stats, args[0])
            elif mode == "cli":
                code = run_cli(stats, args, recorder)
            elif mode == "sweep":
                code = run_sweep(stats, recorder)
            elif mode == "solve":
                count = int(args[2]) if len(args) > 2 else None
                code = run_solve(stats, int(args[0]), float(args[1]), count, recorder)
            else:
                raise ValueError(f"unknown mode {mode!r}")
    except Exception:
        stats["error"] = traceback.format_exc()
    finally:
        if recorder:
            recorder.uninstall()
            stats["trace"] = recorder.export()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
