"""holoflow pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a holoflow checkout; the program is imported from
``src`` in fresh child processes (``perfbench/child.py``), one operation at
a time: a closed loop with one client.  Workloads:

* ``report-orbits``: ``holoflow report`` then ``holoflow verify`` on each of
  the five singular orbits at the paper's unit data, every call a fresh
  process; the seed shuffles the orbit order of each pass.
* ``classify-sweep``: ``classify_invariant_g2`` over the 61 normalized
  coprime index tuples up to 5, in one fresh process per sweep (no seed).
* ``solve-scan``: ``solve_orbit`` on seeded initial data on all five
  singular orbits at rtol 1e-12, atol 1e-14, t_end 1e8, in one process
  after deriving both systems.

``--trace 0`` times whole passes or sweeps until they took ``--seconds``, or
solves until they took half of that, and prints the end-to-end metrics.
``--trace 1`` runs a fixed amount of work (one pass, one sweep,
``TRACE_SOLVES`` solves), each unit first without and then with the
recorder, and prints the per-layer metrics plus the tracing overhead.  Every
output is checked; the last stdout line is the JSON result.  Times are in
seconds at a reference host speed (``speed.py``).  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from recorder import span_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("report-orbits", "classify-sweep", "solve-scan")

#: (name, unit); the same set on every workload
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

#: (name, unit); times are self times, so they add up along a process
PER_LAYER = (
    ("homogeneous.model_build_s", "s"),
    ("homogeneous.models_built", "count"),
    ("homogeneous.classify_s", "s"),
    ("homogeneous.invariant_d_calls", "count"),
    ("homogeneous.invariant_d_s", "s"),
    ("structures.build_invariant_structure_calls", "count"),
    ("structures.build_invariant_structure_s", "s"),
    ("structures.rotate_structure_s", "s"),
    ("flow.derive_flow_calls", "count"),
    ("flow.derive_flow_s", "s"),
    ("flow.kaehler_search_s", "s"),
    ("flow.exterior_d_time_calls", "count"),
    ("flow.exterior_d_time_s", "s"),
    ("integrate.series_start_s", "s"),
    ("integrate.self_s", "s"),
    ("integrate.csv_write_s", "s"),
    ("integrate.csv_read_s", "s"),
    ("kernel.solve_s", "s"),
    ("kernel.nfev_per_s", "1/s"),
    ("kernel.naccept", "count"),
    ("kernel.nreject", "count"),
    ("kernel.nfev", "count"),
    ("kernel.accept_ratio", "ratio"),
    ("closed_form.value_squared_calls", "count"),
    ("closed_form.coefficient_squares_calls", "count"),
    ("closed_form.profile_s", "s"),
    ("closed_form.compare_s", "s"),
    ("verify.check_closure_s", "s"),
    ("verify.sampler_calls", "count"),
    ("verify.check_closure_samples_s", "s"),
    ("verify.su4_family_check_s", "s"),
    ("verify.smoothness_report_s", "s"),
    ("verify.cone_fit_s", "s"),
    ("algebra.eval_numeric_calls", "count"),
    ("algebra.eval_numeric_s", "s"),
    ("cli.self_s", "s"),
    ("cli.process_overhead_s", "s"),
    ("trace.overhead", "ratio"),
)

#: the five singular orbits at the paper's unit data
REPORT_ORBITS = (
    ("Q", "s2xs2", ("--b0", "1", "--c0", "1")),
    ("Q", "s2xs2xs2", ("--a0", "1", "--b0", "1", "--c0", "1")),
    ("M", "cp2", ("--a0", "1")),
    ("M", "cp2xs2", ("--a0", "1", "--b0", "1")),
    ("M", "s2", ("--b0", "1")),
)
#: the paper's verdicts: smooth only on these orbits; Kaehler sign vectors
SMOOTH_ORBITS = {("Q", "s2xs2"), ("M", "cp2")}
KAEHLER_SIGNS = {"Q": [1, 1, 1, 1], "M": [1, -1, 1]}
#: the classification sweep's only admissible index tuples
SWEEP_HITS = {("Q", (1, 1, 1)), ("M", (1, 1))}

SETUP_PROBES = 6  # fresh set-up-only processes per run; setup_s is their median
TRACE_SOLVES = 100
#: a run must end within 180 s; a child still running at this many seconds
#: after the start is stopped and counts as a failed operation
DEADLINE_S = 170.0


class DeadlineExpired(Exception):
    """A child ran into the run's deadline."""


class Run:
    """Children, operations and checks of one benchmark run.

    Times are recorded as intervals on the monotonic clock that parent and
    children share; ``seconds`` turns an interval into reference seconds
    with the run's speed probes (see ``speed.py``)."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.deadline = time.perf_counter() + DEADLINE_S
        self.ops = []  # {"label", "kind", "start", "end", "problems", "exact"}
        self.probes = []  # speed.Probe tuples, here and in children
        self.setup = []  # (start, ready) of set-up-only children
        self.defects = Counter()  # (command, known defect) -> outputs showing it
        self.outputs = Counter()  # command -> outputs parsed
        self.pairs = []  # ((start, end) untraced, (start, end) traced) of one unit
        self.traced = []  # (start, end, stats) of traced children
        self.sweeps = []  # [(start, end) of each model] per sweep
        self.backend = None
        self.cpu = speed.pin_to_one_cpu()
        self._timeline = None
        self.children = 0

    def timeline(self):
        """The speed probes taken so far."""
        if self._timeline is None or len(self._timeline.probes) != len(self.probes):
            self._timeline = speed.Timeline(self.probes)
        return self._timeline

    def seconds(self, start, end):
        """Reference seconds of the work in an interval."""
        return self.timeline().adjust(start, end)

    def spawn(self, args, traced=False):
        """Run one child to completion between two speed probes.

        Returns (start, end, exit code, stats).  A child still running at the
        deadline is stopped and counted as a failed operation, with the time
        it ran, and ``DeadlineExpired`` ends the run."""
        self.children += 1
        stats_path = self.work / f"child{self.children}.json"
        cmd = [sys.executable, str(CHILD), "--stats", str(stats_path)]
        cmd += ["--trace"] if traced else []
        cmd += [str(a) for a in args]
        self.probes.append(speed.probe())
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:  # run() has stopped the child and waited for it
            end = time.perf_counter()
            self.probes.append(speed.probe())
            if args[0] == "setup":
                self.setup.append((start, end))
            problem = f"still running at the {DEADLINE_S:g} s deadline of the run"
            self.op(" ".join(cmd[4:]), "deadline", start, end, [problem], exact=True)
            raise DeadlineExpired()
        end = time.perf_counter()
        self.probes.append(speed.probe())
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, ValueError):
            stats = {}
        stats["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
        stats.setdefault("error", stats["stderr"])
        self.probes.extend(tuple(p) for p in stats.get("probes", ()))
        if traced and "trace" in stats:
            self.traced.append((start, end, stats))
        return start, end, proc.returncode, stats

    def op(self, label, kind, start, end, problems=(), exact=False):
        self.ops.append(
            {"label": label, "kind": kind, "start": start, "end": end, "problems": list(problems), "exact": exact}
        )

    def probe_setup(self, workload):
        for _ in range(SETUP_PROBES):
            start, _, code, stats = self.spawn(["setup", workload])
            if code != 0:
                raise RuntimeError(f"set-up probe failed:\n{stats['error']}")
            self.setup.append((start, stats["ready"]))
            self.backend = stats.get("backend")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _load_json(path, nan_counter):
    def constant(token):
        nan_counter[token] += 1
        return float(token)

    return json.loads(Path(path).read_text(), parse_constant=constant)


def _verdict_problems(doc, kind, orbit):
    """Exact verdicts against the paper; any miss makes the run incorrect."""
    out = []
    smooth = "smooth" if (kind, orbit) in SMOOTH_ORBITS else "non-smooth"
    if doc.get("smoothness", {}).get("verdict") != smooth:
        out.append(f"smoothness {doc.get('smoothness', {}).get('verdict')!r}, expected {smooth!r}")
    if doc.get("kaehler", {}).get("signs") != KAEHLER_SIGNS[kind]:
        out.append(f"kaehler signs {doc.get('kaehler', {}).get('signs')}, expected {KAEHLER_SIGNS[kind]}")
    if doc.get("su4_certificate") is not True:
        out.append("su4_certificate is not true")
    return out


def _cli_op(run, label, kind, argv, out_path, traced, orbit_key, first_bytes):
    """One holoflow CLI process and its checks; returns its (start, end)."""
    start, end, code, stats = run.spawn(["cli", *argv], traced)
    problems, exact = [], False
    doc = None
    if code not in (0, 1):
        problems.append(f"exit {code}: {stats['error'].strip()[-300:]}")
        exact = True
    else:
        nan = Counter()
        try:
            doc = _load_json(out_path, nan)
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable output: {exc}")
            exact = True
        if doc is not None:
            verdicts = _verdict_problems(doc, *orbit_key)
            problems += verdicts
            exact = bool(verdicts)
            if code != 0:
                problems.append(f"exit {code}, bars_failed {doc.get('bars_failed')}")
            command = argv[0]
            run.outputs[command] += 1
            if nan:
                run.defects[(command, "contain NaN, which is not strict JSON")] += 1
            if command == "verify" and doc.get("cone", {}).get("partial") is True:
                run.defects[(command, "have cone.partial true, so the cone bar is never applied")] += 1
        if argv[0] == "report" and doc is not None:
            data = Path(out_path).read_bytes()
            if first_bytes.setdefault(orbit_key, data) != data:
                problems.append("report bytes differ from the first report of this orbit")
                exact = True
    run.op(label, kind, start, end, problems, exact)
    return start, end


def report_orbits(run, seed, seconds, traced):
    run.probe_setup("report-orbits")
    rng = random.Random(seed)
    first_bytes = {}
    elapsed = 0.0  # reference seconds, so the number of passes does not follow the host's speed
    n_pass = 0
    while True:
        n_pass += 1
        for kind, orbit, values in rng.sample(REPORT_ORBITS, len(REPORT_ORBITS)):
            common = ["--model", kind.lower(), "--orbit", orbit, *values]
            units = []
            for tr in (False, True) if traced else (False,):
                stem = run.work / f"{kind}-{orbit}-{n_pass}{'-traced' if tr else ''}"
                report, csv, verify = (f"{stem}.json", f"{stem}.csv", f"{stem}.verify.json")
                tag = f"{kind} {orbit} pass {n_pass}{' traced' if tr else ''}"
                start, _ = _cli_op(run, f"report {tag}", f"report-{kind}",
                                   ["report", *common, "--out", report, "--traj-out", csv],
                                   report, tr, (kind, orbit), first_bytes)
                _, end = _cli_op(run, f"verify {tag}", f"verify-{kind}",
                                 ["verify", *common, "--traj", csv, "--out", verify],
                                 verify, tr, (kind, orbit), first_bytes)
                units.append((start, end))
            elapsed += run.seconds(*units[0])
            if traced:
                run.pairs.append(tuple(units))
        if traced or elapsed >= seconds:
            return


def classify_sweep(run, seed, seconds, traced):
    del seed  # the sweep's grid is fixed
    run.probe_setup("classify-sweep")
    elapsed = 0.0  # reference seconds, as in report_orbits
    n_sweep = 0
    while True:
        n_sweep += 1
        units = []
        for tr in (False, True) if traced else (False,):
            start, end, code, stats = run.spawn(["sweep"], tr)
            units.append((start, end))
            if code != 0 or "ops" not in stats:
                run.op(f"sweep {n_sweep}", "sweep", start, end, [f"exit {code}: {stats['error'][-300:]}"], True)
                continue
            for kind, indices, op_start, op_end, hit in stats["ops"]:
                want = (kind, tuple(indices)) in SWEEP_HITS
                problems = [] if hit == want else [f"admissible {hit}, expected {want}"]
                label = f"classify {kind}{tuple(indices)} sweep {n_sweep}"
                run.op(label, "classify", op_start, op_end, problems, bool(problems))
            run.sweeps.append([(op[2], op[3]) for op in stats["ops"]])
        elapsed += run.seconds(*units[0])
        if traced:
            run.pairs.append(tuple(units))
        if traced or elapsed >= seconds:
            return


def solve_scan(run, seed, seconds, traced):
    run.probe_setup("solve-scan")
    units = []
    for tr in (False, True) if traced else (False,):
        args = ["solve", seed, seconds] + ([TRACE_SOLVES] if traced else [])
        start, end, code, stats = run.spawn(args, tr)
        units.append((start, end))
        if code != 0 or "ops" not in stats:
            run.op("solve-scan process", "solve", start, end, [f"exit {code}: {stats['error'][-300:]}"], True)
            continue
        for label, op_start, op_end, steps, problems in stats["ops"]:
            run.op(f"solve {label}", "solve", op_start, op_end, problems)
            run.ops[-1]["steps"] = steps
    if traced:
        run.pairs.append(tuple(units))


RUNNERS = {"report-orbits": report_orbits, "classify-sweep": classify_sweep, "solve-scan": solve_scan}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(run):
    times = [run.seconds(o["start"], o["end"]) for o in run.ops]
    by_kind = {}
    for o, t in zip(run.ops, times):
        by_kind.setdefault(o["kind"], []).append(t)
    setup = [run.seconds(*interval) for interval in run.setup]
    failed = sum(1 for o in run.ops if o["problems"])
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        # each kind of operation weighs the same, whatever its size or count
        "op_p50_s": (statistics.geometric_mean(statistics.median(xs) for xs in by_kind.values()), len(times)),
        "ops_per_s": (len(times) / sum(times), len(times)),
        # the largest peak RSS of any child the run has waited for
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, run.children),
        "ok_ratio": ((len(run.ops) - failed) / len(run.ops), len(run.ops)),
    }


def detail_metrics(run, workload):
    """The workload-specific figures named in the benchmark's README.  A run
    cut short by the deadline may leave one without samples; it is left out."""

    def pick(*kinds):
        return [run.seconds(o["start"], o["end"]) for o in run.ops if o["kind"] in kinds]

    raw = [o["end"] - o["start"] for o in run.ops]
    out = {"op_p50_raw_s": (statistics.median(raw), "s", len(raw))}
    if workload == "report-orbits":
        kinds = {"report_q_s": ("report-Q",), "report_m_s": ("report-M",), "verify_s": ("verify-Q", "verify-M")}
        for name, kind in kinds.items():
            xs = pick(*kind)
            if xs:
                out[name] = (statistics.median(xs), "s", len(xs))
    elif workload == "classify-sweep":
        sweeps = [sum(run.seconds(*op) for op in ops) for ops in run.sweeps]
        if sweeps:
            out["sweep_s"] = (statistics.median(sweeps), "s", len(sweeps))
    elif pick("solve"):
        xs = pick("solve")
        steps = sum(o.get("steps", 0) for o in run.ops)
        out["solve_s_p50"] = (statistics.median(xs), "s", len(xs))
        out["solve_s_p90"] = (_p90(xs), "s", len(xs))
        out["solve_steps_per_s"] = (steps / sum(xs), "1/s", len(xs))
    return out


def per_layer(run):
    totals = {}
    counts = Counter()
    overhead = 0.0
    for start, end, stats in run.traced:
        scale = run.timeline().factor(start, end)
        trace = stats["trace"]
        counts.update(trace["counts"])
        per_name = span_totals(trace["spans"], [(p[0], p[2]) for p in stats["probes"]])
        for name, entry in per_name.items():
            acc = totals.setdefault(name, Counter())
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"] * scale
        if "cli.main" in per_name:
            overhead += run.seconds(start, end) - per_name["cli.main"]["total_s"] * scale

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return int(totals.get(name, {}).get("calls", 0))

    kernel_s = self_s("kernel.solve")
    steps = counts["kernel.naccept"] + counts["kernel.nreject"]
    untraced = sum(run.seconds(*p[0]) for p in run.pairs)
    traced = sum(run.seconds(*p[1]) for p in run.pairs)
    values = {
        "homogeneous.models_built": counts["homogeneous.models_built"],
        "integrate.self_s": self_s("integrate.solve_orbit") + self_s("integrate.integrate"),
        "kernel.nfev_per_s": counts["kernel.nfev"] / kernel_s if kernel_s else 0.0,
        "kernel.naccept": counts["kernel.naccept"],
        "kernel.nreject": counts["kernel.nreject"],
        "kernel.nfev": counts["kernel.nfev"],
        "kernel.accept_ratio": counts["kernel.naccept"] / steps if steps else 0.0,
        "closed_form.value_squared_calls": counts["closed_form.value_squared"],
        "closed_form.coefficient_squares_calls": counts["closed_form.coefficient_squares"],
        "verify.sampler_calls": counts["verify.sampler"],
        "cli.self_s": self_s("cli.main"),
        "cli.process_overhead_s": overhead,
        "trace.overhead": traced / untraced - 1.0 if untraced else 0.0,
    }
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        stem, _, what = name.rpartition("_")
        values[name] = calls(stem) if what == "calls" else self_s(stem)
    return values


def provenance(args, run, samples):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "holoflow").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "kernel_backend": run.backend,
        "cpu": run.cpu,
        "calibration_unit_s": statistics.median(p[1] for p in run.probes),
        "reference_unit_s": speed.REFERENCE_S,
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "holoflow" / "cli.py").is_file():
        print(f"error: no holoflow sources under {SRC}; run from a holoflow checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(work)
        # compile bytecode and load the file cache before anything is timed
        run.spawn(["setup", "report-orbits"])
        try:
            RUNNERS[args.workload](run, args.seed, args.seconds, bool(args.trace))
        except DeadlineExpired:
            pass  # reported as a failed operation
        if not run.ops:
            raise RuntimeError("no operation ran")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [o for o in run.ops if o["problems"]]
    correct = not any(o["exact"] for o in run.ops)
    if args.trace:
        values = per_layer(run)
        units = dict(PER_LAYER)
        metrics = {n: {"value": values[n], "unit": units[n]} for n, _ in PER_LAYER}
        samples = {n: len(run.traced) for n, _ in PER_LAYER}
    else:
        values = end_to_end(run)
        units = dict(END_TO_END)
        metrics = {n: {"value": values[n][0], "unit": units[n]} for n, _ in END_TO_END}
        samples = {n: values[n][1] for n, _ in END_TO_END}
        detail = detail_metrics(run, args.workload)
        samples.update({n: v[2] for n, v in detail.items()})

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']:<6} n={samples[name]}")
    if not args.trace:
        for name, (value, unit, n) in detail.items():
            print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    print(f"attempted {len(run.ops)} failed {len(failed)} correct {str(correct).lower()}")
    for o in failed:
        print(f"  failed-op {o['label']}: {'; '.join(o['problems'])}")
    for (command, defect), n in sorted(run.defects.items()):
        print(f"  known-defect: {n} of {run.outputs[command]} {command} outputs {defect}")
    print("provenance " + json.dumps(provenance(args, run, samples), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(run.ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
