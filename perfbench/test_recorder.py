"""Tests of the benchmark's recorder, its speed timeline, its metrics and
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time
from types import SimpleNamespace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import holoflow  # noqa: E402
import holoflow.cli  # noqa: E402
from holoflow.closed_form import profile  # noqa: E402
from holoflow.integrate import OrbitSpec  # noqa: E402

import run as bench  # noqa: E402
import speed  # noqa: E402
from recorder import TARGETS, Recorder, Target, _resolve, self_times, span_totals  # noqa: E402


def _bindings():
    """Every (module, attribute) -> value in the loaded holoflow modules, plus
    the class attributes the recorder targets."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "holoflow" or name.startswith("holoflow.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for target in TARGETS:
        owner = _resolve(target.owner)
        if isinstance(owner, type):
            out[(target.owner, target.attr)] = owner.__dict__[target.attr]
    return out


@pytest.fixture
def recorder():
    rec = Recorder()
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_every_binding_of_a_wrapped_function_is_patched():
    before = _bindings()
    module_targets = [t for t in TARGETS if not isinstance(_resolve(t.owner), type)]
    originals = {id(getattr(_resolve(t.owner), t.attr)) for t in module_targets}
    rec = Recorder()
    rec.install()
    try:
        after = _bindings()
        for key, value in before.items():
            if id(value) in originals:
                assert after[key] is not value, key
                assert after[key].__wrapped__ is value, key
        # one function, several names: all of them get the same wrapper
        assert holoflow.verify.derive_flow is holoflow.flow.derive_flow
        assert holoflow.derive_flow is holoflow.flow.derive_flow
        assert holoflow.cli.derive_flow is holoflow.flow.derive_flow
        assert holoflow._kernel._impl.solve is holoflow._kernel.solve
        for target in TARGETS:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                assert after[(target.owner, target.attr)] is not before[(target.owner, target.attr)]
    finally:
        rec.uninstall()


def test_uninstalled_recorder_leaves_every_original_object():
    before = _bindings()
    Recorder()  # constructing patches nothing
    assert _bindings() == before
    rec = Recorder()
    rec.install()
    rec.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_failed_install_restores_everything():
    before = _bindings()
    bad = TARGETS + (Target("holoflow.flow", "no_such_function", "flow.missing", "span"),)
    with pytest.raises(AttributeError):
        Recorder(bad).install()
    for key, value in before.items():
        assert _bindings()[key] is value, key


def test_self_times_add_up_to_the_root_span(recorder, tmp_path):
    out = tmp_path / "smooth.json"
    assert holoflow.cli.main(["smoothness", "--model", "q", "--orbit", "s2xs2", "--out", str(out)]) == 0
    spans = recorder.spans
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli.main"]
    own = self_times(spans)
    assert all(x >= -1e-12 for x in own)
    assert len(spans) > 5
    root = spans[roots[0]]
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-12)
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_self_times_with_a_fixed_clock():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = span_totals(spans + [["b", 11.0, 12.0, -1]])
    assert totals["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    # a pause inside a.child comes off a.child, and off a and root inclusively;
    # one between spans comes off root only; one outside every span is dropped
    totals = span_totals(spans, pauses=[(2.5, 0.25), (4.5, 0.5), (20.0, 1.0)])
    assert totals["a.child"] == {"calls": 1, "total_s": 0.75, "self_s": 0.75}
    assert totals["a"] == {"calls": 1, "total_s": 2.75, "self_s": 2.0}
    assert totals["root"] == {"calls": 1, "total_s": 9.25, "self_s": 2.5}


def test_counters_and_kernel_stats(recorder):
    spec = OrbitSpec("Q", "s2xs2", {"b": 1, "c": 1})
    prof = profile("Q", spec)
    prof.value_squared(Fraction(-3))
    prof.coefficient_squares(-1.0)  # calls value_squared once more
    assert recorder.counts["closed_form.value_squared"] == 2
    assert recorder.counts["closed_form.coefficient_squares"] == 1
    sys_ = holoflow.derive_flow(holoflow.q_model(1, 1, 1))
    traj, _ = holoflow.solve_orbit(sys_, spec, holoflow.IntegratorConfig(t_end=10.0))
    for key in ("naccept", "nreject", "nfev"):
        assert recorder.counts[f"kernel.{key}"] == traj.stats[key]
    names = {s[0] for s in recorder.spans}
    assert {"integrate.solve_orbit", "integrate.integrate", "kernel.solve", "flow.derive_flow"} <= names


def test_traced_output_is_unchanged(tmp_path):
    argv = ["smoothness", "--model", "m", "--orbit", "cp2", "--out"]
    assert holoflow.cli.main(argv + [str(tmp_path / "plain.json")]) == 0
    rec = Recorder()
    rec.install()
    try:
        assert holoflow.cli.main(argv + [str(tmp_path / "traced.json")]) == 0
    finally:
        rec.uninstall()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()


def test_timeline_takes_probes_off_and_scales_by_nearby_speed():
    ref = speed.REFERENCE_S
    # (start, seconds per unit, seconds spent)
    probes = [(0.0, ref, 0.01), (1.0, 2 * ref, 0.1), (1.5, 2 * ref, 0.1), (3.0, ref, 0.01), (9.0, 5 * ref, 0.01)]
    timeline = speed.Timeline(list(reversed(probes)))
    # inside [0.5, 2.5]: the two slow probes; near: the probes at 0.0 and 3.0
    assert timeline.adjust(0.5, 2.5) == pytest.approx((2.0 - 0.2) / 1.5)
    # nothing inside: the neighbours alone set the speed
    assert timeline.adjust(3.5, 4.5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        speed.Timeline([]).adjust(0.0, 1.0)


def test_probe_and_sampler_record_on_the_shared_clock():
    start, unit, spent = speed.probe(units=1)
    assert 0 < unit <= spent
    probes = []
    with speed.Sampler(probes):
        deadline = time.perf_counter() + 3.5 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert len(probes) >= 2
    assert all(start < p[0] < deadline for p in probes)


def test_sampler_never_probes_inside_a_probe():
    probes = []
    with speed.Sampler(probes):
        start, _, spent = speed.probe(units=max(1, round(4 * speed.SAMPLE_EVERY_S / speed.REFERENCE_S)))
        deadline = time.perf_counter() + 2 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    assert spent > speed.SAMPLE_EVERY_S
    assert probes, "the sampler stopped after a dropped tick"
    assert all(not start <= p[0] < start + spent for p in probes)


def _ops(**kinds):
    """Operations of the given kinds with the given durations, back to back."""
    ops, at = [], 0.0
    for kind, times in kinds.items():
        for t in times:
            ops.append({"kind": kind.replace("_", "-"), "start": at, "end": at + t, "problems": []})
            at += t
    return SimpleNamespace(ops=ops, setup=[(0.0, 0.5)], children=1, seconds=lambda a, b: b - a)


def test_op_p50_weighs_every_kind_of_operation():
    base = bench.end_to_end(_ops(report_Q=[1, 1], report_M=[2, 2, 2], verify_Q=[1, 1], verify_M=[2, 2, 2]))
    assert base["op_p50_s"][0] == pytest.approx(2**0.5)
    # slower verifies on Q alone move it, although most operations are on M
    slower = bench.end_to_end(_ops(report_Q=[1, 1], report_M=[2, 2, 2], verify_Q=[2, 2], verify_M=[2, 2, 2]))
    assert slower["op_p50_s"][0] == pytest.approx(2 ** 0.75)


def test_a_child_at_the_deadline_is_a_failed_operation(tmp_path, monkeypatch):
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text("import time\ntime.sleep(60)\n")
    monkeypatch.setattr(bench, "CHILD", sleeper)
    affinity = os.sched_getaffinity(0)
    try:
        run = bench.Run(tmp_path)
        run.deadline = time.perf_counter()
        t0 = time.perf_counter()
        with pytest.raises(bench.DeadlineExpired):
            run.spawn(["setup", "report-orbits"])
        assert time.perf_counter() - t0 < 10
    finally:
        os.sched_setaffinity(0, affinity)
    [op] = run.ops
    assert op["kind"] == "deadline" and op["exact"] and op["problems"]
    assert len(run.setup) == 1


def test_benchmark_json_matches_the_runner():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert spec["command"][1:] == [os.path.relpath(HERE / "run.py", HERE.parent)]
