"""Every function in ``src/holoflow`` is run by a command, or listed here
with the reason it stays.

One fresh interpreter, so that no cache filled by an earlier test hides a
call, runs ``cli.main`` under ``sys.setprofile`` for each command on the unit
data of each singular orbit and for the CI smoke test's error cases.  The
``def``s that no invocation calls must be exactly ``UNREACHED``: a new
function that no command runs is deleted, or listed with its reason.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "holoflow"
TESTS = ROOT / "tests"
RECORDER = ROOT / "perfbench" / "recorder.py"

UNIT_ORBITS = [
    ("q", "s2xs2", ["--b0", "1", "--c0", "1"]),
    ("q", "s2xs2xs2", ["--a0", "1", "--b0", "1", "--c0", "1"]),
    ("m", "cp2", ["--a0", "1"]),
    ("m", "cp2xs2", ["--a0", "1", "--b0", "1"]),
    ("m", "s2", ["--b0", "1"]),
]

#: the files the error cases read, written into the working directory
INPUTS = {
    "zero.csv": b"t,a,b,c,C\n0,0,0,0,0\n1,0,0,0,0\n2,0,0,0,0\n3,0,0,0,0\n",
    "big.csv": b"t,a,b,c,C\n0,1e300,1,1,1\n1,-1e300,1,1,1\n2,1e300,1,1,1\n3,1e300,1,1,1\n",
    "bin.csv": b"\xff\xfe\x00garbage\n",
}

#: (argv, exit status) of each invocation, run in this order in one process
INVOCATIONS = [
    (["classify", "--model", "q", "--k", "1", "--l", "1", "--m", "1"], 0),
    (["classify", "--model", "m", "--k", "1", "--l", "1"], 0),
    (["classify", "--model", "q", "--k", "2", "--l", "1", "--m", "1"], 0),
    (["classify", "--model", "m", "--k", "2", "--l", "1"], 0),
    *(
        (["derive", "--model", model, *out], 0)
        for model in ("q", "m")
        for out in ([], ["--json", f"derive_{model}.json"])
    ),
    *(
        (argv, 0)
        for model, orbit, values in UNIT_ORBITS
        for argv in (
            ["smoothness", "--model", model, "--orbit", orbit, "--out", "smooth.json"],
            ["solve", "--model", model, "--orbit", orbit, *values, "--out", f"{orbit}.csv"],
            ["report", "--model", model, "--orbit", orbit, *values, "--out", "report.json"],
            ["verify", "--model", model, "--orbit", orbit, *values, "--traj", f"{orbit}.csv"],
            ["cone", "--model", model, "--traj", f"{orbit}.csv"],
        )
    ),
    (["solve", "--model", "q", "--orbit", "principal", "--a0", "1", "--b0", "1", "--c0", "1",
      "--f0", "-1", "--out", "principal.csv"], 0),
    # the CI smoke test's error cases
    (["classify", "--model", "m", "--k", "1", "--l", "1", "--m", "7"], 2),
    (["verify", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj", "zero.csv"], 2),
    (["cone", "--model", "m", "--traj", "big.csv"], 2),
    (["cone", "--model", "m", "--traj", "bin.csv"], 2),
    (["solve", "--model", "m", "--orbit", "principal", "--a0", "1e-150", "--b0", "1", "--c0", "1",
      "--out", "steep.csv"], 1),
    (["report", "--model", "m", "--orbit", "cp2", "--a0", "1e80", "--eps", "1", "--t-end", "1e85"], 2),
    (["smoothness", "--model", "m", "--orbit", "cp2", "--out", "missing/smooth.json"], 2),
    (["report", "--model", "q", "--orbit", "s2xs2", "--b0", "1", "--c0", "1", "--t-end", "3e-5"], 2),
]

#: runs in the child: the invocations from stdin, the code objects called
#: (file, first line) and the exit statuses as JSON on stdout
CHILD = """
import contextlib, io, json, sys

# other packages load before the profile is set: none of their code is
# holoflow's, and numpy's import alone takes a third of a profiled run
import argparse, fractions, numpy

reached = set()


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        reached.add((code.co_filename, code.co_firstlineno))


invocations = json.load(sys.stdin)
sys.setprofile(profile)
from holoflow.cli import main

codes = []
for argv in invocations:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
json.dump({"codes": codes, "reached": sorted(reached)}, sys.stdout)
"""

PERFBENCH = "a perfbench target or a helper of one"
ERROR_PATH = "an error path"
PROTOCOL = "a protocol method"

#: each unreached def with its reason and the evidence for it: the recorder
#: Target's (owner, attr); the tier-1 test that reaches the error path; the
#: special method the protocol method is
UNREACHED = {
    "algebra.Multivector.eval_numeric": (PERFBENCH, ("holoflow.algebra:Multivector", "eval_numeric")),
    "algebra.LaurentPoly.eval": (PERFBENCH, ("holoflow.algebra:Multivector", "eval_numeric")),
    "structures.rotate_structure": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures._rotate_form": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures._rotation": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "structures._multi_angle": (PERFBENCH, ("holoflow.structures", "rotate_structure")),
    "verify.TrajectorySampler.__init__": (PERFBENCH, ("holoflow.verify:TrajectorySampler", "__call__")),
    "verify.TrajectorySampler.__call__": (PERFBENCH, ("holoflow.verify:TrajectorySampler", "__call__")),
    "closed_form._Profile._check_domain": (
        ERROR_PATH,
        "test_closed_form.py::test_float_domain_errors_at_and_beyond_poles",
    ),
    "integrate._OrbitLimits._at": (
        ERROR_PATH,
        "test_series_start.py::test_every_failure_raises_its_message",
    ),
    "integrate._outside_state": (
        ERROR_PATH,
        "test_series_start.py::test_every_failure_raises_its_message",
    ),
    "_record._repr": (PROTOCOL, "__repr__"),
    "_record._frozen_setattr": (PROTOCOL, "__setattr__"),
    "_record._frozen_delattr": (PROTOCOL, "__delattr__"),
    "algebra.Multivector.__hash__": (PROTOCOL, "__hash__"),
    "algebra.Multivector.__repr__": (PROTOCOL, "__repr__"),
    # 1 + p works, so 1 - p must too
    "algebra.LaurentPoly.__rsub__": (PROTOCOL, "__rsub__"),
    "__init__.__dir__": (PROTOCOL, "__dir__"),
}


def _defs():
    """(qualified name, (file, first line)) of every def in the package; the
    first line is the first decorator's, as in the def's code object."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((prefix + child.name, (str(path), first)))
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), module + ".")
    return out


def _reached(workdir):
    for name, data in INPUTS.items():
        (workdir / name).write_bytes(data)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps([argv for argv, _ in INVOCATIONS]),
        capture_output=True,
        text=True,
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in INVOCATIONS]
    return {(os.path.realpath(f), line) for f, line in result["reached"]}


def test_every_def_is_reached_by_a_command_or_listed(tmp_path):
    reached = _reached(tmp_path)
    unreached = sorted(
        name for name, (path, line) in _defs() if (os.path.realpath(path), line) not in reached
    )
    assert unreached == sorted(UNREACHED), (
        f"run by no command and not listed: {sorted(set(unreached) - set(UNREACHED))}; "
        f"listed but run or gone: {sorted(set(UNREACHED) - set(unreached))}"
    )


def _recorder_targets():
    """The recorder's (owner, attr) pairs, read from perfbench without changing it."""
    spec = importlib.util.spec_from_file_location("_reach_recorder", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return {(target.owner, target.attr) for target in recorder.TARGETS}


def test_every_listed_reason_holds():
    targets = _recorder_targets()
    defs = dict(_defs())
    for name, (reason, evidence) in UNREACHED.items():
        assert name in defs, f"{name} is listed but no longer defined"
        if reason == PERFBENCH:
            assert evidence in targets, f"{name}: {evidence} is not a perfbench target"
        elif reason == ERROR_PATH:
            file, test = evidence.split("::")
            assert re.search(rf"^def {test}\(", (TESTS / file).read_text(), re.M), (name, evidence)
        else:
            assert reason == PROTOCOL, name
            attr = name.rsplit(".", 1)[-1]
            source = Path(defs[name][0]).read_text()
            assert attr == evidence or re.search(
                rf"\b{re.escape(evidence)}\s*=\s*{attr}\b", source
            ), f"{name} is not installed as {evidence}"
