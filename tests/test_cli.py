"""End-to-end command-line runs with exit-code + artifact checks."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoflow
from holoflow import cli, flow, homogeneous, structures
from holoflow.cli import VALUE_FLAGS, _exact, build_parser, main
from holoflow.homogeneous import MODEL_SPECS, m_model
from holoflow.integrate import ORBIT_COLLAPSING, IntegratorConfig, OrbitSpec, solve_orbit
from mutations import perturbed_system
from paper_tables import CONE_REFS, PRIMITIVE_NAME
from test_reach import INPUTS, INVOCATIONS


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_admissible(capsys):
    code, out, _ = run(["classify", "--model", "q", "--k", "1", "--l", "1", "--m", "1"], capsys)
    assert code == 0
    assert "admissible: true" in out


def test_classify_inadmissible(capsys):
    code, out, _ = run(["classify", "--model", "q", "--k", "2", "--l", "1", "--m", "1"], capsys)
    assert code == 0
    assert "admissible: false" in out
    code, out, _ = run(["classify", "--model", "m", "--k", "2", "--l", "1"], capsys)
    assert "admissible: false" in out


def test_value_flags_are_the_state_names_of_both_models():
    """One ``--<x>0`` flag per state name of either model, Q's names first."""
    assert VALUE_FLAGS == tuple(x + "0" for x in ("a", "b", "c", "f"))
    solve = build_parser()._subparsers._group_actions[0].choices["solve"]
    flags = [a.option_strings[0] for a in solve._actions if a.option_strings]
    assert [f for f in flags if f[2:] in VALUE_FLAGS] == ["--" + f for f in VALUE_FLAGS]


def test_classify_invalid_input(capsys):
    code, _, err = run(["classify", "--model", "q", "--k", "0", "--l", "0", "--m", "0"], capsys)
    assert code == 2
    assert "error" in err


def test_classify_rejects_the_zero_m_model(capsys):
    code, out, err = run(["classify", "--model", "m", "--k", "0", "--l", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: (k,l) must not both vanish\n"


def test_classify_rejects_m_for_the_m_model(capsys, monkeypatch):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("holoflow.cli.get_model", no_model)
    code, out, err = run(["classify", "--model", "m", "--k", "1", "--l", "1", "--m", "7"], capsys)
    assert code == 2
    assert out == ""
    _one_line_error(err)
    assert "--m" in err


def test_derive_json_contains_exact_fractions(capsys, tmp_path):
    path = tmp_path / "sys.json"
    code, _, _ = run(["derive", "--model", "m", "--json", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["state"] == ["a", "b", "c"]
    coeffs = {t["coeff"] for t in doc["rhs"]["a"]["numerator"]}
    assert "3/8" in coeffs
    coeffs_c = {t["coeff"] for t in doc["rhs"]["c"]["numerator"]}
    assert {"8", "-1/4", "-3/4"} <= coeffs_c


def test_solve_verify_cone_smoothness_pipeline(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, _ = run(
        [
            "solve", "--model", "q", "--orbit", "s2xs2",
            "--b0", "1", "--c0", "1", "--t-end", "200", "--out", str(traj),
        ],
        capsys,
    )
    assert code == 0
    header = traj.read_text().splitlines()[0]
    assert header == "t,a,b,c,f,F"

    report = tmp_path / "verify.json"
    code, _, _ = run(
        [
            "verify", "--model", "q", "--orbit", "s2xs2",
            "--b0", "1", "--c0", "1", "--traj", str(traj), "--out", str(report),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert doc["smoothness"]["verdict"] == "smooth"
    assert doc["cone"]["partial"] is True  # 200 < 1000 * initial scale

    code, out, _ = run(["cone", "--model", "q", "--traj", str(traj)], capsys)
    assert code == 0

    code, out, _ = run(["smoothness", "--model", "m", "--orbit", "s2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["smoothness"]["verdict"] == "non-smooth"
    assert doc["smoothness"]["computed"]["c"] == "8/3"


@pytest.mark.parametrize("model,orbit", [("q", "principal"), ("m", "s2xs2"), ("q", "bogus")])
def test_smoothness_names_a_non_singular_orbit(capsys, model, orbit):
    code, out, err = run(["smoothness", "--model", model, "--orbit", orbit], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: '{orbit}' is not a singular orbit of the {model.upper()} model\n"


def test_verify_holds_a_long_stored_run_to_the_cone_bar(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    values = ["--orbit", "s2xs2", "--b0", "1", "--c0", "1"]
    assert main(["solve", "--model", "q", *values, "--t-end", "1e4", "--out", str(traj)]) == 0
    report = tmp_path / "verify.json"
    code = main(["verify", "--model", "q", *values, "--traj", str(traj), "--out", str(report)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["cone"]["partial"] is False
    assert max(doc["cone"]["deltas"].values()) <= doc["bars"]["cone"]
    # the same file fails a cone bar below its largest delta
    tight = max(doc["cone"]["deltas"].values()) / 2
    argv = ["verify", "--model", "q", *values, "--traj", str(traj), "--cone-bar", str(tight)]
    code = main(argv + ["--out", str(report)])
    capsys.readouterr()
    assert code == 1
    assert "cone" in json.loads(report.read_text())["bars_failed"]


def test_report_full_pipeline(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        [
            "report", "--model", "q", "--orbit", "s2xs2",
            "--b0", "1", "--c0", "1", "--t-end", "1e4", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["passed"] is True
    assert doc["smoothness"]["verdict"] == "smooth"
    assert max(doc["cone"]["deltas"].values()) <= 1e-3
    assert doc["su4_certificate"] is True
    assert doc["closure_residual"]["d_eta"] <= 1e-9
    assert doc["provenance"]["rtol"] == 1e-10


def test_report_byte_identical_reruns(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = [
        "report", "--model", "m", "--orbit", "cp2",
        "--a0", "1", "--t-end", "500", "--out",
    ]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_invalid_orbit_rejected(capsys, tmp_path):
    code, _, err = run(
        [
            "solve", "--model", "q", "--orbit", "cp2",
            "--b0", "1", "--c0", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 2
    assert "error" in err


def test_missing_values_rejected(capsys, tmp_path):
    code, _, err = run(
        [
            "solve", "--model", "q", "--orbit", "s2xs2",
            "--b0", "1", "--out", str(tmp_path / "x.csv"),
        ],
        capsys,
    )
    assert code == 2


def _one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("raw", ["1/0", "abc"])
def test_unparsable_initial_value_rejected(capsys, tmp_path, raw):
    code, _, err = run(
        ["report", "--model", "m", "--orbit", "cp2", "--a0", raw, "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 2
    _one_line_error(err)
    assert "--a0" in err


# values whose exponent alone puts them past float range: 10**exponent has
# millions of digits, which took seconds to compute before the check
HUGE_EXPONENTS = ["1e10000000", "-1e10000000", "1e-10000000"]


@pytest.mark.parametrize("raw", HUGE_EXPONENTS)
def test_a_huge_exponent_is_rejected_at_once(capsys, tmp_path, raw):
    start = time.perf_counter()
    code, out, err = run(
        ["solve", "--model", "m", "--orbit", "cp2", f"--a0={raw}", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: --a0 must lie within float range, got {raw!r}\n"


#: (value, exit code, stderr) of ``solve --model m --orbit cp2 --t-end 10``
#: with ``--a0`` at the edges of float range, as before the exponent check
EDGE_VALUES = [
    ("1e308", 2, "error: the series starts at t=1e+302, not before --t-end 10\n"),
    ("2e308", 2, "error: --a0 must lie within float range, got '2e308'\n"),
    ("5e-324", 1, "integration error: integration stopped: blowup\n"),
    ("1e-400", 2, "error: --a0 must lie within float range, got '1e-400'\n"),
    ("2/3", 0, ""),
    ("0e10000000", 2, "error: initial values must be nonzero\n"),
]


@pytest.mark.parametrize("raw,code,err", EDGE_VALUES)
def test_initial_values_at_the_edges_of_float_range(capsys, tmp_path, raw, code, err):
    argv = ["solve", "--model", "m", "--orbit", "cp2", f"--a0={raw}", "--t-end", "10"]
    assert run(argv + ["--out", str(tmp_path / "x.csv")], capsys)[::2] == (code, err)


#: decimals with exponents in Fraction's syntax and next to it
EXPONENT_FORMS = [
    "1e5", "-1.5E-3", " +2.e3 ", ".5e2", "1_000e1_0", "0.0_1e4", "00012.3400e-2",
    "0e0", "-0.000e-5", "\u0661e3", "1__0e2", "1.de5", "1e", "e5", "1e5.0", "1/2e3",
    "1" * 5000 + "e3", "1." + "1" * 5000 + "e3", "1e" + "9" * 5000,
]


@pytest.mark.parametrize("raw", EXPONENT_FORMS)
def test_the_exponent_check_reads_what_fraction_reads(raw):
    """Within float range the check hands back Fraction's value, and it
    rejects with ValueError exactly what Fraction rejects."""
    try:
        want = Fraction(raw)
    except ValueError:
        with pytest.raises(ValueError):
            _exact(raw)
    else:
        assert _exact(raw) == want


# an initial step of 0 asks for the automatic choice, so only it may be 0
BAD_NUMERIC_FLAGS = [
    (flag, value)
    for flag in (
        "--t-end", "--rtol", "--atol", "--eps", "--initial-step",
        "--cone-bar", "--closure-bar", "--closed-form-bar",
    )
    for value in ("nan", "inf", "0", "-5")
    if (flag, value) != ("--initial-step", "0")
] + [("--b0", "1e400"), ("--b0", "1e-400")]


@pytest.mark.parametrize("flag,value", BAD_NUMERIC_FLAGS)
def test_bad_numeric_flags_rejected_before_any_work(capsys, tmp_path, monkeypatch, flag, value):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("holoflow.cli.get_model", no_model)
    code, _, err = run(
        ["report", "--model", "q", "--orbit", "s2xs2", "--b0", "1", "--c0", "1",
         flag, value, "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 2
    _one_line_error(err)
    assert flag in err
    assert not (tmp_path / "r.json").exists()


# a series start at or past --t-end: an explicit --eps, and the default
# offset of 1e-6 times the smallest initial value
BAD_START_ARGV = [
    ["--orbit", "cp2", "--a0", "1", "--eps", "10", "--t-end", "5"],
    ["--orbit", "cp2", "--a0", "1", "--t-end", "1e-7"],
]


@pytest.mark.parametrize("command", ["solve", "report"])
@pytest.mark.parametrize("argv", BAD_START_ARGV)
def test_start_past_t_end_rejected_before_any_work(capsys, tmp_path, monkeypatch, command, argv):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr("holoflow.cli.get_model", no_model)
    out = tmp_path / "out"
    code, _, err = run([command, "--model", "m", *argv, "--out", str(out)], capsys)
    assert code == 2
    _one_line_error(err)
    assert "--t-end" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "cone"])
def test_missing_or_unreadable_traj_rejected(capsys, tmp_path, command):
    extra = ["--orbit", "cp2", "--a0", "1"] if command == "verify" else []
    for traj in (tmp_path / "missing.csv", tmp_path):
        code, _, err = run([command, "--model", "m", *extra, "--traj", str(traj)], capsys)
        assert code == 2
        _one_line_error(err)
        assert "--traj" in err


UNIT_ORBITS = [
    ("q", "s2xs2", ["--b0", "1", "--c0", "1"]),
    ("q", "s2xs2xs2", ["--a0", "1", "--b0", "1", "--c0", "1"]),
    ("m", "cp2", ["--a0", "1"]),
    ("m", "cp2xs2", ["--a0", "1", "--b0", "1"]),
    ("m", "s2", ["--b0", "1"]),
]

GOLDEN = Path(__file__).parent / "golden"

#: exact outputs, pinned byte for byte; no libm or LAPACK float enters them
GOLDEN_RUNS = [
    (f"derive_{model}.{ext}", ["derive", "--model", model, *flags])
    for model in ("q", "m")
    for ext, flags in (("json", ["--json"]), ("txt", []))
] + [
    (f"smoothness_{model}_{orbit}.json", ["smoothness", "--model", model, "--orbit", orbit])
    for model, orbit, _ in UNIT_ORBITS
]


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[name for name, _ in GOLDEN_RUNS])
def test_exact_outputs_match_the_golden_files(capsys, name, argv):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / name).read_bytes()


#: the closure_residual blocks and the closed_form_deviation of report and
#: verify for the unit-data orbits and three runs with a0 = 3/7, floats as
#: reprs; the closure check and the closed form are pure Python, so no libm
#: or LAPACK difference enters them
GOLDEN_CLOSURE = json.loads((GOLDEN / "closure.json").read_text())
GOLDEN_CLOSED_FORM = json.loads((GOLDEN / "closed_form.json").read_text())

A0_3_7_ORBITS = [
    ("q", "s2xs2xs2", ["--a0", "3/7", "--b0", "1", "--c0", "1"]),
    ("m", "cp2", ["--a0", "3/7"]),
    ("m", "cp2xs2", ["--a0", "3/7", "--b0", "1"]),
]


@pytest.mark.parametrize("model,orbit,values", UNIT_ORBITS + A0_3_7_ORBITS)
def test_closure_residuals_match_the_golden_file(capsys, tmp_path, model, orbit, values):
    traj = tmp_path / "traj.csv"
    common = ["--model", model, "--orbit", orbit, *values]
    blocks = {}
    deviations = {}
    runs = (("report", ["--traj-out", str(traj)]), ("verify", ["--traj", str(traj)]))
    for command, extra in runs:
        code, out, err = run([command, *common, *extra], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        block = doc["closure_residual"]
        blocks[command] = {k: repr(v) if isinstance(v, float) else v for k, v in block.items()}
        deviations[command] = repr(doc["closed_form_deviation"])
    key = f"{model}_{orbit}" + ("_a0_3_7" if "3/7" in values else "")
    assert blocks == GOLDEN_CLOSURE[key]
    assert deviations == GOLDEN_CLOSED_FORM[key]


#: trajectories pinned byte for byte: the --traj-out CSV of each unit-data
#: report, and one solve at the solve-scan tolerances.  The stepper's floats
#: pass through libm's pow (err ** -0.2), so the files hold on a platform
#: whose pow rounds as glibc's does
GOLDEN_TRAJ_RUNS = [
    (f"traj_{model}_{orbit}.csv", ["report", "--model", model, "--orbit", orbit, *values], "--traj-out")
    for model, orbit, values in UNIT_ORBITS
] + [
    (
        "traj_m_cp2xs2_scan.csv",
        ["solve", "--model", "m", "--orbit", "cp2xs2", "--a0", "1", "--b0", "1",
         "--rtol", "1e-12", "--atol", "1e-14", "--t-end", "1e8"],
        "--out",
    ),
    (
        "traj_q_s2xs2_scan.csv",
        ["solve", "--model", "q", "--orbit", "s2xs2", "--b0", "1", "--c0", "1",
         "--rtol", "1e-12", "--atol", "1e-14", "--t-end", "1e8"],
        "--out",
    ),
]


@pytest.mark.parametrize("name,argv,flag", GOLDEN_TRAJ_RUNS, ids=[r[0] for r in GOLDEN_TRAJ_RUNS])
def test_trajectories_match_the_golden_files(capsys, tmp_path, name, argv, flag):
    path = tmp_path / name
    code, _, err = run(argv + [flag, str(path)], capsys)
    assert (code, err) == (0, "")
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


#: whole reports of the unit-data orbits, byte for byte but for the fitted
#: cone limits and corrections: those are LAPACK's bits, so each file holds a
#: placeholder for them and the test holds the limits to CONE_REFS within the
#: cone bar
GOLDEN_REPORT_RUNS = [
    (f"report_{model}_{orbit}.json", ["report", "--model", model, "--orbit", orbit, *values])
    for model, orbit, values in UNIT_ORBITS
]
FITTED = "fitted by LAPACK"


def cone_fit_placeholders(text):
    """A report's text with each fitted cone float replaced by ``FITTED``,
    and those floats by block."""
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    fitted = {}
    for block in ("limits", "corrections"):
        fitted[block] = doc["cone"][block]
        doc["cone"][block] = dict.fromkeys(fitted[block], FITTED)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", fitted


@pytest.mark.parametrize("name,argv", GOLDEN_REPORT_RUNS, ids=[name for name, _ in GOLDEN_REPORT_RUNS])
def test_reports_match_the_golden_files(capsys, name, argv):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    text, fitted = cone_fit_placeholders(out)
    assert text.encode() == (GOLDEN / name).read_bytes()
    refs = CONE_REFS[argv[2].upper()]
    bar = json.loads(out)["bars"]["cone"]
    assert fitted["limits"].keys() == fitted["corrections"].keys() == refs.keys()
    assert all(abs(fitted["limits"][q] - refs[q]) <= bar for q in refs)
    assert all(math.isfinite(c) for c in fitted["corrections"].values())


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("model,orbit,values", UNIT_ORBITS)
def test_report_is_strict_json_with_the_eps_used(capsys, tmp_path, model, orbit, values):
    out = tmp_path / "r.json"
    code = main(["report", "--model", model, "--orbit", orbit, *values, "--out", str(out)])
    capsys.readouterr()
    assert code in (0, 1)
    doc = _strict_json(out.read_text())
    assert doc["provenance"]["eps"] == 1e-6


def test_report_records_a_given_eps(capsys, tmp_path):
    out = tmp_path / "r.json"
    argv = ["report", "--model", "m", "--orbit", "cp2", "--a0", "3", "--t-end", "50"]
    assert main(argv + ["--out", str(out)]) in (0, 1)
    assert _strict_json(out.read_text())["provenance"]["eps"] == 3e-6
    assert main(argv + ["--eps", "2e-7", "--out", str(out)]) in (0, 1)
    assert _strict_json(out.read_text())["provenance"]["eps"] == 2e-7
    capsys.readouterr()


#: the keys of a report and a verify of one run that depend on the closure
#: check: profile-backed for report, raw samples for verify
DIFFERS_BY_CLOSURE_CHECK = (
    "closure_residual", "bars.closure", "cone.corrections", "kaehler.residual", "provenance",
)


@pytest.mark.parametrize("model,orbit,values", UNIT_ORBITS)
def test_verify_passes_each_unit_orbit_at_the_default_bars(capsys, tmp_path, model, orbit, values):
    traj = tmp_path / "traj.csv"
    argv = ["--model", model, "--orbit", orbit, *values]
    assert main(["solve", *argv, "--out", str(traj)]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", *argv, "--traj", str(traj)], capsys)
    doc = json.loads(out)
    assert code == 0, doc["bars_failed"]
    assert doc["closure_residual"]["d_omega"] <= 1e-3
    # report integrates the same run; only its closure check and the keys
    # that come with it differ
    code, out, _ = run(["report", *argv], capsys)
    report = json.loads(out)
    assert code == 0, report["bars_failed"]
    for path in DIFFERS_BY_CLOSURE_CHECK:
        for tree in (doc, report):
            *parents, last = path.split(".")
            for key in parents:
                tree = tree[key]
            tree.pop(last, None)
    assert report == doc


def test_verify_fails_a_run_of_a_slightly_wrong_system(capsys, tmp_path):
    """A run of M cp2xs2 whose a' is 0.1% too large misses the closure bar,
    and the stderr line says where each miss is worst."""
    sys_ = perturbed_system(m_model(1, 1).derivation.sys, "a", Fraction(1001, 1000))
    spec = OrbitSpec("M", "cp2xs2", {"a": 1, "b": 1})
    traj, _ = solve_orbit(sys_, spec, IntegratorConfig())
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    code, out, err = run(
        ["verify", "--model", "m", "--orbit", "cp2xs2", "--a0", "1", "--b0", "1",
         "--traj", str(path)],
        capsys,
    )
    assert code == 1
    assert "closure" in json.loads(out)["bars_failed"]
    # the verify command's missed-bar line names each worst sample
    assert err == (
        "failed: closure 0.00147 > 0.001 at t=0.136 (d_omega), cone 0.00128 > 0.001 at a^2/t^2 (t_end/scale=1e+04),"
        " closed_form 0.001 > 1e-08 at t=1e+04 (a)\n"
    )


GOLDEN_M_CP2 = str(Path(__file__).parent / "golden" / "traj_m_cp2.csv")


@pytest.mark.parametrize(
    "argv,missed,line",
    [
        (["report", "--model", "m", "--orbit", "cp2"], ["--a0", "1/3"],
         "failed: closed_form 1.05e-08 > 1e-08 at t=9e-05 (c)"),
        (["verify", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj", GOLDEN_M_CP2], ["--cone-bar", "1e-9"],
         "failed: cone 0.000115 > 1e-09 at c/t (t_end/scale=1e+04)"),
        (["cone", "--model", "m", "--traj", GOLDEN_M_CP2], ["--cone-bar", "1e-9"],
         "failed: cone 0.000115 > 1e-09 at c/t (t_end/scale=1e+04)"),
        (["report", "--model", "m", "--orbit", "cp2"], ["--a0", "1", "--t-end", "5"],
         "failed: closure 1.83e-07 > 1e-09 at t=0.000121 (d_omega)"),
    ],
    ids=["report", "verify", "cone", "report-closure"],
)
def test_a_missed_bar_says_so_in_one_stderr_line(capsys, tmp_path, argv, missed, line):
    """Exit 1 from a missed bar prints one stderr line with each miss, its
    value, its bar and where its worst sample lies, which the document's
    ``bars_failed`` names; without the miss (unit data, default bars) the
    command exits 0 and prints nothing to stderr."""
    out = tmp_path / "out.json"
    code, stdout, err = run(argv + missed + ["--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", line + "\n")
    assert json.loads(out.read_text())["bars_failed"] == [line.split()[1]]
    passing = argv + (["--a0", "1"] if argv[0] == "report" else []) + ["--out", str(out)]
    assert run(passing, capsys) == (0, "", "")


def test_default_bars_given_explicitly_change_no_output(capsys, tmp_path):
    """Each command's output is the same byte for byte whether its bars are
    left out or given at their default values."""
    traj = tmp_path / "traj.csv"
    argv = ["--model", "m", "--orbit", "cp2", "--a0", "1"]
    assert main(["solve", *argv, "--out", str(traj)]) == 0
    capsys.readouterr()
    bars = ["--cone-bar", "1e-3", "--closed-form-bar", "1e-8"]
    runs = [
        (["report", *argv], ["--closure-bar", "1e-9", *bars]),
        (["verify", *argv, "--traj", str(traj)], ["--closure-bar", "1e-3", *bars]),
        (["cone", "--model", "m", "--traj", str(traj)], ["--cone-bar", "1e-3"]),
    ]
    for command, given in runs:
        implicit = run(command, capsys)
        assert implicit[0] == 0, implicit[1]
        assert run(command + given, capsys) == implicit


# a float ``**`` beyond float range raises OverflowError in the right-hand
# side: at the series start of a tiny a0, and late in a run to t = 1e300
OVERFLOW_ARGV = [
    ["report", "--model", "m", "--orbit", "cp2", "--a0", "1e-200"],
    ["solve", "--model", "q", "--orbit", "s2xs2", "--b0", "1", "--c0", "1", "--t-end", "1e300"],
]


@pytest.mark.parametrize("argv", OVERFLOW_ARGV)
def test_overflowing_right_hand_side_exits_1_with_one_line(capsys, tmp_path, argv):
    out = tmp_path / "out"
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("integration error: "), err
    assert not out.exists()


# a principal M start with a0 = 1e-150: its slope over the error scale
# squares beyond float range, so no float step is small enough; the run
# stops as underflow whether the first step is automatic or given
STEEP_START_ARGV = [
    "solve", "--model", "m", "--orbit", "principal", "--a0", "1e-150", "--b0", "1", "--c0", "1",
]


@pytest.mark.parametrize("extra", [[], ["--initial-step", "1e-3"]], ids=["automatic", "explicit"])
def test_a_start_too_steep_for_any_step_exits_1_with_one_line(capsys, tmp_path, extra):
    out = tmp_path / "p.csv"
    code, _, err = run([*STEEP_START_ARGV, *extra, "--out", str(out)], capsys)
    assert code == 1
    assert err == "integration error: integration stopped: underflow\n"
    assert not out.exists()


@pytest.mark.parametrize("t_end", ["2e-6", "1e-5", "3e-5"])
def test_a_run_shorter_than_the_closure_margins_exits_2_with_one_line(capsys, tmp_path, t_end):
    # the profile-backed closure check keeps 2e-5 * (1 + t_end) from each end
    # of the run; with eps = 1e-6 these spans leave no room for its points
    argv = ["report", "--model", "q", "--orbit", "s2xs2", "--b0", "1", "--c0", "1"]
    out = tmp_path / "r.json"
    code, _, err = run([*argv, "--t-end", t_end, "--out", str(out)], capsys)
    assert code == 2
    _one_line_error(err)
    span = float(t_end) - 1e-6
    assert f"closure check: the run spans {span:.3g} in t, at most twice its margin" in err
    assert not out.exists()


def test_a_closed_form_beyond_float_range_exits_2_with_one_line(capsys, tmp_path):
    # a0 = 1e80: the closed form's denominator has coefficients near 1e480
    out = tmp_path / "r.json"
    argv = ["report", "--model", "m", "--orbit", "cp2", "--a0", "1e80", "--eps", "1",
            "--t-end", "1e85", "--out", str(out)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == "error: a closed-form coefficient is beyond float range\n"
    assert not out.exists()


TRAJ = str(GOLDEN / "traj_m_cp2.csv")

#: every command that writes a file, with the flag that names it
WRITERS = {
    "report --out": ["report", "--model", "m", "--orbit", "cp2", "--a0", "1", "--out"],
    "report --traj-out": ["report", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj-out"],
    "solve --out": ["solve", "--model", "m", "--orbit", "cp2", "--a0", "1", "--t-end", "5", "--out"],
    "verify --out": ["verify", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj", TRAJ, "--out"],
    "cone --out": ["cone", "--model", "m", "--traj", TRAJ, "--out"],
    "smoothness --out": ["smoothness", "--model", "m", "--orbit", "cp2", "--out"],
    "derive --json": ["derive", "--model", "m", "--json"],
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("unwritable", ["missing-dir", "directory"])
def test_an_unwritable_output_path_exits_2_with_one_line(capsys, tmp_path, writer, unwritable):
    path = tmp_path / "missing" / "x" if unwritable == "missing-dir" else tmp_path
    strerror = "No such file or directory" if unwritable == "missing-dir" else "Is a directory"
    code, _, err = run([*WRITERS[writer], str(path)], capsys)
    assert code == 2
    assert err == f"error: cannot write {path}: {strerror}\n"


def test_a_full_output_device_exits_2_with_one_line(capsys, monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    code, _, err = run(["derive", "--model", "m", "--json", "-"], capsys)
    assert code == 2
    assert err == f"error: cannot write the output: {os.strerror(errno.ENOSPC)}\n"


INTEGRATOR_FLAGS = [
    ("--rtol", "0.5"), ("--atol", "0.5"), ("--t-end", "3"), ("--eps", "2"),
    ("--initial-step", "1"),
]


@pytest.mark.parametrize("flag,value", INTEGRATOR_FLAGS)
def test_verify_rejects_integrator_flags(capsys, tmp_path, flag, value):
    argv = ["verify", "--model", "m", "--orbit", "cp2", "--a0", "1",
            "--traj", str(tmp_path / "t.csv"), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


NUMPY_FREE_RUN = """
import sys
import holoflow.cli

out = sys.argv[1]
for argv in (
    ["classify", "--model", "q", "--k", "1", "--l", "1", "--m", "1"],
    ["classify", "--model", "m", "--k", "2", "--l", "1"],
    ["derive", "--model", "q", "--json", out + "/sys.json"],
    ["derive", "--model", "m"],
    ["smoothness", "--model", "m", "--orbit", "cp2", "--out", out + "/smooth.json"],
    ["solve", "--model", "m", "--orbit", "cp2xs2", "--a0", "1", "--b0", "1",
     "--t-end", "20", "--out", out + "/traj.csv"],
):
    assert holoflow.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""


def fresh_python(*argv):
    """``python -c`` in a fresh interpreter that imports this holoflow."""
    src = str(Path(holoflow.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_start_up_paths_never_import_numpy(tmp_path):
    """Only the cone fit needs numpy; classify, derive, smoothness and solve
    run without importing it."""
    proc = fresh_python(NUMPY_FREE_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "traj.csv").read_text().startswith("t,a,b,c,C\n")


def test_importing_the_cli_generates_no_record_code():
    """Records are built without ``dataclasses``, whose per-class code
    generation (and its ``inspect`` import) every cold process would pay."""
    proc = fresh_python(
        "import sys, holoflow.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


LOADED_MODULES = """
import contextlib, io, json, sys
import holoflow.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = holoflow.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = sorted(m for m in sys.modules if m == "holoflow" or m.startswith("holoflow."))
print(json.dumps([code, loaded, "numpy" in sys.modules]))
"""

#: what importing the CLI and each command load besides ``holoflow``
CLI_MODULES = ["_record", "cli", "errors", "homogeneous"]
FLOW_MODULES = CLI_MODULES + ["algebra", "flow", "structures"]
SOLVE_MODULES = FLOW_MODULES + ["_kernel", "integrate"]
VERIFY_MODULES = SOLVE_MODULES + ["closed_form", "verify"]
GOLDEN_TRAJ = str(GOLDEN / "traj_m_cp2.csv")
COMMAND_MODULES = [
    ([], CLI_MODULES),
    (["classify", "--model", "q", "--k", "1", "--l", "1", "--m", "1"], CLI_MODULES),
    (["classify", "--model", "m", "--k", "2", "--l", "1"], CLI_MODULES),
    (["derive", "--model", "q"], FLOW_MODULES),
    (["solve", "--model", "m", "--orbit", "cp2", "--a0", "1", "--t-end", "10", "--out", "{out}"],
     SOLVE_MODULES),
    (["verify", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj", GOLDEN_TRAJ], VERIFY_MODULES),
    (["cone", "--model", "m", "--traj", GOLDEN_TRAJ], VERIFY_MODULES),
    (["smoothness", "--model", "m", "--orbit", "cp2"], VERIFY_MODULES),
    (["report", "--model", "m", "--orbit", "cp2", "--a0", "1"], VERIFY_MODULES),
]
#: the commands that fit the cone, the one step that imports numpy
CONE_FIT_COMMANDS = {"verify", "cone", "report"}


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    argv = [a.format(out=tmp_path / "x.csv") for a in argv]
    proc = fresh_python(LOADED_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    code, loaded, numpy = json.loads(proc.stdout)
    assert code == 0
    assert loaded == sorted(["holoflow"] + ["holoflow." + m for m in modules])
    assert numpy == bool(CONE_FIT_COMMANDS.intersection(argv[:1]))


def test_building_and_classifying_a_model_loads_no_exterior_algebra():
    proc = fresh_python(
        "import sys\n"
        "from holoflow.homogeneous import classify_invariant_g2, get_model\n"
        "print([classify_invariant_g2(get_model(k, i)) for k, i in (('Q', (1, 1, 1)), ('M', (2, 1)))])\n"
        "print('holoflow.algebra' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, False]\nFalse\n"


#: counts ``flow.kaehler_search`` calls per model kind over the commands
#: given as JSON, printed before and after the ``report`` commands
KAEHLER_SEARCH_COUNT = """
import contextlib, io, json, sys
from collections import Counter
from holoflow import flow
from holoflow.cli import main

calls = Counter()
real = flow.kaehler_search

def counted(model, sys_):
    calls[model.kind] += 1
    return real(model, sys_)

flow.kaehler_search = counted  # before the CLI loads verify, which imports it
commands = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands["cold"]:
        assert main(argv) == 0, argv
    cold = dict(calls)
    for argv in commands["report"]:
        assert main(argv) == 0, argv
print(json.dumps([cold, dict(calls)]))
"""


def test_only_the_commands_that_verify_build_the_kaehler_certificate(tmp_path):
    """In one process, ``derive``, ``solve`` and ``smoothness`` on every
    unit-data orbit build no Kaehler certificate; ``report`` on all five
    builds one per model."""
    out = str(tmp_path / "out")
    cold = [["derive", "--model", model] for model in ("q", "m")]
    report = []
    for model, orbit, values in UNIT_ORBITS:
        common = ["--model", model, "--orbit", orbit]
        cold.append(["solve", *common, *values, "--out", out])
        cold.append(["smoothness", *common, "--out", out])
        report.append(["report", *common, *values, "--out", out])
    proc = fresh_python(KAEHLER_SEARCH_COUNT, json.dumps({"cold": cold, "report": report}))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [{}, {"Q": 1, "M": 1}]


def test_the_package_loads_its_exports_on_first_access():
    """``import holoflow`` loads no submodule; each exported name is read
    from its module when asked for and never stored on the package."""
    proc = fresh_python(
        "import sys, holoflow\n"
        "print(sorted(m for m in sys.modules if m.startswith('holoflow')))\n"
        "assert set(holoflow.__all__) <= set(dir(holoflow))\n"
        "from holoflow import *\n"
        "for name in holoflow.__all__:\n"
        "    value = getattr(holoflow, name)\n"
        "    assert value is getattr(sys.modules[value.__module__], name), name\n"
        "    assert name not in vars(holoflow), name\n"
        "import holoflow.cli\n"
        "for module in (holoflow, holoflow.cli):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(module)\n"
        "assert holoflow.cli.derive_flow is holoflow.flow.derive_flow\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['holoflow']\n"


def test_solve_exits_1_when_the_run_stops_early(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(
        ["solve", "--model", "q", "--orbit", "principal",
         "--a0", "1", "--b0", "1", "--c0", "1", "--f0", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "sign_change" in lines[0], err
    assert not out.exists()


def test_report_exits_1_when_the_run_stops_early(capsys, tmp_path, monkeypatch):
    import holoflow.integrate as integrate

    real = integrate.solve_orbit

    def stopped(*args, **kwargs):
        traj, slopes = real(*args, **kwargs)
        traj.status = "sign_change"
        return traj, slopes

    monkeypatch.setattr(integrate, "solve_orbit", stopped)
    out = tmp_path / "r.json"
    code, _, err = run(
        ["report", "--model", "m", "--orbit", "cp2", "--a0", "1", "--t-end", "50", "--out", str(out)],
        capsys,
    )
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "sign_change" in lines[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "verify"])
def test_principal_orbit_rejected_before_integration(capsys, tmp_path, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("holoflow.integrate.solve_orbit", no_work)
    monkeypatch.setattr("holoflow.integrate.Trajectory.from_csv", no_work)
    extra = ["--traj", str(tmp_path / "t.csv")] if command == "verify" else []
    code, _, err = run(
        [command, "--model", "q", "--orbit", "principal",
         "--a0", "1", "--b0", "1", "--c0", "1", "--f0", "1", *extra],
        capsys,
    )
    assert code == 2
    _one_line_error(err)
    assert "principal" in err


GOOD_ROWS = ["0.1,1,1,0.1,0.01", "0.2,1,1,0.2,0.04", "0.3,1,1,0.3,0.09"]

BAD_CSVS = {
    "header": ["t,a,b,c,f,F"] + GOOD_ROWS,
    "short-row": ["t,a,b,c,C", GOOD_ROWS[0], "0.2,1,1,0.2", GOOD_ROWS[2]],
    "long-row": ["t,a,b,c,C", GOOD_ROWS[0], GOOD_ROWS[1] + ",1", GOOD_ROWS[2]],
    "not-a-number": ["t,a,b,c,C", GOOD_ROWS[0], "0.2,1,x,0.2,0.04", GOOD_ROWS[2]],
    "non-finite": ["t,a,b,c,C", GOOD_ROWS[0], "0.2,1,nan,0.2,0.04", GOOD_ROWS[2]],
    "infinite": ["t,a,b,c,C", GOOD_ROWS[0], "0.2,1,inf,0.2,0.04", GOOD_ROWS[2]],
    "t-repeats": ["t,a,b,c,C", GOOD_ROWS[0], GOOD_ROWS[0], GOOD_ROWS[2]],
    "t-decreases": ["t,a,b,c,C", GOOD_ROWS[1], GOOD_ROWS[0], GOOD_ROWS[2]],
    "t-negative": ["t,a,b,c,C", "-2,1,1,0.1,0.01", "-1,1,1,0.2,0.04", "0,1,1,0.3,0.09"],
    "two-rows": ["t,a,b,c,C"] + GOOD_ROWS[:2],
    "empty": [],
    "not-utf8": b"\xff\xfe\x00garbage\n",
}


@pytest.mark.parametrize("command", ["verify", "cone"])
@pytest.mark.parametrize("case", sorted(BAD_CSVS))
def test_malformed_traj_rejected(capsys, tmp_path, command, case):
    path = tmp_path / "t.csv"
    bad = BAD_CSVS[case]
    if isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        path.write_text("".join(line + "\n" for line in bad))
    extra = ["--orbit", "cp2", "--a0", "1"] if command == "verify" else []
    code, _, err = run([command, "--model", "m", *extra, "--traj", str(path)], capsys)
    assert code == 2
    _one_line_error(err)
    assert "--traj" in err


#: well-formed files on which the closure check cannot evaluate the forms:
#: Omega vanishes on every row, or a^2 leaves float range
UNEVALUABLE_CSVS = {
    "all-zero": ["t,a,b,c,C"] + [f"{t},0,0,0,0" for t in range(4)],
    "beyond-float-range": ["t,a,b,c,C"] + [f"{t},1e300,0,0,0" for t in range(4)],
    # node gaps of 5e-324 multiply to 0.0 in the finite-difference weights
    "samples-too-close": ["t,a,b,c,C"] + [f"{t!r},1,1,1,1" for t in (0.0, 5e-324, 1e-323, 1.5e-323)],
}


@pytest.mark.parametrize("case", sorted(UNEVALUABLE_CSVS))
def test_verify_rejects_a_traj_the_closure_check_cannot_evaluate(capsys, tmp_path, case):
    path = tmp_path / "t.csv"
    path.write_text("".join(line + "\n" for line in UNEVALUABLE_CSVS[case]))
    out = tmp_path / "v.json"
    argv = ["verify", "--model", "m", "--orbit", "cp2", "--a0", "1", "--traj", str(path)]
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    _one_line_error(err)
    assert "closure check" in err
    assert not out.exists()


#: well-formed files beyond float range: cone quantities that square past it,
#: a cone fit that overflows, and coefficients whose squares pass it (the cone
#: fit rejects that last file before the closed-form comparison reads it)
BIG_ROWS = ["0,1e300,1,1,1", "1,-1e300,1,1,1", "2,1e300,1,1,1", "3,1e300,1,1,1"]
FIT_OVERFLOW_ROWS = ["1,1,1,1.7e308,1", "2,1,1,2e300,1", "3,1,1,1,1"]
OVERFLOW_ROWS = [
    "1.0,2.0,1e+300,1e+300,0.0",
    "1.5,0.5,1e8,-1.0,-1.0",
    "2.0,5e-324,-1.0,5e-324,1e8",
    "4.0,1e-08,1e-300,0.0,-1.0",
    "5.0,0.0,-1.0,1e-300,-1.0",
    "6.0,0.5,1e-300,-1.0,-1.0",
]
M_ORBIT_ARGV = [orbit_argv for model, *orbit_argv in UNIT_ORBITS if model == "m"]


@pytest.mark.parametrize(
    "rows,argv",
    [(rows, ["cone", "--model", "m"]) for rows in (BIG_ROWS, FIT_OVERFLOW_ROWS)]
    + [(rows, ["verify", "--model", "m", "--orbit", orbit, *values])
       for rows in (FIT_OVERFLOW_ROWS, OVERFLOW_ROWS) for orbit, values in M_ORBIT_ARGV],
)
def test_a_traj_beyond_float_range_exits_2_with_one_line(capsys, tmp_path, rows, argv):
    path = tmp_path / "big.csv"
    path.write_text("".join(line + "\n" for line in ["t,a,b,c,C"] + rows))
    out = tmp_path / "doc.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        code, _, err = run(argv + ["--traj", str(path), "--out", str(out)], capsys)
    assert code == 2
    _one_line_error(err)
    assert "cone fit" in err
    assert not out.exists()


def test_well_formed_traj_accepted(capsys, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("".join(line + "\n" for line in ["t,a,b,c,C"] + GOOD_ROWS + [""]))
    code, out, _ = run(["cone", "--model", "m", "--traj", str(path)], capsys)
    assert code in (0, 1)
    assert all(math.isfinite(v) for v in _strict_json(out)["cone"]["endpoint"].values())


def test_internal_value_error_is_not_reported_as_input(capsys, tmp_path, monkeypatch):
    def broken(traj):
        raise ValueError("internal bug")

    monkeypatch.setattr("holoflow.verify.cone_fit", broken)
    path = tmp_path / "t.csv"
    path.write_text("".join(line + "\n" for line in ["t,a,b,c,C"] + GOOD_ROWS))
    with pytest.raises(ValueError, match="internal bug"):
        main(["cone", "--model", "m", "--traj", str(path)])


def test_one_process_builds_each_structure_once(capsys, tmp_path, monkeypatch):
    calls = []
    real = structures.build_invariant_structure

    def counted(model, *args, **kwargs):
        calls.append(model.kind)
        return real(model, *args, **kwargs)

    # fresh model caches: models built by earlier tests carry their derivations
    for name in ("q_model", "m_model"):
        monkeypatch.setattr(homogeneous, name, lru_cache(maxsize=None)(getattr(homogeneous, name).__wrapped__))
    monkeypatch.setattr(flow, "build_invariant_structure", counted)
    monkeypatch.setattr(structures, "build_invariant_structure", counted)
    for model, orbit, values in UNIT_ORBITS:
        traj = tmp_path / f"{orbit}.csv"
        common = ["--model", model, "--orbit", orbit, *values]
        assert main(["report", *common, "--out", str(tmp_path / "r.json"), "--traj-out", str(traj)]) in (0, 1)
        assert main(["verify", *common, "--traj", str(traj), "--out", str(tmp_path / "v.json")]) in (0, 1)
    capsys.readouterr()
    assert sorted(calls) == ["M", "Q"]


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cone_bar_rejected_before_the_traj_is_read(capsys, tmp_path, monkeypatch, value):
    def no_read(*args, **kwargs):
        raise AssertionError("the trajectory was read")

    monkeypatch.setattr("holoflow.integrate.Trajectory.from_csv", no_read)
    out = tmp_path / "c.json"
    code, _, err = run(
        ["cone", "--model", "q", "--traj", str(tmp_path / "t.csv"), "--cone-bar", value,
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    _one_line_error(err)
    assert "--cone-bar" in err
    assert not out.exists()


def stock_parser():
    """``build_parser()`` with argparse's own formatter on every parser: each
    formatter made reads the terminal width again."""
    ap = build_parser()
    (sub,) = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    for parser in (ap, *sub.choices.values()):
        parser.formatter_class = argparse.HelpFormatter
    return ap


def test_a_parser_build_reads_the_terminal_size_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    build_parser().parse_args(["classify", "--model", "q"])
    assert len(calls) == 1


#: argparse's own errors, then the CI smoke test's error cases
PARSER_ERRORS = [
    [],
    ["derive"],
    ["classify", "--model", "x"],
    ["report", "--model", "q", "--orbit", "s2xs2", "--no-such-flag"],
]
SMOKE_ERRORS = [(argv, code) for argv, code in INVOCATIONS if code]


def test_help_and_errors_match_a_stock_parser(capsys, monkeypatch, tmp_path):
    """Every ``--help`` text, and the output and exit status of each error
    case, are what a parser whose formatters each read the width gives, at
    either of two terminal widths."""
    monkeypatch.chdir(tmp_path)
    for name, data in INPUTS.items():
        Path(name).write_bytes(data)

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    helps = [["--help"], *([name, "--help"] for name in cli.COMMANDS)]
    cases = helps + PARSER_ERRORS + [argv for argv, _ in SMOKE_ERRORS]
    codes = [0] * len(helps) + [2] * len(PARSER_ERRORS) + [code for _, code in SMOKE_ERRORS]
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = [outcome(argv) for argv in cases]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", stock_parser)
            assert got == [outcome(argv) for argv in cases], columns
        assert [code for code, _, _ in got] == codes
        texts.append(got[0][1])
    assert texts[0] != texts[1]  # the width is read


def test_emit_refuses_non_finite_numbers(tmp_path):
    from holoflow.cli import _emit

    with pytest.raises(ValueError):
        _emit({"cone": float("nan")}, tmp_path / "x.json")


# ---------------------------------------------------------------------------
# property: every invocation ends with exit 0, 1 or 2 and strict JSON
# ---------------------------------------------------------------------------

ODD_NUMBERS = ("nan", "inf", "-1", "0", "1/0", "abc")
ORBITS = {
    "q": ("s2xs2xs2", "s2xs2", "principal", "cp2"),
    "m": ("cp2xs2", "cp2", "s2", "principal", "s2xs2"),
}


@st.composite
def cli_argv(draw):
    """Argv for one command; ``@traj/`` and ``@out/`` name the input and
    output directories.  A clean draw uses valid numbers and exactly the
    initial values its orbit needs, so that most runs get past the checks."""
    command = draw(
        st.sampled_from(("classify", "derive", "smoothness", "cone", "solve", "report", "verify"))
    )
    model = draw(st.sampled_from(("q", "m")))
    clean = draw(st.booleans())
    argv = [command, "--model", model]

    def number(*valid):
        return draw(st.sampled_from(valid if clean else valid + ODD_NUMBERS))

    def maybe(flag, *valid):
        if draw(st.booleans()):
            argv.extend([flag, number(*valid)])

    def maybe_out(name):
        if draw(st.booleans()):
            argv.extend(["--out", "@out/" + name])

    def traj():
        return draw(st.sampled_from(("@traj/q.csv", "@traj/m.csv", "@traj/missing.csv")))

    if command == "classify":
        for flag in ("--k", "--l", "--m"):
            maybe(flag, "1", "2", "3")
    elif command == "derive":
        if draw(st.booleans()):
            argv.extend(["--json", draw(st.sampled_from(("-", "@out/sys.json")))])
    elif command == "smoothness":
        argv.extend(["--orbit", draw(st.sampled_from(ORBITS[model]))])
        maybe_out("smooth.json")
    elif command == "cone":
        argv.extend(["--traj", traj()])
        maybe("--cone-bar", "1e-3", "1")
        maybe_out("cone.json")
    else:
        orbit = draw(st.sampled_from(ORBITS[model]))
        argv.extend(["--orbit", orbit])
        kind = model.upper()
        needed = [
            s for s in MODEL_SPECS[kind].state_names if s not in ORBIT_COLLAPSING[kind].get(orbit, ())
        ]
        for name in MODEL_SPECS["Q"].state_names:
            if (name in needed) if clean else draw(st.booleans()):
                argv.extend([f"--{name}0", number("1", "2/3", "-1/2")])
        if command != "verify":  # verify integrates nothing and takes no integrator flags
            argv.extend(["--t-end", number("0.5", "5", "50")])
            maybe("--rtol", "1e-6", "1e-10")
            maybe("--atol", "1e-8", "1e-12")
            maybe("--eps", "1e-6", "1e-3")
            maybe("--initial-step", "1e-3")
        if draw(st.booleans()):
            argv.append("--negative-branch")
        if command == "solve":
            argv.extend(["--out", "@out/traj.csv"])
        else:
            if command == "verify":
                argv.extend(["--traj", traj()])
            elif draw(st.booleans()):
                argv.extend(["--traj-out", "@out/traj.csv"])
            for flag in ("--cone-bar", "--closure-bar", "--closed-form-bar"):
                maybe(flag, "1e-9", "1e-3", "1")
            maybe_out("doc.json")
    return argv


@pytest.fixture(scope="module")
def traj_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("traj")
    with contextlib.redirect_stdout(io.StringIO()):
        for model, orbit, values in (UNIT_ORBITS[0], UNIT_ORBITS[2]):
            argv = ["solve", "--model", model, "--orbit", orbit, *values]
            assert main(argv + ["--t-end", "50", "--out", str(path / f"{model}.csv")]) == 0
    return path


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_cli_exits_0_1_or_2_and_writes_strict_json(traj_dir, argv):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [
            a.replace("@traj/", f"{traj_dir}/").replace("@out/", f"{out_dir}/") for a in argv
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:  # one line of ours, or argparse's usage and error lines
            assert "error: " in err.splitlines()[-1], err
        docs = [stdout.getvalue()] if stdout.getvalue().startswith("{") else []
        docs += [p.read_text() for p in Path(out_dir).glob("*.json")]
        for text in docs:
            _strict_json(text)


# ---------------------------------------------------------------------------
# property: a stored run with extreme values never ends in a traceback
# ---------------------------------------------------------------------------

#: the coefficients and primitives the stored-run fuzz draws from; its
#: arclengths are the non-negative ones, so t increases strictly
FUZZ_VALUES = (0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e8, 1e-8, 1e300, -1e300, 1e-300, 5e-324)
FUZZ_TIMES = tuple(v for v in FUZZ_VALUES if v >= 0)


@st.composite
def stored_runs(draw):
    """A well-formed ``--traj`` file of 3 to 8 rows for a drawn model."""
    model = draw(st.sampled_from(("q", "m")))
    nrows = draw(st.integers(3, 8))
    ts = sorted(draw(st.lists(st.sampled_from(FUZZ_TIMES), min_size=nrows, max_size=nrows, unique=True)))
    width = len(MODEL_SPECS[model.upper()].state_names) + 1
    values = st.lists(st.sampled_from(FUZZ_VALUES), min_size=width, max_size=width)
    return model, [[t] + draw(values) for t in ts]


def _quiet_main(argv):
    """``main(argv)`` with its exit code and every stderr line, warnings
    counted as lines, as a fresh process would print them."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
    return code, stderr.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stored=stored_runs())
def test_verify_and_cone_on_extreme_stored_runs_end_cleanly(stored):
    model, rows = stored
    kind = model.upper()
    with tempfile.TemporaryDirectory() as tmp:
        traj = Path(tmp) / "traj.csv"
        header = ",".join(("t",) + MODEL_SPECS[kind].state_names + (PRIMITIVE_NAME[kind],))
        traj.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        calls = [("cone", ["cone", "--model", model])]
        for orbit, collapsing in ORBIT_COLLAPSING[kind].items():
            if orbit != "principal":
                values = [a for s in MODEL_SPECS[kind].state_names if s not in collapsing for a in (f"--{s}0", "1")]
                calls.append(("verify", ["verify", "--model", model, "--orbit", orbit, *values]))
        for command, argv in calls:
            out = Path(tmp) / f"{command}.json"
            code, lines = _quiet_main(argv + ["--traj", str(traj), "--out", str(out)])
            assert code in (0, 1, 2), (argv, lines)
            assert len(lines) <= 1, (argv, lines)
            if code == 2:
                assert lines and lines[0].startswith("error: "), (argv, lines)
                assert not out.exists()
                continue
            doc = _strict_json(out.read_text())
            out.unlink()
            assert (code == 0) == doc["passed"] == (not doc["bars_failed"])
            if code == 0:  # every bar met, read from the document itself
                bars = doc["bars"]
                assert doc["cone"]["partial"] or max(doc["cone"]["deltas"].values()) <= bars["cone"]
                if command == "verify":
                    res = doc["closure_residual"]
                    assert max(res["d_omega"], res["d_eta"]) <= bars["closure"]
                    assert doc["closed_form_deviation"] <= bars["closed_form"]
                    assert doc["su4_certificate"]
