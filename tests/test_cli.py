"""End-to-end command-line runs with exit-code + artifact checks."""

import json

import pytest

from holoflow.cli import main


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


def test_classify_invalid_input(capsys):
    code, _, err = run(["classify", "--model", "q", "--k", "0", "--l", "0", "--m", "0"], capsys)
    assert code == 2
    assert "error" in err


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


# an initial step of 0 asks for the automatic choice, so only it may be 0
BAD_NUMERIC_FLAGS = [
    (flag, value)
    for flag in ("--t-end", "--rtol", "--atol", "--eps", "--initial-step")
    for value in ("nan", "inf", "0", "-5")
    if (flag, value) != ("--initial-step", "0")
]


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


@pytest.mark.parametrize("command", ["verify", "cone"])
def test_missing_or_unreadable_traj_rejected(capsys, tmp_path, command):
    extra = ["--orbit", "cp2", "--a0", "1"] if command == "verify" else []
    for traj in (tmp_path / "missing.csv", tmp_path):
        code, _, err = run([command, "--model", "m", *extra, "--traj", str(traj)], capsys)
        assert code == 2
        _one_line_error(err)
        assert "--traj" in err
