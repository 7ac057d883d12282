"""Command dispatch, exit codes, file formats and determinism."""

import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oakern import cli
from oakern.counterexample import build_square_config, run_counterexample
from oakern.errors import NumericError
from oakern.serialize import dumps_json, loads_json, matrix_to_csv


@pytest.fixture
def square_dataset(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(dumps_json(build_square_config(1.0).dataset()), encoding="utf-8")
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_gram_then_spectrum_round_trip(tmp_path, square_dataset):
    gram_path = tmp_path / "gram.json"
    spec_path = tmp_path / "spectrum.json"
    assert run_cli("gram", "--input", square_dataset, "--output", gram_path) == 0
    assert run_cli("spectrum", "--input", gram_path, "--output", spec_path) == 0

    spectrum = loads_json(spec_path.read_text(encoding="utf-8"))
    report = run_counterexample(1.0)
    # 17-significant-digit serialization round-trips binary64 exactly, so the
    # piped spectrum must agree with the in-process one bit for bit
    assert spectrum["psd"] is False
    assert spectrum["eigenvalues"] == [float(w) for w in report.spectrum.eigenvalues]
    assert spectrum["min_eigenvalue"] == report.spectrum.min_eigenvalue


def test_gram_csv_output(tmp_path, square_dataset):
    gram_csv = tmp_path / "gram.csv"
    assert run_cli("gram", "--input", square_dataset, "--format", "csv", "--output", gram_csv) == 0
    values = np.loadtxt(gram_csv, delimiter=",", ndmin=2)
    assert values.shape == (6, 6)
    assert values[0, 0] == 2.0
    spec_path = tmp_path / "from_csv.json"
    assert run_cli("spectrum", "--input", gram_csv, "--output", spec_path) == 0
    assert loads_json(spec_path.read_text(encoding="utf-8"))["psd"] is False


def test_spectrum_identity(tmp_path):
    path = tmp_path / "eye.csv"
    path.write_text(matrix_to_csv(np.eye(3)), encoding="utf-8")
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--input", path, "--output", out) == 0
    spectrum = loads_json(out.read_text(encoding="utf-8"))
    assert spectrum["psd"] is True
    assert spectrum["eigenvalues"] == [1.0, 1.0, 1.0]
    assert spectrum["margin"] == 1.0


def test_counterexample_command(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("counterexample", "--gamma", "1.0", "--output", out) == 0
    report = loads_json(out.read_text(encoding="utf-8"))
    assert report["refuted"] is True
    assert report["witness_value"] == pytest.approx(-1.8603532634786370, abs=1e-12)


def test_counterexample_not_refuted_with_huge_tol(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("counterexample", "--gamma", "1.0", "--tol", "0.5", "--output", out) == 3
    assert loads_json(out.read_text(encoding="utf-8"))["refuted"] is False


def test_counterexample_report_has_one_verdict(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("counterexample", "--gamma", "1", "--tol", "0.5", "--output", out) == 3
    report = loads_json(out.read_text(encoding="utf-8"))
    assert list(report["spectrum"]) == ["eigenvalues", "min_eigenvalue"]
    assert report["psd_verdict"]["psd"] is True
    assert report["psd_verdict"]["tol"] == 0.5


def test_spectrum_of_tiny_indefinite_matrix(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(dumps_json({"values": [[1e-12, 0.0], [0.0, -1e-12]]}), encoding="utf-8")
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--input", path, "--output", out) == 0
    spectrum = loads_json(out.read_text(encoding="utf-8"))
    assert spectrum["psd"] is False
    assert spectrum["margin"] == -1.0


def test_repair_of_tiny_indefinite_matrix_passes_spectrum(tmp_path):
    path = tmp_path / "tiny.json"
    values = [[2e-12, 1e-12], [1e-12, -1e-12]]
    path.write_text(dumps_json({"values": values}), encoding="utf-8")
    fixed = tmp_path / "fixed.json"
    spec = tmp_path / "spec.json"
    assert run_cli("repair", "--input", path, "--output", fixed) == 0
    assert loads_json(fixed.read_text(encoding="utf-8"))["values"] != values
    assert run_cli("spectrum", "--input", fixed, "--output", spec) == 0
    assert loads_json(spec.read_text(encoding="utf-8"))["psd"] is True


def readme_reproduction_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reproduce the study", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("oakern ")]


def test_readme_reproduction_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_reproduction_commands()
    assert len(commands) == 3
    for argv in commands:
        assert cli.main(argv) == 0, argv
    for name in ("report.json", "sweep.csv", "min_kernel.json"):
        assert (tmp_path / name).is_file(), name


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--grid", "0.1,0.25,0.5,1,2,5", "--output", out) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "gamma,a,lambda_min,witness_value,contradiction_gap,refuted"
    assert len(lines) == 7
    assert all(line.endswith(",true") for line in lines[1:])


def test_repair_then_spectrum(tmp_path, square_dataset):
    gram_path = tmp_path / "gram.json"
    fixed_path = tmp_path / "fixed.json"
    spec_path = tmp_path / "spec.json"
    run_cli("gram", "--input", square_dataset, "--output", gram_path)
    assert run_cli("repair", "--input", gram_path, "--output", fixed_path) == 0
    assert run_cli("spectrum", "--input", fixed_path, "--output", spec_path) == 0
    assert loads_json(spec_path.read_text(encoding="utf-8"))["psd"] is True


def test_verify_min_kernel_command(tmp_path):
    out = tmp_path / "verdict.json"
    assert run_cli("verify-min-kernel", "--lengths", "1,2,3,5,8", "--output", out) == 0
    verdict = loads_json(out.read_text(encoding="utf-8"))
    assert verdict["passed"] is True
    assert verdict["entries_exact"] is True


def test_outputs_are_byte_deterministic(tmp_path, square_dataset):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    run_cli("gram", "--input", square_dataset, "--output", a1)
    run_cli("gram", "--input", square_dataset, "--output", a2)
    assert a1.read_bytes() == a2.read_bytes()

    b1 = tmp_path / "b1.json"
    b2 = tmp_path / "b2.json"
    run_cli("counterexample", "--gamma", "1.0", "--output", b1)
    run_cli("counterexample", "--gamma", "1.0", "--output", b2)
    assert b1.read_bytes() == b2.read_bytes()

    c1 = tmp_path / "c1.csv"
    c2 = tmp_path / "c2.csv"
    run_cli("sweep", "--grid", "0.5,1", "--output", c1)
    run_cli("sweep", "--grid", "0.5,1", "--output", c2)
    assert c1.read_bytes() == c2.read_bytes()


def test_stdout_output(capsys):
    assert run_cli("verify-min-kernel", "--lengths", "2,3") == 0
    out = capsys.readouterr().out
    assert loads_json(out)["psd"] is True


@pytest.mark.parametrize(
    "args",
    [
        ("counterexample", "--gamma", "-1"),
        ("counterexample", "--gamma", "abc"),
        ("spectrum", "--input", "/nonexistent/file.json"),
        ("verify-min-kernel", "--lengths", "0,2"),
        ("verify-min-kernel", "--lengths", "x"),
        ("sweep", "--grid", ""),
        ("gram", "--input"),
        ("no-such-command",),
    ],
)
def test_input_errors_exit_1(args, tmp_path, capsys):
    assert run_cli(*args) == 1


def test_parse_error_on_bad_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,4.0\n", encoding="utf-8")  # not symmetric
    assert run_cli("spectrum", "--input", bad) == 1

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
    assert run_cli("spectrum", "--input", ragged) == 1

    notjson = tmp_path / "bad.json"
    notjson.write_text("{", encoding="utf-8")
    assert run_cli("spectrum", "--input", notjson) == 1

    # ragged rows, non-numeric entries and malformed labels: one error line, not a traceback
    for doc in (
        {"values": [[1.0, 2.0], [3.0]]},
        {"values": [["a"]]},
        {"values": [[{}]]},
        {"values": [[10**400]]},
        {"labels": 5, "values": [[1.0]]},
        {"labels": "ab", "values": [[1.0, 0.0], [0.0, 1.0]]},
        {"labels": [None], "values": [[1.0]]},
        {"labels": ["a", "b"], "values": [[1.0]]},
    ):
        notnumbers = tmp_path / "values.json"
        notnumbers.write_text(dumps_json(doc), encoding="utf-8")
        capsys.readouterr()
        for command in ("spectrum", "repair"):
            assert run_cli(command, "--input", notnumbers) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    # a file that is not UTF-8, for every command that reads one
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for command in ("spectrum", "repair", "gram"):
        assert run_cli(command, "--input", binary) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


TOL_COMMANDS = {
    "spectrum": ["--input", "eye.csv"],
    "counterexample": ["--gamma", "1.0"],
    "sweep": ["--grid", "1"],
    "verify-min-kernel": ["--lengths", "1,2"],
}


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_non_finite_tol_rejected(command, tol, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eye.csv").write_text(matrix_to_csv(np.eye(2)), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, *TOL_COMMANDS[command], "--tol", tol, "--output", "out") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "tolerance" in captured.err
    assert not (tmp_path / "out").exists()


def test_numeric_error_exit_2(tmp_path, monkeypatch):
    path = tmp_path / "eye.csv"
    path.write_text(matrix_to_csv(np.eye(2)), encoding="utf-8")

    def explode(values):
        raise NumericError("did not converge")

    monkeypatch.setattr("oakern.cli.jacobi_eigen", explode)
    assert run_cli("spectrum", "--input", path) == 2


def test_overflowing_gram_exits_2(tmp_path, capsys):
    # the self-pair's profit block is [[1e308, 1e308], [1e308, 1e308]]
    dataset = {
        "base_kernel": {"type": "table", "labels": ["a"], "values": [[1e308]]},
        "tuples": [{"elements": ["a", "a"]}],
    }
    path = tmp_path / "huge.json"
    path.write_text(dumps_json(dataset), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("gram", "--input", path, "--output", tmp_path / "gram.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1


def test_spectrum_of_huge_entries(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(dumps_json({"values": [[0.0, 1e200], [1e200, 0.0]]}), encoding="utf-8")
    out = tmp_path / "spec.json"
    assert run_cli("spectrum", "--input", path, "--output", out) == 0
    spectrum = loads_json(out.read_text(encoding="utf-8"))
    assert spectrum["eigenvalues"] == [1e200, -1e200]
    assert spectrum["psd"] is False

    # eigenvalue 2e308 is past float64's largest value
    path.write_text(dumps_json({"values": [[1e308, 1e308], [1e308, 1e308]]}), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("spectrum", "--input", path, "--output", out) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_parser_is_built_once(monkeypatch, tmp_path):
    calls = []
    build = cli.build_parser

    def counting():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        out = tmp_path / "verdict.json"
        assert run_cli("verify-min-kernel", "--lengths", "1,2", "--output", out) == 0
        assert run_cli("no-such-command") == 1
        assert run_cli("verify-min-kernel", "--lengths", "3", "--output", out) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_consistency_error_exit_3(monkeypatch):
    from oakern.errors import ConsistencyError

    def explode(gamma, tol):
        raise ConsistencyError("closed form mismatch")

    monkeypatch.setattr("oakern.cli.run_counterexample", explode)
    assert run_cli("counterexample", "--gamma", "1.0") == 3


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "oakern", "counterexample", "--gamma", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert loads_json(proc.stdout)["refuted"] is True
