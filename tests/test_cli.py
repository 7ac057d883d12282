"""Command dispatch, exit codes, file formats and determinism."""

import importlib.util
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oakern import cli
from oakern.assignment_kernel import MAX_GRAM_CELLS
from oakern.counterexample import (
    SQUARE_TUPLES,
    gamma_sweep,
    run_counterexample,
    sweep_to_csv,
    verify_min_kernel_psd,
)
from oakern.errors import NumericError
from oakern.serialize import dumps_json, loads_json, matrix_to_csv
from oakern.spectral import Spectrum, jacobi_eigen, psd_check


@pytest.fixture
def square_dataset(tmp_path):
    path = tmp_path / "square.json"
    tuples = [
        {"label": t.label, "elements": [list(e.coords) for e in t.elements]}
        for t in SQUARE_TUPLES
    ]
    dataset = {"base_kernel": {"type": "rbf", "gamma": 1.0}, "tuples": tuples}
    path.write_text(dumps_json(dataset), encoding="utf-8")
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
    assert spectrum["eigenvalues"] == [float(w) for w in report["spectrum"]["eigenvalues"]]
    assert spectrum["min_eigenvalue"] == report["spectrum"]["min_eigenvalue"]


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


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_reproduction_commands() -> list[list[str]]:
    block = readme_block("Reproduce the study", "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("oakern ")]


def test_readme_reproduction_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_reproduction_commands()
    assert len(commands) == 3
    for argv in commands:
        assert cli.main(argv) == 0, argv
    for name in ("report.json", "sweep.csv", "min_kernel.json"):
        assert (tmp_path / name).is_file(), name


def test_readme_library_example_runs(capsys):
    exec(readme_block("Library example", "python"), {})
    printed = capsys.readouterr().out.strip()
    eigenvalues = [float(w) for w in printed.strip("[]").split()]
    # the tuples AB and AC share one corner: Gram [[2, 1+a], [1+a, 2]] with a = exp(-1);
    # numpy prints 8 decimals
    a = math.exp(-1.0)
    assert eigenvalues == pytest.approx([3.0 + a, 1.0 - a], abs=1e-8)


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


def rbf_dataset(tuples, gamma) -> str:
    rows = [{"label": f"t{i}", "elements": t.tolist()} for i, t in enumerate(tuples)]
    return dumps_json({"base_kernel": {"type": "rbf", "gamma": gamma}, "tuples": rows})


@pytest.mark.parametrize("k", [-3, 5])
def test_gram_file_unchanged_when_points_and_gamma_rescale(tmp_path, k):
    # gamma |x - y|^2 is unchanged, exactly, when x and y scale by 2^k and gamma by 2^-2k
    rng = np.random.default_rng(3)
    square = [np.array([e.coords for e in t.elements]) for t in SQUARE_TUPLES]
    cases = [(square, 1.0), ([rng.standard_normal((n, 3)) for n in (1, 4, 2, 5, 3)], 0.5)]
    for tuples, gamma in cases:
        files = []
        for scale in (0, k):
            dataset, out = tmp_path / f"rbf{scale}.json", tmp_path / f"gram{scale}.json"
            scaled = [np.ldexp(t, scale) for t in tuples]
            dataset.write_text(rbf_dataset(scaled, math.ldexp(gamma, -2 * scale)), encoding="utf-8")
            assert run_cli("gram", "--input", dataset, "--output", out) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]


@pytest.mark.parametrize("k", [-600, 40])
def test_spectrum_file_scales_with_the_matrix_file(tmp_path, k):
    # eigenvalues scale by exactly 2^k; the verdict and its margin are scale-free to the byte
    square = run_counterexample(1.0)["gram_computed"]["values"]  # not PSD
    B = np.random.default_rng(12).standard_normal((12, 8))
    S = B @ B.T
    rank_8 = (S + S.T) / 2.0  # PSD, with four eigenvalues at rounding level
    for G in (square, rank_8):
        spectra = []
        for scale in (0, k):
            path, out = tmp_path / f"m{scale}.json", tmp_path / f"spec{scale}.json"
            path.write_text(dumps_json({"values": np.ldexp(G, scale).tolist()}), encoding="utf-8")
            assert run_cli("spectrum", "--input", path, "--output", out) == 0
            spectra.append(loads_json(out.read_text(encoding="utf-8")))
        base, scaled = spectra
        assert scaled["eigenvalues"] == [math.ldexp(w, k) for w in base["eigenvalues"]]
        assert scaled["min_eigenvalue"] == math.ldexp(base["min_eigenvalue"], k)
        for key in ("psd", "margin"):
            assert dumps_json(scaled[key]) == dumps_json(base[key])


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
        ("counterexample", "--gamma", "1_0"),
        ("counterexample", "--gamma", "+1"),
        ("sweep", "--grid", "0.5,1_0"),
        ("verify-min-kernel", "--lengths", "\u0663,1_0"),
        ("verify-min-kernel", "--lengths", "1.5"),
        ("verify-min-kernel", "--lengths", "1e1"),
        ("verify-min-kernel", "--lengths", "2,2.0"),
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
        {"values": [["1.5"]]},
        {"values": [[True, 0], [0, True]]},
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

    # cells that are not JSON number literals, and JSON nested or sized past what the parser takes
    for name, text in (
        ("underscore.csv", "1,1_0\n1_0,1\n"),
        ("bool.csv", "true\n"),
        ("deep.json", "[" * 100000),
        ("digits.json", '{"values": [[' + "1" * 5000 + "]]}"),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for command in ("spectrum", "repair"):
            assert run_cli(command, "--input", path) == 1
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


def test_repair_near_the_float64_limit(tmp_path, capsys):
    # the nearest PSD matrix, [[1.2071e308, 5e307], [5e307, 2.0711e307]], is finite
    path = tmp_path / "big.csv"
    path.write_text("1e308,1e308\n1e308,-1e308\n", encoding="utf-8")
    fixed = tmp_path / "fixed.json"
    capsys.readouterr()
    assert run_cli("repair", "--input", path, "--output", fixed) == 0
    assert capsys.readouterr().err == ""
    values = loads_json(fixed.read_text(encoding="utf-8"))["values"]
    assert psd_check(jacobi_eigen(values)).psd


def test_repair_past_the_float64_limit_exits_2(tmp_path, monkeypatch, capsys):
    # an eigenvector one ulp longer than 1 rounds the rebuilt corner up to 2^1024
    top = np.finfo(float).max
    spectrum = Spectrum(np.array([top, -top / 2]), np.array([[1.0 + 2.0**-52, 0.0], [0.0, 1.0]]))
    monkeypatch.setattr("oakern.spectral.jacobi_eigen", lambda values: spectrum)
    path = tmp_path / "top.csv"
    path.write_text(matrix_to_csv(np.diag([top, -top / 2])), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("repair", "--input", path, "--output", tmp_path / "fixed.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1


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


def test_commands_do_not_import_scipy(tmp_path, square_dataset):
    # scipy is a test oracle only; in a command it would cost import time and memory
    gram_path = tmp_path / "gram.json"
    commands = [
        ["counterexample", "--gamma", "1.0", "--output", str(tmp_path / "certificate.json")],
        ["gram", "--input", str(square_dataset), "--output", str(gram_path)],
        ["spectrum", "--input", str(gram_path), "--output", str(tmp_path / "spectrum.json")],
    ]
    code = (
        "import sys\n"
        "import oakern.cli\n"
        f"codes = [oakern.cli.main(args) for args in {commands!r}]\n"
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout == "[0, 0, 0] []\n", proc.stderr


def test_input_too_large_for_memory_is_one_error_line():
    # a 200000 x 200000 profit block needs about 298 GiB; the address-space cap
    # makes the allocation fail at once instead of straining the machine
    def cap_address_space():
        limit = 3 << 29  # 1.5 GiB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "oakern", "verify-min-kernel", "--lengths", "200000"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_memory_error_is_one_error_line(monkeypatch, tmp_path, capsys):
    def exhaust(tuples, base):
        raise MemoryError

    monkeypatch.setattr("oakern.cli.gram_matrix", exhaust)
    path = tmp_path / "one.json"
    dataset = {"base_kernel": {"type": "constant_one"}, "tuples": [{"elements": ["1"]}]}
    path.write_text(dumps_json(dataset), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("gram", "--input", path) == 1
    assert capsys.readouterr().err == "error: input too large to fit in memory\n"


@pytest.mark.parametrize("length", ["100000000000000000000", "9223372036854775808"])
def test_lengths_past_the_size_bound_are_one_error_line(length, tmp_path, capsys):
    # refused before any tuple is built, so this runs in-process without an address-space cap
    capsys.readouterr()
    assert run_cli("verify-min-kernel", "--lengths", length, "--output", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input too large") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", ["one long tuple", "many tuples"])
def test_gram_past_the_size_bound_is_one_error_line(shape, tmp_path, capsys):
    side = math.isqrt(MAX_GRAM_CELLS) + 1  # side * side cells: a profit block, or the Gram matrix
    if shape == "one long tuple":
        tuples = [{"elements": ["1"] * side}]
    else:
        tuples = [{"elements": ["1"]}] * side
    path = tmp_path / "big.json"
    dataset = {"base_kernel": {"type": "constant_one"}, "tuples": tuples}
    path.write_text(dumps_json(dataset), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("gram", "--input", path, "--output", tmp_path / "gram.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input too large") and err.count("\n") == 1
    assert not (tmp_path / "gram.json").exists()


def test_gram_file_permutes_with_the_tuples(tmp_path):
    rng = np.random.default_rng(8)
    rows = [
        {"label": f"t{i}", "elements": rng.standard_normal((n, 2)).tolist()}
        for i, n in enumerate([3, 1, 4, 2, 4, 3, 5, 2, 3])
    ]
    order = rng.permutation(len(rows)).tolist()
    grams = []
    for name, tuples in (("base", rows), ("permuted", [rows[k] for k in order])):
        dataset, out = tmp_path / f"{name}.json", tmp_path / f"{name}_gram.json"
        doc = {"base_kernel": {"type": "rbf", "gamma": 0.5}, "tuples": tuples}
        dataset.write_text(dumps_json(doc), encoding="utf-8")
        assert run_cli("gram", "--input", dataset, "--output", out) == 0
        grams.append(loads_json(out.read_text(encoding="utf-8")))
    base, permuted = grams
    assert permuted["labels"] == [f"t{k}" for k in order]
    want = np.array(base["values"])[np.ix_(order, order)]
    got = np.array(permuted["values"])
    # an equal-length pair may be solved in the other orientation, so allow rounding
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_results_are_the_documents_the_commands_write(tmp_path):
    runs = [
        (("counterexample", "--gamma", "0.5"), run_counterexample(0.5)),
        (("verify-min-kernel", "--lengths", "3,1,2"), verify_min_kernel_psd([3, 1, 2])),
    ]
    for argv, result in runs:
        out = tmp_path / "out.json"
        assert run_cli(*argv, "--output", out) == 0
        assert out.read_text(encoding="utf-8") == dumps_json(result)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--grid", "0.5,2", "--output", out) == 0
    assert out.read_text(encoding="utf-8") == sweep_to_csv(gamma_sweep([0.5, 2.0]))


def test_benchmark_hooks_name_existing_functions():
    # perfbench times each layer by wrapping these names; a missing one reads as 0, silently
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.WRAPPED.items():
        module = importlib.import_module(f"oakern.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"oakern.{layer}.{name}"
