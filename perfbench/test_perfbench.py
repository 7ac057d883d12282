"""Self-tests of the benchmark: each workload at tiny size, and each check failing.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oakern.cli as cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import CHECKS, MAKERS, OUT_OF_WINDOW_GAMMAS, square_closed_form  # noqa: E402


@pytest.fixture
def workdir(monkeypatch):
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    monkeypatch.chdir(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_small(name: str, workdir: Path, seed: int = 5):
    wl = MAKERS[name](workdir, seed, small=True)
    codes = [cli.main(argv) for argv in wl.commands]
    return wl, codes


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def problems(name, workdir, wl, codes):
    return CHECKS[name](workdir, wl, codes)


# ------------------------------------------------------------------ gram-rbf


def test_gram_rbf_passes_and_rejects_faults(workdir):
    wl, codes = run_small("gram-rbf", workdir)
    assert codes == [0]
    assert problems("gram-rbf", workdir, wl, codes) == []
    assert problems("gram-rbf", workdir, wl, [1])

    out = workdir / "gram.json"
    good = out.read_text()

    def perturb(obj):
        obj["values"][0][1] += 1e-9
        obj["values"][1][0] += 1e-9

    edit_json(out, perturb)
    assert any("scipy reference" in p for p in problems("gram-rbf", workdir, wl, codes))

    out.write_text(good)
    edit_json(out, lambda obj: obj["values"][2].__setitem__(0, obj["values"][2][0] * (1 + 1e-15)))
    assert any("symmetric" in p for p in problems("gram-rbf", workdir, wl, codes))

    out.write_text(good)
    edit_json(out, lambda obj: obj["values"][3].__setitem__(3, obj["values"][3][3] + 1e-13))
    assert any("diagonal" in p for p in problems("gram-rbf", workdir, wl, codes))


# ------------------------------------------------------------------ audit-repair


def test_audit_repair_passes_and_rejects_faults(workdir):
    wl, codes = run_small("audit-repair", workdir)
    assert codes == [0, 0, 0, 0]
    assert problems("audit-repair", workdir, wl, codes) == []
    assert problems("audit-repair", workdir, wl, [0, 0, 2, 0])

    spec_g = workdir / "spectrum_G.json"
    good = spec_g.read_text()
    edit_json(spec_g, lambda obj: obj.__setitem__("psd", True))
    assert any("verdict" in p for p in problems("audit-repair", workdir, wl, codes))
    spec_g.write_text(good)
    edit_json(spec_g, lambda obj: obj["eigenvalues"].__setitem__(0, obj["eigenvalues"][0] + 1e-6))
    assert any("eigvalsh" in p for p in problems("audit-repair", workdir, wl, codes))
    spec_g.write_text(good)

    spec_r = workdir / "spectrum_R.json"
    good = spec_r.read_text()
    edit_json(spec_r, lambda obj: obj.__setitem__("psd", False))
    assert any("verdict" in p for p in problems("audit-repair", workdir, wl, codes))
    spec_r.write_text(good)

    # an unrepaired G in place of R: not PSD, wrong distance, R2 differs
    r = workdir / "R.json"
    good = r.read_text()
    shutil.copy(workdir / "G.json", r)
    found = problems("audit-repair", workdir, wl, codes)
    assert any("not PSD" in p for p in found)
    assert any("||G-R||_F" in p for p in found)
    assert any("already-PSD" in p for p in found)

    # a PSD matrix that is not the nearest one
    def shrink(obj):
        obj["values"] = (np.array(obj["values"]) * (1 - 1e-6)).tolist()

    r.write_text(good)
    edit_json(r, shrink)
    shutil.copy(r, workdir / "R2.json")
    found = problems("audit-repair", workdir, wl, codes)
    assert found and all("||G-R||_F" in p or "eigvalsh" in p for p in found)


# ------------------------------------------------------------------ certify


def test_certify_passes_and_fails_out_of_window(workdir):
    wl, codes = run_small("certify", workdir)
    n_gamma = len(wl.expect["gammas"])
    # only gammas outside the float64 window may fail, and only as "not refuted"
    failed = [k for k in range(n_gamma) if codes[k] != 0]
    assert failed
    assert all(wl.expect["gammas"][k] in OUT_OF_WINDOW_GAMMAS and codes[k] == 3 for k in failed)
    assert codes[n_gamma:] == [0, 0]
    assert problems("certify", workdir, wl, codes) == []


def test_certify_rejects_faults(workdir):
    wl, codes = run_small("certify", workdir)
    cx0 = workdir / "cx0.json"
    good = cx0.read_text()
    edit_json(cx0, lambda obj: obj.__setitem__("refuted", False))
    assert any("refuted" in p for p in problems("certify", workdir, wl, codes))
    cx0.write_text(good)
    edit_json(cx0, lambda obj: obj.__setitem__("witness_value", obj["witness_value"] + 1e-10))
    assert any("witness" in p for p in problems("certify", workdir, wl, codes))
    cx0.write_text(good)
    edit_json(cx0, lambda obj: obj["gram_computed"]["values"][0].__setitem__(
        1, obj["gram_computed"]["values"][0][1] + 1e-11))
    assert any("closed form" in p for p in problems("certify", workdir, wl, codes))
    cx0.write_text(good)

    verdict = workdir / "min_kernel_verdict.json"
    good = verdict.read_text()
    edit_json(verdict, lambda obj: obj.__setitem__("psd", False))
    assert any("verify-min-kernel" in p for p in problems("certify", workdir, wl, codes))
    verdict.write_text(good)
    edit_json(verdict, lambda obj: obj.__setitem__("min_eigenvalue", obj["min_eigenvalue"] + 1e-6))
    assert any("min eigenvalue" in p for p in problems("certify", workdir, wl, codes))
    verdict.write_text(good)

    gram = workdir / "min_kernel_gram.json"

    def bump(obj):
        obj["values"][0][1] += 1.0
        obj["values"][1][0] += 1.0

    edit_json(gram, bump)
    assert any("min(l_i, l_j)" in p for p in problems("certify", workdir, wl, codes))

    bad = list(codes)
    bad[-2] = 3
    assert any("exited" in p for p in problems("certify", workdir, wl, bad))


def test_square_closed_form_matches_the_paper():
    gamma = 0.7
    a = np.exp(-gamma)
    gram = square_closed_form(gamma)
    assert np.array_equal(gram, gram.T)
    witness = np.array([1.0, -2.0, 1.0, 1.0, -2.0, 1.0])
    assert abs(witness @ gram @ witness - 8 * a * (a - 1)) < 1e-12
    assert np.linalg.eigvalsh(gram)[0] < 0


# ------------------------------------------------------------------ tracing


def test_tracer_accounts_for_the_pass(workdir):
    wl = MAKERS["certify"](workdir, 3, small=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in wl.commands:
            cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.end_pass()
    assert cli.main.__module__ == "oakern.cli" and not hasattr(cli.main, "__wrapped__")
    m = spans.per_layer_metrics(tracer, {"bytes_out": 1, "cpu_s": 1.0, "eig_residual": 0.0,
                                         "orth_error": 0.0, "untraced_pass_s": 1.0,
                                         "traced_pass_s": 1.0})
    assert set(m) == set(spans.UNITS)
    assert m["cli.commands"] == len(wl.commands)
    assert m["hungarian.solves"] == m["assignment_kernel.pairs"] > 0
    # one per certificate and one in verify-min-kernel; the min-kernel gram has none
    assert m["spectral.eig_calls"] == len(wl.commands) - 1
    root = tracer.median_of("total", "cli.main")
    assert m["trace.self_sum_s"] == pytest.approx(root, rel=1e-9)
    residual, orth = tracer.take_eig_accuracy()
    assert 0 < residual < 1e-9 and 0 < orth < 1e-9


def test_tracer_skips_missing_names(monkeypatch, workdir):
    monkeypatch.setitem(spans.WRAPPED, "hungarian", ("solve_max_assignment", "gone_in_a_later_version"))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.end_pass()
    assert "hungarian.gone_in_a_later_version" not in tracer.layer_of
    assert tracer.median_of("calls", "hungarian.solve_max_assignment") == 0


# ------------------------------------------------------------------ speed scaling


def test_scaled_removes_the_loops_and_rescales():
    assert speed.scaled(2.0, [0.002, 0.004]) == pytest.approx((2.0 - 0.006) * speed.REF_LOOP_S / 0.003)


def test_sampler_times_the_loop_during_a_pass(workdir):
    wl = MAKERS["certify"](workdir, 3, small=True)
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 4 * speed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            for argv in wl.commands:
                cli.main(argv)
    finally:
        sampler.stop()
    assert len(sampler.loops) >= 2 and all(0 < t < 1 for t in sampler.loops)
    count = len(sampler.loops)
    speed.reference_loop()
    assert len(sampler.loops) == count  # stopped: no more samples


# ------------------------------------------------------------------ the command


def test_benchmark_json_is_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.full_spec()
    spec = run.full_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_to_run_without_a_source_tree():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""
