#!/usr/bin/env python3
"""Benchmark of the oakern CLI pipeline, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gram-rbf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                   # all workloads, seed 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Each workload is generated from ``--seed`` into a work directory under
``.perfbench_work/`` and run by ``worker.py`` in its own process: a closed
loop of whole passes, each pass a fixed sequence of ``oakern`` CLI commands
(one operation each). The outputs of the last pass are then checked against
numpy/scipy references in ``workloads.py``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). A traced run also writes its span totals to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

# Numeric thread pools are capped at the cores this process may use; set
# before numpy loads so the benchmark, the worker and the import probes agree.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

from spans import UNITS  # noqa: E402  (after the thread caps)
from workloads import CHECKS, MAKERS  # noqa: E402

WORKER_TIMEOUT_S = 170
TAIL_MIN_PASSES = 40

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "workloads": [
        {"name": "gram-rbf",
         "why": "Gram matrix of 100 RBF tuples with lengths 3-12: profit matrices and "
                "rectangular assignment solves, spectral idle"},
        {"name": "audit-repair",
         "why": "spectrum and clip repair of a 72x72 non-PSD OA Gram matrix, then the "
                "no-op repair of the PSD result: Jacobi and matrix parsing, assignment idle"},
        {"name": "certify",
         "why": "the paper's certificate over 100 gammas (4 fixed ones outside float64 "
                "reach fail) plus the min-kernel case: per-call overhead and tied assignments"},
    ],
    "end_to_end": [
        # times are scaled to a reference speed (speed.py), but what is left of
        # the machine's drift still moves run medians by up to 8%, so time
        # bounds are the widest allowed; memory barely moves
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def full_spec() -> dict:
    spec = dict(SPEC)
    spec["per_layer"] = [{"name": n, "unit": u, "better": "lower"} for n, u in UNITS.items()]
    return spec


def tail_note(times: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, from 40 samples on."""
    n = len(times)
    if n < TAIL_MIN_PASSES:
        return f"median of {n} passes"
    pct = 100 * (n - 10) // n
    value = sorted(times)[max(0, -(-pct * n // 100) - 1)]
    return f"median of {n} passes, p{pct} {value:.4f} s"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        wl = MAKERS[name](workdir, seed)
        plan = {"src": str(SRC), "workdir": str(workdir), "commands": wl.commands,
                "outputs": wl.outputs, "seconds": seconds, "trace": trace}
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        with open(workdir / "worker.log", "w", encoding="utf-8") as log:
            done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write((workdir / "worker.log").read_text(encoding="utf-8")[-4000:])
            raise RuntimeError(f"{name}: worker exited {done.returncode}")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        problems = CHECKS[name](workdir, wl, result["exit_codes"])
        if not result["stable"]:
            problems.append("exit codes or output bytes changed between passes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(result["pass_wall_s"]) + len(result["traced_pass_s"])
    failed_per_pass = sum(1 for code in result["exit_codes"] if code != 0)
    if trace:
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u in UNITS.items()}
        OUT_ROOT.mkdir(exist_ok=True)
        (OUT_ROOT / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"per_layer": result["per_layer"], "spans": result["spans"]}, indent=1),
            encoding="utf-8")
    else:
        metrics = {
            "pass_s": {"value": statistics.median(result["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
        }
    summary = ", ".join(f"{n} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()
                        if not trace or n.startswith("trace."))
    if not trace:
        summary += (f" (wall pass median {statistics.median(result['pass_wall_s']):.4g} s, "
                    f"wall setup median {statistics.median(result['setup_wall_s']):.4g} s, "
                    f"reference loop median {1e3 * statistics.median(result['speed_loops']):.4g} ms)")
    print(f"{name}: {summary} ({tail_note(result['pass_s'] or result['pass_wall_s'])}); "
          f"attempted {passes * len(wl.commands)}, failed {passes * failed_per_pass}")
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": passes * len(wl.commands),
        "failed": passes * failed_per_pass,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker, and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(full_spec(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if not (SRC / "oakern" / "cli.py").is_file():
        print(f"perfbench: no oakern source tree at {SRC}", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in chosen}
    if len(results) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
