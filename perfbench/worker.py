"""One workload's closed loop, run in its own process.

Usage: python3 perfbench/worker.py <plan.json>

The plan names the source tree, the work directory, the pass (a list of
CLI argv lists), the run length and whether to trace. The worker imports
``oakern.cli`` and none of the benchmark's reference code (scipy stays out,
so peak memory is oakern's), runs one warm-up pass, then runs whole passes
back to back until their summed time reaches the run length. Each command
is called in-process through ``oakern.cli.main``.

On a shared virtual machine such as the reference one (README), the CPU
speed switches between phases about 1.7 times apart, so each
untraced pass is timed twice: by the wall clock, and scaled to a fixed
reference speed measured on the same CPU while the pass runs (``speed.py``).
The samples of each figure are spread over the whole run rather than taken
in one burst: after every untraced pass, one fresh interpreter times
``import oakern.cli`` (the set-up probe), scaled to the reference speed
by the run's median loop time, and with tracing on, untraced and traced
passes alternate. Traced runs take no speed samples.

The result goes to ``result.json`` in the work directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from spans import Tracer, per_layer_metrics

MIN_SETUP_PROBES = 7  # one import alone varies by ~15%
PROBE = "import time; t = time.perf_counter(); import oakern.cli; print(time.perf_counter() - t)"
# The probe imports with one numeric thread. With two, OpenBLAS starts a
# thread on the other CPU as numpy loads and the import waits for it: 0 to
# 70 ms on the reference virtual machine, in states that last for minutes.
PROBE_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _digests(outputs: list[str]) -> list[str]:
    return [hashlib.sha256(Path(name).read_bytes()).hexdigest() if Path(name).exists() else ""
            for name in outputs]


def probe_setup(src: str) -> float:
    """Seconds to ``import oakern.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", PROBE],
                          env=dict(os.environ, PYTHONPATH=src, **PROBE_THREADS),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    os.chdir(plan["workdir"])

    import oakern.cli as cli

    commands = plan["commands"]
    outputs = plan["outputs"]

    def run_pass() -> list[int]:
        return [cli.main(argv) for argv in commands]

    exit_codes = run_pass()  # warm-up: caches, lazy imports, page faults
    reference = _digests(outputs)
    bytes_out = sum(Path(name).stat().st_size for name in outputs if Path(name).exists())

    tracer = Tracer() if plan["trace"] else None
    sampler = speed.Sampler() if tracer is None else None
    wall = {False: [], True: []}
    scaled = []
    cpu = []
    setup = []
    eig_residual = orth_error = 0.0
    stable = True
    while True:
        traced = tracer is not None and len(wall[False]) > len(wall[True])
        if traced:
            tracer.install()
        if sampler is not None:
            first_loop = len(sampler.loops)
            sampler.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        codes = run_pass()
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall[traced].append(t1 - t0)
        if sampler is not None:
            sampler.stop()
            scaled.append(speed.scaled(t1 - t0, sampler.loops[first_loop:]))
        if traced:
            tracer.uninstall()
            tracer.end_pass()
            residual, orth = tracer.take_eig_accuracy()
            eig_residual = max(eig_residual, residual)
            orth_error = max(orth_error, orth)
        else:
            cpu.append(c1 - c0)
            if tracer is None:
                setup.append(probe_setup(plan["src"]))
        if codes != exit_codes or _digests(outputs) != reference:
            stable = False
        if sum(wall[False]) + sum(wall[True]) >= plan["seconds"] and (tracer is None or wall[True]):
            break
    while tracer is None and len(setup) < MIN_SETUP_PROBES:  # short runs
        setup.append(probe_setup(plan["src"]))
    # a probe's interpreter lives too briefly to time the loop in (speed.py)
    setup_scale = speed.REF_LOOP_S / statistics.median(sampler.loops) if sampler is not None else 1.0

    result = {
        "exit_codes": exit_codes,
        "stable": stable,
        "pass_s": scaled,
        "pass_wall_s": wall[False],
        "traced_pass_s": wall[True],
        "speed_loops": sampler.loops if sampler is not None else [],
        "setup_s": [t * setup_scale for t in setup],
        "setup_wall_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(
            tracer,
            {
                "bytes_out": bytes_out,
                "cpu_s": statistics.median(cpu),
                "eig_residual": eig_residual,
                "orth_error": orth_error,
                "untraced_pass_s": statistics.median(wall[False]),
                "traced_pass_s": statistics.median(wall[True]),
            },
        )
        result["spans"] = tracer.spans()
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
