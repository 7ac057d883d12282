"""Per-layer spans recorded from the benchmark's side.

Every public function listed in ``WRAPPED`` is replaced, in every loaded
``oakern`` module that refers to it, by a wrapper that times the call and
records a span on a stack. Module-level names are looked up at call time,
so inner calls such as ``gram_matrix -> solve_max_assignment`` or
``psd_project_clip -> jacobi_eigen`` are caught too. A layer's self time is
the time of its spans minus the time of the spans they enclose, so the
self times of all layers add up to the time spent inside ``cli.main``.

A listed function that a later version no longer has, or no longer calls,
reports zero calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "serialize",
    "matrices",
    "base_kernel",
    "assignment_kernel",
    "hungarian",
    "spectral",
    "counterexample",
)

# Functions per layer (module). Per-element helpers such as ``eval_base`` and
# ``format_float`` are left unwrapped: they run inside ``profit_matrix`` and
# ``dumps_json``, and a wrapper per element would swamp what it measures.
WRAPPED = {
    "cli": ("main",),
    "serialize": ("dumps_json", "loads_json", "matrix_to_csv", "matrix_from_csv"),
    "matrices": ("load_matrix", "matrix_to_text"),
    "base_kernel": ("parse_base_kernel",),
    "assignment_kernel": ("load_tuple_dataset", "gram_matrix", "assignment_kernel", "profit_matrix"),
    "hungarian": ("solve_max_assignment",),
    "spectral": (
        "jacobi_eigen",
        "psd_check",
        "psd_project_clip",
        "distances_from_gram",
        "quadratic_form",
        "spectrum_to_json_obj",
    ),
    "counterexample": ("run_counterexample", "verify_min_kernel_psd", "expected_gram_closed_form"),
}


# Per-layer metrics of a traced run, per pass unless named p50, with units.
UNITS = {
    "hungarian.solves": "count",
    "hungarian.solve_s": "s",
    "hungarian.solve_us_p50": "us",
    "hungarian.square_cells": "count",
    "assignment_kernel.profit_s": "s",
    "base_kernel.evals": "count",
    "assignment_kernel.pairs": "count",
    "assignment_kernel.gram_self_s": "s",
    "assignment_kernel.load_s": "s",
    "spectral.eig_calls": "count",
    "spectral.eig_s": "s",
    "spectral.repair_self_s": "s",
    "spectral.eig_residual": "ratio",
    "spectral.orth_error": "ratio",
    "spectral.distances_s": "s",
    "counterexample.row_s_p50": "s",
    "counterexample.min_kernel_s": "s",
    "matrices.load_s": "s",
    "matrices.to_text_s": "s",
    "serialize.dumps_s": "s",
    "serialize.bytes_out": "B",
    "cli.commands": "count",
    "cli.cpu_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.self_sum_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span statistics per wrapped function, kept in memory."""

    def __init__(self) -> None:
        self.layer_of: dict[str, str] = {}
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.eig_pairs: list[tuple] = []  # (input, spectrum), evaluated after the pass
        self.passes: list[dict] = []  # per traced pass: calls/total/self/counts
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def end_pass(self) -> None:
        """Close the figures of one traced pass."""
        self.passes.append({"calls": self.calls, "total": self.total,
                            "self": self.self_time, "counts": self.counts})
        self._reset()

    # -- span recording

    def _wrap(self, layer: str, key: str, fn, hook):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_time[key] += elapsed - frame[0]
                self.durations[key].append(elapsed)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self) -> dict:
        def profit(args, result):
            self.counts["base_kernel.evals"] += len(args[0]) * len(args[1])

        def solve(args, result):
            self.counts["hungarian.square_cells"] += max(np.shape(args[0])) ** 2

        def eig(args, result):
            self.eig_pairs.append((args[0], result))

        return {
            "assignment_kernel.profit_matrix": profit,
            "hungarian.solve_max_assignment": solve,
            "spectral.jacobi_eigen": eig,
        }

    def install(self) -> None:
        """Replace every reference to the wrapped functions in loaded oakern modules."""
        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items()) if n == "oakern" or n.startswith("oakern.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"oakern.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    continue
                key = f"{layer}.{name}"
                self.layer_of[key] = layer
                wrapper = self._wrap(layer, key, fn, hooks.get(key))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- accuracy of the eigensolver, evaluated outside the timed passes

    def take_eig_accuracy(self) -> tuple[float, float]:
        """Worst ||GV - V diag(w)||_F / ||G||_F and ||V'V - I||_F since the last call."""
        residual = orth = 0.0
        for matrix, spectrum in self.eig_pairs:
            G = np.asarray(getattr(matrix, "values", matrix), dtype=float)
            w = np.asarray(getattr(spectrum, "eigenvalues", ()), dtype=float)
            V = np.asarray(getattr(spectrum, "eigenvectors", ()), dtype=float)
            if V.shape != G.shape or w.shape != (G.shape[0],):
                continue
            norm = float(np.linalg.norm(G))
            if norm > 0.0:
                residual = max(residual, float(np.linalg.norm(G @ V - V * w)) / norm)
            orth = max(orth, float(np.linalg.norm(V.T @ V - np.eye(len(w)))))
        self.eig_pairs.clear()
        return residual, orth

    # -- summaries

    def median_of(self, part: str, key: str):
        # counts are equal in every pass, so the low median keeps them integers
        median = statistics.median if part in ("total", "self") else statistics.median_low
        return median([p[part].get(key, 0) for p in self.passes])

    def layer_self(self, layer: str) -> float:
        return statistics.median(
            sum(t for k, t in p["self"].items() if self.layer_of.get(k) == layer)
            for p in self.passes
        )

    def median_call_s(self, key: str) -> float:
        values = self.durations.get(key)
        return statistics.median(values) if values else 0.0

    def spans(self) -> dict:
        """Per-function figures per traced pass, written to the trace file."""
        return {
            key: {
                "layer": self.layer_of[key],
                "calls": self.median_of("calls", key),
                "total_s": self.median_of("total", key),
                "self_s": self.median_of("self", key),
            }
            for key in sorted(self.layer_of)
        }


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-pass layer figures: medians over the traced passes.

    ``extra`` carries what the worker measured itself: bytes written,
    CPU time, pass times and eigensolver accuracy.
    """
    def calls(key):
        return tracer.median_of("calls", key)

    def total(key):
        return tracer.median_of("total", key)

    def self_s(key):
        return tracer.median_of("self", key)

    def count(key):
        return tracer.median_of("counts", key)

    m = {
        "hungarian.solves": calls("hungarian.solve_max_assignment"),
        "hungarian.solve_s": total("hungarian.solve_max_assignment"),
        "hungarian.solve_us_p50": tracer.median_call_s("hungarian.solve_max_assignment") * 1e6,
        "hungarian.square_cells": count("hungarian.square_cells"),
        "assignment_kernel.profit_s": total("assignment_kernel.profit_matrix"),
        "base_kernel.evals": count("base_kernel.evals"),
        "assignment_kernel.pairs": calls("assignment_kernel.assignment_kernel"),
        "assignment_kernel.gram_self_s": self_s("assignment_kernel.gram_matrix"),
        "assignment_kernel.load_s": total("assignment_kernel.load_tuple_dataset"),
        "spectral.eig_calls": calls("spectral.jacobi_eigen"),
        "spectral.eig_s": total("spectral.jacobi_eigen"),
        "spectral.repair_self_s": self_s("spectral.psd_project_clip"),
        "spectral.eig_residual": extra["eig_residual"],
        "spectral.orth_error": extra["orth_error"],
        "spectral.distances_s": total("spectral.distances_from_gram"),
        "counterexample.row_s_p50": tracer.median_call_s("counterexample.run_counterexample"),
        "counterexample.min_kernel_s": total("counterexample.verify_min_kernel_psd"),
        "matrices.load_s": total("matrices.load_matrix"),
        "matrices.to_text_s": total("matrices.matrix_to_text"),
        "serialize.dumps_s": total("serialize.dumps_json"),
        "serialize.bytes_out": extra["bytes_out"],
        "cli.commands": calls("cli.main"),
        "cli.cpu_s": extra["cpu_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer)
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.untraced_pass_s"] = extra["untraced_pass_s"]
    m["trace.traced_pass_s"] = extra["traced_pass_s"]
    m["trace.overhead_s"] = extra["traced_pass_s"] - extra["untraced_pass_s"]
    return m
