"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np

from oakern.counterexample import (
    NULL_DIRECTIONS,
    PAIR_ORDER,
    WITNESS,
    expected_gram_closed_form,
    gamma_sweep,
    run_counterexample,
    verify_min_kernel_psd,
)
from oakern.hungarian import brute_force_assignment, solve_max_assignment
from oakern.matrices import GramMatrix, default_labels, matrix_from_json_obj
from oakern.spectral import jacobi_eigen, psd_check, psd_project_clip, quadratic_form

GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
GAP_G1 = 0.26962679482308734  # frozen 40-digit evaluation of sqrt(4-4a^2)-sqrt(4-4a)


def _verdict(num, name, checks):
    ok = all(passed for passed, _ in checks)
    print(f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    failed = [desc for passed, desc in checks if not passed]
    assert ok, f"criterion {num} failed: {failed}"


def test_criterion_1_closed_form_gram_reproduction():
    started = time.perf_counter()
    report = run_counterexample(1.0)
    elapsed = time.perf_counter() - started

    a = math.exp(-1.0)
    values = np.array(report["gram_computed"]["values"])
    flat = np.sort(values[np.triu_indices(6)])
    expected = np.sort(
        np.array([2.0] * 6 + [1.0 + a] * 8 + [1.0 + a * a] * 4 + [2.0 * a] * 3)
    )
    checks = [
        (report["max_abs_gram_diff"] <= 1e-12, "max |computed - closed form| <= 1e-12"),
        (np.max(np.abs(flat - expected)) <= 1e-12, "entry value classes 6/8/4/3"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
    ]
    _verdict(1, "closed-form Gram reproduction", checks)


def test_criterion_2_non_psd_refutation():
    report = run_counterexample(1.0)
    rows = gamma_sweep(GRID)
    checks = [
        (report["spectrum"]["min_eigenvalue"] < -0.15, "lambda_min < -0.15 at gamma=1"),
        (
            not psd_check(jacobi_eigen(report["gram_computed"]["values"]), 1e-9).psd,
            "psd_check fails at tol 1e-9",
        ),
        (all(r["refuted"] for r in rows), "refuted on every sweep row"),
        (len(rows) == len(GRID), "one row per grid gamma"),
    ]
    _verdict(2, "non-PSD refutation", checks)


def test_criterion_3_witness_certificate():
    checks = []
    for gamma in GRID:
        a = math.exp(-gamma)
        gram = run_counterexample(gamma)["gram_computed"]
        witness_value = quadratic_form(gram["values"], WITNESS)
        checks.append(
            (
                abs(witness_value - (8 * a * a - 8 * a)) <= 1e-12,
                f"witness form = 8a^2-8a at gamma={gamma}",
            )
        )
        for v in NULL_DIRECTIONS:
            checks.append(
                (
                    abs(quadratic_form(gram["values"], v)) <= 1e-12,
                    f"null direction vanishes at gamma={gamma}",
                )
            )
    a1 = math.exp(-1.0)
    checks.append(
        (
            abs((8 * a1 * a1 - 8 * a1) - (-1.8603532634786370)) <= 1e-12,
            "gamma=1 witness value is about -1.8603533",
        )
    )
    _verdict(3, "witness certificate", checks)


def test_criterion_4_distance_geometry():
    a = math.exp(-1.0)
    report = run_counterexample(1.0)
    d2 = {
        ("AB", "AC"): 2 - 2 * a,
        ("AB", "CD"): 4 - 4 * a,
        ("AB", "BC"): 2 - 2 * a * a,
    }
    from oakern.spectral import distances_from_gram

    squared = distances_from_gram(matrix_from_json_obj(report["gram_computed"]))
    at = PAIR_ORDER.index
    checks = [
        (abs(squared[at(x), at(y)] - want) <= 1e-12, f"d({x},{y})^2 closed form")
        for (x, y), want in d2.items()
    ]
    checks += [
        (
            all(abs(r) <= 1e-12 for r in report["pythagorean_residuals"]),
            "half-square residuals <= 1e-12",
        ),
        (abs(report["contradiction_gap"] - GAP_G1) <= 1e-6, "gap about 0.2696 at gamma=1"),
    ]
    for row in gamma_sweep(GRID):
        checks.append((row["contradiction_gap"] > 1e-6, f"gap > 1e-6 at gamma={row['gamma']}"))
    _verdict(4, "distance geometry", checks)


def test_criterion_5_min_kernel_positive_case():
    rng = np.random.default_rng(51)
    checks = []
    for trial in range(20):
        size = int(rng.integers(1, 13))
        lengths = [int(x) for x in rng.integers(1, 51, size=size)]
        verdict = verify_min_kernel_psd(lengths)
        checks.append((verdict["entries_exact"], f"entries = min exactly (trial {trial})"))
        checks.append(
            (
                verdict["min_eigenvalue"] >= -1e-9,
                f"lambda_min >= -1e-9 (trial {trial})",
            )
        )
    _verdict(5, "min-kernel positive case", checks)


def test_criterion_6_assignment_solver_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(62)
    trials = 0
    value_ok = invariance_ok = shift_ok = True
    while trials < 200:
        m = int(rng.integers(1, 8))
        n = int(rng.integers(m, min(m + 3, 10)))
        if rng.random() < 0.5:
            m, n = n, m
        P = rng.random((m, n))
        solved = solve_max_assignment(P).value
        oracle = brute_force_assignment(P).value
        value_ok &= abs(solved - oracle) <= 1e-12

        rows = rng.permutation(m)
        cols = rng.permutation(n)
        permuted = solve_max_assignment(P[np.ix_(rows, cols)]).value
        invariance_ok &= abs(permuted - solved) <= 1e-12

        c = float(rng.random())
        shifted = solve_max_assignment(P + c).value
        shift_ok &= abs(shifted - (solved + c * min(m, n))) <= 1e-12
        trials += 1
    elapsed = time.perf_counter() - started
    checks = [
        (trials >= 200, "at least 200 random rectangular matrices"),
        (value_ok, "Hungarian value = brute-force value within 1e-12"),
        (invariance_ok, "row/column permutation invariance within 1e-12"),
        (shift_ok, "constant shift adds c*min(m,n) within 1e-12"),
        (elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s"),
    ]
    _verdict(6, "assignment solver correctness", checks)


def test_criterion_7_spectral_toolkit():
    checks = []
    rng = np.random.default_rng(73)
    for n in (2, 5, 11, 24, 37, 50):
        M = rng.standard_normal((n, n)) * 2.0
        G = (M + M.T) / 2.0
        spectrum = jacobi_eigen(G)
        w, V = spectrum.eigenvalues, spectrum.eigenvectors
        fro = np.linalg.norm(G)
        checks.append(
            (
                np.linalg.norm((V * w) @ V.T - G) <= 1e-9 * max(1.0, fro),
                f"reconstruction at n={n}",
            )
        )
        checks.append(
            (
                abs(w.sum() - np.trace(G)) <= 1e-9 * max(1.0, abs(np.trace(G))),
                f"trace at n={n}",
            )
        )
        checks.append(
            (np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9, f"orthonormality at n={n}")
        )

        gram = GramMatrix(default_labels(n), G)
        clipped = psd_project_clip(gram)
        twice = psd_project_clip(clipped)
        checks.append(
            (psd_check(jacobi_eigen(clipped.values)).psd, f"clip output PSD at n={n}")
        )
        checks.append(
            (
                np.max(np.abs(twice.values - clipped.values)) <= 1e-12,
                f"clip idempotent at n={n}",
            )
        )

    gram = expected_gram_closed_form(1.0)
    clipped = psd_project_clip(gram)
    negatives = np.minimum(np.linalg.eigvalsh(gram.values), 0.0)
    expected_dist = math.sqrt(float(np.sum(negatives**2)))
    actual_dist = float(np.linalg.norm(clipped.values - gram.values))
    checks.append(
        (
            abs(actual_dist - expected_dist) <= 1e-9,
            "clip distance = sqrt(sum of squared negative eigenvalues)",
        )
    )
    checks.append(
        (psd_check(jacobi_eigen(clipped.values), 1e-9).psd, "clipped Gram passes psd_check")
    )
    _verdict(7, "spectral toolkit", checks)
