"""Seeded inputs, CLI command lists and independent output checks.

Each workload is a fixed sequence of ``oakern`` CLI commands (one pass)
over input files generated here from a seed. Expected values are computed
with numpy and scipy only; no oakern code is imported by this module, so a
fault in oakern cannot hide in its own reference.

Input make-up is chosen so that the amount of work is the same for every
seed (fixed length multisets, fixed matrix size, fixed gamma count); the
seed decides coordinates, order and the in-window gamma values. That keeps
run-to-run spread down to machine noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

DEFAULT_TOL = 1e-9  # oakern's documented default PSD tolerance
RBF_GAMMA = 0.5
DIM = 3

# Full-size parameters. ``small=True`` shrinks them for the self-tests.
GRAM_LENGTHS = range(3, 13)  # tuple lengths 3..12, so most assignments are rectangular
GRAM_PER_LENGTH = 10  # 100 tuples
AUDIT_SIZE = 72  # G is AUDIT_SIZE x AUDIT_SIZE
CERTIFY_IN_WINDOW = 96  # seeded gammas in [1e-7, 16]
MIN_KERNEL_MAX_LENGTH = 20  # lengths 1..20 in seeded order

# gamma values outside oakern's float64 window: the certificate is
# indeterminate there and ``counterexample`` exits 3 although the paper
# proves refutation for every gamma > 0. Fixed, so that every run fails the
# same operations.
OUT_OF_WINDOW_GAMMAS = (1e-9, 1e-8, 19.0, 700.0)
IN_WINDOW = (1e-7, 16.0)

# Unit-square corners and the six 2-tuples of the paper's counterexample.
SQUARE = {"A": (0.0, 0.0), "B": (1.0, 0.0), "C": (1.0, 1.0), "D": (0.0, 1.0)}
PAIR_ORDER = ("AB", "AC", "AD", "BC", "BD", "CD")


@dataclass
class Workload:
    """One workload's pass: the CLI argv lists and what to check afterwards."""

    commands: list[list[str]]
    outputs: list[str]
    expect: dict = field(repr=False)


# ---------------------------------------------------------------- references


def oa_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """OA kernel of two point tuples: RBF profits solved by scipy's LAP."""
    profits = np.exp(-gamma * cdist(x, y, "sqeuclidean"))
    rows, cols = linear_sum_assignment(profits, maximize=True)
    return float(profits[rows, cols].sum())


def oa_gram(tuples: list[np.ndarray], gamma: float) -> np.ndarray:
    n = len(tuples)
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = oa_kernel(tuples[i], tuples[j], gamma)
    return gram


def square_closed_form(gamma: float) -> np.ndarray:
    """The paper's 6x6 Gram matrix: diagonal 2, off-diagonal 1+a, 1+a^2 or 2a."""
    a = math.exp(-gamma)
    gram = np.empty((6, 6))
    for i, p in enumerate(PAIR_ORDER):
        for j, q in enumerate(PAIR_ORDER):
            shared = len(set(p) & set(q))
            if i == j:
                gram[i, j] = 2.0
            elif shared == 1:
                # one corner matched to itself, the other pair of corners is
                # a side (distance 1) or a diagonal (distance sqrt 2) apart
                (u,) = set(p) - set(q)
                (v,) = set(q) - set(p)
                d2 = sum((s - t) ** 2 for s, t in zip(SQUARE[u], SQUARE[v]))
                gram[i, j] = 1.0 + (a if d2 == 1.0 else a * a)
            else:
                gram[i, j] = 2.0 * a  # disjoint pairs: two sides match
    return gram


# ---------------------------------------------------------------- generators


def _dataset(tuples: list[np.ndarray], labels: list[str], base: dict) -> dict:
    return {
        "base_kernel": base,
        "tuples": [
            {"label": label, "elements": t.tolist() if isinstance(t, np.ndarray) else t}
            for label, t in zip(labels, tuples)
        ],
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def _rbf_tuples(rng: np.random.Generator, lengths) -> list[np.ndarray]:
    return [rng.normal(size=(int(length), DIM)) for length in lengths]


def _square_tuples(rng: np.random.Generator) -> list[np.ndarray]:
    """The six square 2-tuples, moved into R^3 by a seeded rigid motion."""
    q, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))
    shift = rng.normal(size=DIM)
    corners = {k: np.array([x, y, 0.0]) @ q.T + shift for k, (x, y) in SQUARE.items()}
    return [np.stack([corners[p[0]], corners[p[1]]]) for p in PAIR_ORDER]


def make_gram_rbf(workdir: Path, seed: int, small: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    per_length = 1 if small else GRAM_PER_LENGTH
    lengths = np.repeat(np.array(GRAM_LENGTHS), per_length)
    rng.shuffle(lengths)
    tuples = _rbf_tuples(rng, lengths)
    labels = [f"t{i}" for i in range(len(tuples))]
    _write_json(workdir / "rbf.json", _dataset(tuples, labels, {"type": "rbf", "gamma": RBF_GAMMA}))
    return Workload(
        commands=[["gram", "--input", "rbf.json", "--output", "gram.json"]],
        outputs=["gram.json"],
        expect={"labels": labels, "lengths": lengths.tolist(), "gram": oa_gram(tuples, RBF_GAMMA)},
    )


def make_audit_repair(workdir: Path, seed: int, small: bool = False) -> Workload:
    """A non-PSD OA Gram matrix G, computed here without oakern.

    The six square tuples sit among random RBF tuples; their 6x6 principal
    block has a negative eigenvalue for every gamma (the paper's theorem),
    so by eigenvalue interlacing G is non-PSD for every seed.
    """
    rng = np.random.default_rng([seed, 2])
    size = 12 if small else AUDIT_SIZE
    lengths = rng.integers(2, 9, size=size - 6)
    tuples = _square_tuples(rng) + _rbf_tuples(rng, lengths)
    order = rng.permutation(size)
    tuples = [tuples[k] for k in order]
    labels = [f"g{i}" for i in range(size)]
    gram = oa_gram(tuples, RBF_GAMMA)
    _write_json(workdir / "G.json", {"labels": labels, "values": gram.tolist()})
    return Workload(
        commands=[
            ["spectrum", "--input", "G.json", "--output", "spectrum_G.json"],
            ["repair", "--input", "G.json", "--output", "R.json"],
            ["spectrum", "--input", "R.json", "--output", "spectrum_R.json"],
            ["repair", "--input", "R.json", "--output", "R2.json"],
        ],
        outputs=["spectrum_G.json", "R.json", "spectrum_R.json", "R2.json"],
        expect={"labels": labels, "gram": gram},
    )


def certify_gammas(seed: int, count: int) -> list[float]:
    """Stratified log-spaced in-window gammas, then the fixed out-of-window ones."""
    rng = np.random.default_rng([seed, 3])
    lo, hi = (math.log10(g) for g in IN_WINDOW)
    edges = np.linspace(lo, hi, count + 1)
    inside = 10.0 ** (edges[:-1] + rng.random(count) * np.diff(edges))
    return [float(g) for g in inside] + list(OUT_OF_WINDOW_GAMMAS)


def make_certify(workdir: Path, seed: int, small: bool = False) -> Workload:
    gammas = certify_gammas(seed, 4 if small else CERTIFY_IN_WINDOW)
    rng = np.random.default_rng([seed, 4])
    lengths = (rng.permutation(5 if small else MIN_KERNEL_MAX_LENGTH) + 1).tolist()
    labels = [f"len{length}" for length in lengths]
    _write_json(
        workdir / "min_kernel.json",
        _dataset([["1"] * length for length in lengths], labels, {"type": "constant_one"}),
    )
    commands = [
        ["counterexample", "--gamma", repr(g), "--output", f"cx{k}.json"]
        for k, g in enumerate(gammas)
    ]
    commands.append(["verify-min-kernel", "--lengths", ",".join(map(str, lengths)),
                     "--output", "min_kernel_verdict.json"])
    commands.append(["gram", "--input", "min_kernel.json", "--output", "min_kernel_gram.json"])
    return Workload(
        commands=commands,
        outputs=[c[-1] for c in commands],
        expect={"gammas": gammas, "lengths": lengths, "labels": labels},
    )


MAKERS = {"gram-rbf": make_gram_rbf, "audit-repair": make_audit_repair, "certify": make_certify}


# ---------------------------------------------------------------- checks


def _read(workdir: Path, name: str):
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def _close(got, want, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def _check_matrix_file(obj, labels, problems: list[str], name: str) -> np.ndarray | None:
    if obj.get("labels") != labels:
        problems.append(f"{name}: labels differ from the input")
    values = np.array(obj["values"], dtype=float)
    if values.shape != (len(labels), len(labels)):
        problems.append(f"{name}: shape {values.shape}, expected {len(labels)}x{len(labels)}")
        return None
    if not np.array_equal(values, values.T):
        problems.append(f"{name}: not exactly symmetric")
    return values


def check_gram_rbf(workdir: Path, wl: Workload, exit_codes: list[int]) -> list[str]:
    if exit_codes != [0]:
        return [f"gram exited {exit_codes}"]
    problems: list[str] = []
    got = _check_matrix_file(_read(workdir, "gram.json"), wl.expect["labels"], problems, "gram")
    if got is None:
        return problems
    want = wl.expect["gram"]
    if not np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))):
        worst = float(np.max(np.abs(got - want)))
        problems.append(f"gram: entry off the scipy reference by {worst:.3e}")
    if not np.array_equal(np.diag(got), np.array(wl.expect["lengths"], dtype=float)):
        problems.append("gram: diagonal is not the tuple lengths")
    return problems


def _check_spectrum(obj, matrix: np.ndarray, psd: bool, problems: list[str], name: str) -> None:
    want = np.linalg.eigvalsh(matrix)[::-1]
    got = np.array(obj["eigenvalues"], dtype=float)
    scale = float(np.max(np.abs(want)))
    if got.shape != want.shape or not _close(got, want, 1e-9 * scale):
        problems.append(f"{name}: eigenvalues differ from numpy eigvalsh")
    if obj.get("psd") is not psd:
        problems.append(f"{name}: verdict psd={obj.get('psd')}, expected {psd}")


def check_audit_repair(workdir: Path, wl: Workload, exit_codes: list[int]) -> list[str]:
    if exit_codes != [0, 0, 0, 0]:
        return [f"audit-repair exited {exit_codes}"]
    problems: list[str] = []
    gram = wl.expect["gram"]
    _check_spectrum(_read(workdir, "spectrum_G.json"), gram, False, problems, "spectrum G")
    repaired = _check_matrix_file(_read(workdir, "R.json"), wl.expect["labels"], problems, "R")
    if repaired is None:
        return problems
    eig_r = np.linalg.eigvalsh(repaired)
    if eig_r[0] < -DEFAULT_TOL * max(1.0, eig_r[-1]):
        problems.append(f"R: eigvalsh finds min eigenvalue {eig_r[0]:.3e}, not PSD")
    eig_g = np.linalg.eigvalsh(gram)
    want_dist = math.sqrt(float(np.sum(eig_g[eig_g < 0.0] ** 2)))
    got_dist = float(np.linalg.norm(gram - repaired))
    if abs(got_dist - want_dist) > 1e-9 * want_dist:
        problems.append(f"R: ||G-R||_F = {got_dist!r}, clipped eigenvalues give {want_dist!r}")
    _check_spectrum(_read(workdir, "spectrum_R.json"), repaired, True, problems, "spectrum R")
    if (workdir / "R2.json").read_bytes() != (workdir / "R.json").read_bytes():
        problems.append("repair of the already-PSD R changed it")
    return problems


def check_certify(workdir: Path, wl: Workload, exit_codes: list[int]) -> list[str]:
    """Check every command that succeeded; a nonzero exit is a failed operation."""
    problems: list[str] = []
    gammas = wl.expect["gammas"]
    for k, gamma in enumerate(gammas):
        if exit_codes[k] != 0:
            continue
        report = _read(workdir, f"cx{k}.json")
        a = math.exp(-gamma)
        if report.get("gamma") != gamma or report.get("refuted") is not True:
            problems.append(f"gamma={gamma!r}: exit 0 without refuted=true")
        if abs(report["witness_value"] - 8.0 * a * math.expm1(-gamma)) > 1e-12:
            problems.append(f"gamma={gamma!r}: witness value {report['witness_value']!r} != 8a(a-1)")
        gram = report["gram_computed"]
        want = square_closed_form(gamma)
        if gram.get("labels") != list(PAIR_ORDER) or not _close(
            gram["values"], want, 1e-12 * 2.0
        ):
            problems.append(f"gamma={gamma!r}: computed Gram differs from the closed form")

    lengths = wl.expect["lengths"]
    want = np.minimum.outer(np.array(lengths, dtype=float), np.array(lengths, dtype=float))
    eig = np.linalg.eigvalsh(want)
    n_cx = len(gammas)
    if exit_codes[n_cx] != 0:
        problems.append(f"verify-min-kernel exited {exit_codes[n_cx]}")
    else:
        verdict = _read(workdir, "min_kernel_verdict.json")
        if verdict.get("lengths") != lengths:
            problems.append("verify-min-kernel: lengths differ from the input")
        if not (verdict.get("passed") is True and verdict.get("entries_exact") is True
                and verdict.get("psd") is True):
            problems.append("verify-min-kernel: verdict is not passed/exact/psd")
        if abs(verdict["min_eigenvalue"] - eig[0]) > 1e-9 * float(np.max(np.abs(eig))):
            problems.append("verify-min-kernel: min eigenvalue differs from numpy eigvalsh")
    if exit_codes[n_cx + 1] != 0:
        problems.append(f"min-kernel gram exited {exit_codes[n_cx + 1]}")
    else:
        got = _check_matrix_file(
            _read(workdir, "min_kernel_gram.json"), wl.expect["labels"], problems, "min-kernel gram"
        )
        if got is not None:
            if not np.array_equal(got, want):
                problems.append("min-kernel gram: entries are not exactly min(l_i, l_j)")
            eig_got = np.linalg.eigvalsh(got)
            if eig_got[0] < -DEFAULT_TOL * max(1.0, eig_got[-1]):
                problems.append("min-kernel gram: eigvalsh finds it not PSD")
    return problems


CHECKS = {"gram-rbf": check_gram_rbf, "audit-repair": check_audit_repair, "certify": check_certify}
