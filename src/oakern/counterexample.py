"""Constructive refutation of positive definiteness for the tuple kernel.

Four unit-square corners under an RBF base kernel give six two-element
tuples whose Gram matrix has a closed form in a = exp(-gamma). The driver
assembles that matrix through the full solver stack, checks it against the
closed form, and then refutes PSD-ness three independent ways: a negative
eigenvalue, a fixed witness vector whose quadratic form is 8a^2 - 8a < 0,
and a distance-geometry contradiction (the six points would have to form
two half-squares whose shared hypotenuse is longer than the value the
kernel actually dictates). The distances are read from the matrix of
squared distances, indexed by PAIR_ORDER; the identities are evaluated on
those squares, where they are exact, and only the final hypotenuse
comparison takes square roots.

The positive counterpart: over a one-element base set the kernel collapses
to min(|x|, |y|), and those Gram matrices are PSD for any length multiset.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .assignment_kernel import TupleObject, check_gram_size, gram_matrix
from .base_kernel import Point, RBFKernel, SINGLETON_LABEL, constant_one
from .errors import ConsistencyError, InputError
from .matrices import GramMatrix
from .serialize import format_float
from .spectral import (
    DEFAULT_TOL,
    distances_from_gram,
    jacobi_eigen,
    psd_check,
    quadratic_form,
)

# Unit-square corners and the six unordered pairs in lexicographic order.
SQUARE_POINTS: dict[str, Point] = {
    "A": Point((0.0, 0.0)),
    "B": Point((1.0, 0.0)),
    "C": Point((1.0, 1.0)),
    "D": Point((0.0, 1.0)),
}
PAIR_ORDER: tuple[str, ...] = ("AB", "AC", "AD", "BC", "BD", "CD")
SQUARE_TUPLES: tuple[TupleObject, ...] = tuple(
    TupleObject(elements=(SQUARE_POINTS[p[0]], SQUARE_POINTS[p[1]]), label=p) for p in PAIR_ORDER
)

# Certificate vectors over PAIR_ORDER. The witness expands to 8a^2 - 8a,
# negative for every 0 < a < 1; the two null directions cancel exactly for
# all a (the coplanar-square degeneracies of the forced configuration).
WITNESS: tuple[float, ...] = (1.0, -2.0, 1.0, 1.0, -2.0, 1.0)
NULL_DIRECTIONS: tuple[tuple[float, ...], ...] = (
    (1.0, -1.0, 0.0, 0.0, -1.0, 1.0),
    (0.0, -1.0, 1.0, 1.0, -1.0, 0.0),
)

# Off-diagonal value classes of the closed-form Gram matrix.
_ONE_PLUS_A = (
    ("AB", "AC"), ("AB", "BD"), ("BC", "BD"), ("BC", "AC"),
    ("CD", "AC"), ("CD", "BD"), ("AD", "AC"), ("AD", "BD"),
)
_ONE_PLUS_A_SQ = (("AB", "BC"), ("BC", "CD"), ("CD", "AD"), ("AB", "AD"))
_TWO_A = (("AB", "CD"), ("AD", "BC"), ("AC", "BD"))

_GRAM_MATCH_TOL = 1e-12


def expected_gram_closed_form(gamma: float) -> GramMatrix:
    """Closed-form 6x6 Gram matrix: diagonal 2, off-diagonal 1+a, 1+a^2 or 2a."""
    a = math.exp(-RBFKernel(gamma).gamma)
    values = np.full((6, 6), 2.0)
    for pairs, value in ((_ONE_PLUS_A, 1.0 + a), (_ONE_PLUS_A_SQ, 1.0 + a * a), (_TWO_A, 2.0 * a)):
        for p, q in pairs:
            i, j = PAIR_ORDER.index(p), PAIR_ORDER.index(q)
            values[i, j] = values[j, i] = value
    return GramMatrix(PAIR_ORDER, values)


def run_counterexample(gamma: float, tol: float = DEFAULT_TOL) -> dict:
    """Assemble the Gram matrix through the solver stack and refute PSD-ness.

    Returns the report that ``oakern counterexample`` writes: a JSON-ready
    dict, keys in written order.

    Raises :class:`ConsistencyError` if the computed matrix strays from the
    closed form by more than 1e-12 anywhere; that means an implementation
    bug, not a property of the kernel.
    """
    base = RBFKernel(gamma)
    gram = gram_matrix(SQUARE_TUPLES, base)
    closed = expected_gram_closed_form(gamma)
    max_diff = float(np.max(np.abs(gram.values - closed.values)))
    if max_diff > _GRAM_MATCH_TOL:
        raise ConsistencyError(
            f"computed Gram deviates from closed form by {max_diff:.3e} "
            f"(tolerance {_GRAM_MATCH_TOL:.0e}) at gamma={gamma}"
        )

    spectrum = jacobi_eigen(gram.values)
    verdict = psd_check(spectrum, tol)
    squared = distances_from_gram(gram).tolist()
    d2 = {(p, q): squared[i][j] for i, p in enumerate(PAIR_ORDER) for j, q in enumerate(PAIR_ORDER)}
    hyp_expected = math.sqrt(d2["AB", "BC"] + d2["BC", "CD"])
    hyp_actual = math.sqrt(d2["AB", "CD"])
    gap = hyp_expected - hyp_actual
    return {
        "gamma": base.gamma,
        "a": math.exp(-base.gamma),
        "pair_order": list(PAIR_ORDER),
        "points": {k: list(p.coords) for k, p in sorted(SQUARE_POINTS.items())},
        "gram_computed": gram.to_json_obj(),
        "gram_closed_form": closed.to_json_obj(),
        "max_abs_gram_diff": max_diff,
        "spectrum": {
            "eigenvalues": [float(w) for w in spectrum.eigenvalues],
            "min_eigenvalue": spectrum.min_eigenvalue,
        },
        "psd_verdict": asdict(verdict),
        "witness": list(WITNESS),
        "witness_value": quadratic_form(gram.values, WITNESS),
        "null_directions": [list(v) for v in NULL_DIRECTIONS],
        "null_direction_values": [quadratic_form(gram.values, v) for v in NULL_DIRECTIONS],
        "pythagorean_residuals": [
            d2["AB", "CD"] - d2["AB", "AC"] - d2["AC", "CD"],
            d2["AB", "CD"] - d2["AB", "BD"] - d2["BD", "CD"],
        ],
        "side_lengths_sq": [d2["AB", "BC"], d2["BC", "CD"], d2["CD", "AD"], d2["AD", "AB"]],
        "hyp_expected": hyp_expected,
        "hyp_actual": hyp_actual,
        "contradiction_gap": gap,
        "refuted": (not verdict.psd) and gap > tol,
        "notes": "distance identities evaluated on squared distances; "
        "hypotenuse comparison on their square roots",
    }


SWEEP_CSV_HEADER = "gamma,a,lambda_min,witness_value,contradiction_gap,refuted"


def gamma_sweep(grid: Sequence[float], tol: float = DEFAULT_TOL) -> tuple[dict, ...]:
    """One counterexample report per grid value, as :func:`run_counterexample` returns it."""
    if len(grid) == 0:
        raise InputError("sweep grid must be non-empty")
    return tuple(run_counterexample(gamma, tol) for gamma in grid)


def sweep_to_csv(reports: Sequence[dict]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                (
                    format_float(r["gamma"]),
                    format_float(r["a"]),
                    format_float(r["spectrum"]["min_eigenvalue"]),
                    format_float(r["witness_value"]),
                    format_float(r["contradiction_gap"]),
                    "true" if r["refuted"] else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def verify_min_kernel_psd(lengths: Sequence[int], tol: float = DEFAULT_TOL) -> dict:
    """Check that repeat-tuples over a singleton base give the min kernel, PSD.

    Each length L becomes the tuple of L copies of the single base label;
    the kernel value of two such tuples must equal min of their lengths
    exactly, and the resulting Gram matrix must pass the PSD check. A
    length is an integer (not a bool) of at least 1, and the lengths must
    pass :func:`check_gram_size` before any tuple is built.

    Returns the verdict that ``oakern verify-min-kernel`` writes: a
    JSON-ready dict, keys in written order.
    """
    if len(lengths) == 0:
        raise InputError("need at least one tuple length")
    for length in lengths:
        if isinstance(length, bool) or not isinstance(length, numbers.Integral) or length < 1:
            raise InputError(f"tuple lengths must be positive integers, got {length!r}")
    lengths = [int(length) for length in lengths]
    check_gram_size(lengths)
    tuples = tuple(
        TupleObject(elements=(SINGLETON_LABEL,) * length, label=f"len{length}")
        for length in lengths
    )
    gram = gram_matrix(tuples, constant_one())
    as_floats = np.array(lengths, dtype=float)
    entries_exact = np.array_equal(gram.values, np.minimum.outer(as_floats, as_floats))
    verdict = psd_check(jacobi_eigen(gram.values), tol)
    return {
        "lengths": lengths,
        "entries_exact": entries_exact,
        "psd": verdict.psd,
        "min_eigenvalue": verdict.min_eigenvalue,
        "margin": verdict.margin,
        "tol": verdict.tol,
        "passed": entries_exact and verdict.psd,
    }
