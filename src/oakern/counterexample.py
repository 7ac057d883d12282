"""Constructive refutation of positive definiteness for the tuple kernel.

Four unit-square corners under an RBF base kernel give six two-element
tuples whose Gram matrix has a closed form in a = exp(-gamma). The driver
assembles that matrix through the full solver stack, checks it against the
closed form, and then refutes PSD-ness three independent ways: a negative
eigenvalue, a fixed witness vector whose quadratic form is 8a^2 - 8a < 0,
and a distance-geometry contradiction (the six points would have to form
two half-squares whose shared hypotenuse is longer than the value the
kernel actually dictates). All distance identities are evaluated in
squared form, where they are exact; only the final hypotenuse comparison
takes square roots.

The positive counterpart: over a one-element base set the kernel collapses
to min(|x|, |y|), and those Gram matrices are PSD for any length multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .assignment_kernel import TupleObject, gram_matrix
from .base_kernel import (
    Point,
    RBFKernel,
    SINGLETON_LABEL,
    base_kernel_to_json_obj,
    constant_one,
)
from .errors import ConfigError, ConsistencyError, InputError
from .matrices import GramMatrix
from .serialize import format_float
from .spectral import (
    DEFAULT_TOL,
    PsdVerdict,
    Spectrum,
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


@dataclass(frozen=True)
class SquareConfig:
    """The counterexample configuration at one RBF width."""

    gamma: float
    a: float
    points: dict[str, Point] = field(repr=False)
    pair_order: tuple[str, ...] = PAIR_ORDER

    def base(self) -> RBFKernel:
        return RBFKernel(self.gamma)

    def tuples(self) -> tuple[TupleObject, ...]:
        return tuple(
            TupleObject(elements=(self.points[p[0]], self.points[p[1]]), label=p)
            for p in self.pair_order
        )

    def dataset(self) -> dict:
        """Tuple-dataset JSON object reproducing this configuration."""
        return {
            "base_kernel": base_kernel_to_json_obj(self.base()),
            "tuples": [
                {"label": t.label, "elements": [list(e.coords) for e in t.elements]}
                for t in self.tuples()
            ],
        }


def build_square_config(gamma: float) -> SquareConfig:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ConfigError(f"gamma must be a positive finite real, got {gamma!r}")
    return SquareConfig(gamma=gamma, a=math.exp(-gamma), points=dict(SQUARE_POINTS))


def expected_gram_closed_form(gamma: float) -> GramMatrix:
    """Closed-form 6x6 Gram matrix: diagonal 2, off-diagonal 1+a, 1+a^2 or 2a."""
    a = build_square_config(gamma).a
    classes: dict[frozenset, float] = {}
    for pair in _ONE_PLUS_A:
        classes[frozenset(pair)] = 1.0 + a
    for pair in _ONE_PLUS_A_SQ:
        classes[frozenset(pair)] = 1.0 + a * a
    for pair in _TWO_A:
        classes[frozenset(pair)] = 2.0 * a

    def entry(i: int, j: int) -> float:
        if i == j:
            return 2.0
        return classes[frozenset((PAIR_ORDER[i], PAIR_ORDER[j]))]

    return GramMatrix.from_triangle(PAIR_ORDER, entry)


@dataclass(frozen=True)
class CounterexampleReport:
    """Everything run_counterexample measured, JSON-serializable."""

    config: SquareConfig
    gram_computed: GramMatrix
    gram_closed_form: GramMatrix
    max_abs_gram_diff: float
    spectrum: Spectrum
    verdict: PsdVerdict
    witness_value: float
    null_direction_values: tuple[float, float]
    pythagorean_residuals: tuple[float, float]
    side_lengths_sq: tuple[float, float, float, float]
    hyp_expected: float
    hyp_actual: float
    contradiction_gap: float
    refuted: bool

    def to_json_obj(self) -> dict:
        return {
            "gamma": self.config.gamma,
            "a": self.config.a,
            "pair_order": list(self.config.pair_order),
            "points": {k: list(p.coords) for k, p in sorted(self.config.points.items())},
            "gram_computed": self.gram_computed.to_json_obj(),
            "gram_closed_form": self.gram_closed_form.to_json_obj(),
            "max_abs_gram_diff": self.max_abs_gram_diff,
            "spectrum": self.spectrum.to_json_obj(),
            "psd_verdict": self.verdict.to_json_obj(),
            "witness": list(WITNESS),
            "witness_value": self.witness_value,
            "null_directions": [list(v) for v in NULL_DIRECTIONS],
            "null_direction_values": list(self.null_direction_values),
            "pythagorean_residuals": list(self.pythagorean_residuals),
            "side_lengths_sq": list(self.side_lengths_sq),
            "hyp_expected": self.hyp_expected,
            "hyp_actual": self.hyp_actual,
            "contradiction_gap": self.contradiction_gap,
            "refuted": self.refuted,
            "notes": "distance identities evaluated on squared distances; "
            "hypotenuse comparison on their square roots",
        }


def run_counterexample(gamma: float, tol: float = DEFAULT_TOL) -> CounterexampleReport:
    """Assemble the Gram matrix through the solver stack and refute PSD-ness.

    Raises :class:`ConsistencyError` if the computed matrix strays from the
    closed form by more than 1e-12 anywhere; that means an implementation
    bug, not a property of the kernel.
    """
    config = build_square_config(gamma)
    gram = gram_matrix(config.tuples(), config.base())
    closed = expected_gram_closed_form(gamma)
    max_diff = float(np.max(np.abs(gram.values - closed.values)))
    if max_diff > _GRAM_MATCH_TOL:
        raise ConsistencyError(
            f"computed Gram deviates from closed form by {max_diff:.3e} "
            f"(tolerance {_GRAM_MATCH_TOL:.0e}) at gamma={gamma}"
        )

    spectrum = jacobi_eigen(gram.values)
    verdict = psd_check(spectrum, tol)
    witness_value = quadratic_form(gram.values, WITNESS)
    null_values = tuple(quadratic_form(gram.values, v) for v in NULL_DIRECTIONS)

    dm = distances_from_gram(gram)
    d2 = dm.distance_sq
    residuals = (
        d2("AB", "CD") - d2("AB", "AC") - d2("AC", "CD"),
        d2("AB", "CD") - d2("AB", "BD") - d2("BD", "CD"),
    )
    sides_sq = (d2("AB", "BC"), d2("BC", "CD"), d2("CD", "AD"), d2("AD", "AB"))
    hyp_expected = math.sqrt(d2("AB", "BC") + d2("BC", "CD"))
    hyp_actual = dm.distance("AB", "CD")
    gap = hyp_expected - hyp_actual

    return CounterexampleReport(
        config=config,
        gram_computed=gram,
        gram_closed_form=closed,
        max_abs_gram_diff=max_diff,
        spectrum=spectrum,
        verdict=verdict,
        witness_value=witness_value,
        null_direction_values=null_values,
        pythagorean_residuals=residuals,
        side_lengths_sq=sides_sq,
        hyp_expected=hyp_expected,
        hyp_actual=hyp_actual,
        contradiction_gap=gap,
        refuted=(not verdict.psd) and gap > tol,
    )


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    a: float
    lambda_min: float
    witness_value: float
    contradiction_gap: float
    refuted: bool


SWEEP_CSV_HEADER = "gamma,a,lambda_min,witness_value,contradiction_gap,refuted"


def gamma_sweep(grid: Sequence[float], tol: float = DEFAULT_TOL) -> tuple[SweepRow, ...]:
    """One counterexample run per grid value, condensed to sweep rows."""
    if len(grid) == 0:
        raise InputError("sweep grid must be non-empty")
    rows = []
    for gamma in grid:
        report = run_counterexample(gamma, tol)
        rows.append(
            SweepRow(
                gamma=report.config.gamma,
                a=report.config.a,
                lambda_min=report.spectrum.min_eigenvalue,
                witness_value=report.witness_value,
                contradiction_gap=report.contradiction_gap,
                refuted=report.refuted,
            )
        )
    return tuple(rows)


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    format_float(r.gamma),
                    format_float(r.a),
                    format_float(r.lambda_min),
                    format_float(r.witness_value),
                    format_float(r.contradiction_gap),
                    "true" if r.refuted else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MinKernelVerdict:
    """Findings for the positive case over a one-element base set."""

    lengths: tuple[int, ...]
    gram: GramMatrix
    entries_exact: bool
    verdict: PsdVerdict

    @property
    def passed(self) -> bool:
        return self.entries_exact and self.verdict.psd

    def to_json_obj(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "entries_exact": self.entries_exact,
            "psd": self.verdict.psd,
            "min_eigenvalue": self.verdict.min_eigenvalue,
            "margin": self.verdict.margin,
            "tol": self.verdict.tol,
            "passed": self.passed,
        }


def verify_min_kernel_psd(lengths: Sequence[int], tol: float = DEFAULT_TOL) -> MinKernelVerdict:
    """Check that repeat-tuples over a singleton base give the min kernel, PSD.

    Each length L becomes the tuple of L copies of the single base label;
    the kernel value of two such tuples must equal min of their lengths
    exactly, and the resulting Gram matrix must pass the PSD check.
    """
    if len(lengths) == 0:
        raise InputError("need at least one tuple length")
    clean: list[int] = []
    for value in lengths:
        length = int(value)
        if length != value or length < 1:
            raise InputError(f"tuple lengths must be positive integers, got {value!r}")
        clean.append(length)
    tuples = tuple(
        TupleObject(elements=(SINGLETON_LABEL,) * length, label=f"len{length}")
        for length in clean
    )
    gram = gram_matrix(tuples, constant_one())
    as_floats = np.array(clean, dtype=float)
    entries_exact = np.array_equal(gram.values, np.minimum.outer(as_floats, as_floats))
    verdict = psd_check(jacobi_eigen(gram.values), tol)
    return MinKernelVerdict(
        lengths=tuple(clean),
        gram=gram,
        entries_exact=entries_exact,
        verdict=verdict,
    )
