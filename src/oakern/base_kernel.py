"""Base kernels on tuple elements.

Two concrete kinds cover everything downstream needs: a Gaussian RBF kernel
on real vectors, and a lookup table on a finite label set. A table copies
its upper triangle over the lower one, so symmetry of ``eval_base`` is
structural. The
degenerate single-element base set is the table ``{("1","1"): 1}``.
Numbers and label lists are checked by the rules in ``serialize``, a table
by the symmetric-matrix rule in ``matrices``. A table may hold negative
entries; they are refused as profits when a Gram matrix is built.

``eval_base`` evaluates one pair of elements. Profit matrices are built in
blocks instead: ``stack_elements`` checks a run of tuple elements against
the kernel once and packs them into one array (coordinates for RBF, label
codes for a table),
and ``kernel_block`` evaluates every pair between two such stacks in one
array operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InputError
from .matrices import symmetric_array
from .serialize import real_number, string_list


@dataclass(frozen=True)
class Point:
    """A point of R^d with finite coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(real_number(c, "a coordinate") for c in self.coords)
        if not coords:
            raise InputError("a point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise InputError(f"non-finite coordinate in {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


Element = Union[Point, str]


def as_point(value) -> Point:
    if isinstance(value, Point):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return Point(tuple(value))
    raise InputError(f"cannot interpret {value!r} as a point")


def squared_distance(u: Point, v: Point) -> float:
    """Sum of squared coordinate differences, accumulated in index order."""
    if u.dim != v.dim:
        raise InputError(f"dimension mismatch: {u.dim} vs {v.dim}")
    total = 0.0
    for a, b in zip(u.coords, v.coords):
        d = a - b
        total += d * d
    return total


@dataclass(frozen=True)
class RBFKernel:
    """Gaussian kernel exp(-gamma * ||u - v||^2); values lie in (0, 1]."""

    gamma: float

    def __post_init__(self):
        gamma = real_number(self.gamma, "gamma")
        if not math.isfinite(gamma) or gamma <= 0.0:
            raise InputError(f"gamma must be a positive finite real, got {gamma!r}")
        object.__setattr__(self, "gamma", gamma)


class TableKernel:
    """Kernel given by an explicit symmetric table over a finite label set.

    The table passes the symmetric-matrix rule of
    :func:`~oakern.matrices.symmetric_array` and needs one row per unique
    label. The upper triangle is then copied over the lower one, so both
    argument orders read the same stored value (a signed zero included).
    Negative entries are representable here; they are refused as profits
    when a Gram matrix is built.
    """

    __slots__ = ("labels", "_index", "_dense")

    def __init__(self, labels: Sequence[str], values) -> None:
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise InputError("table labels must be unique")
        arr = symmetric_array(values, "table")  # a copy: mirrored and frozen below
        n = len(labels)
        if arr.shape[0] != n:
            raise InputError(f"table shape {arr.shape} does not match {n} labels")
        self.labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        upper = np.triu_indices(n, 1)
        arr[upper[::-1]] = arr[upper]
        arr.setflags(write=False)
        self._dense = arr

    def value(self, a: str, b: str) -> float:
        try:
            i, j = self._index[a], self._index[b]
        except KeyError as exc:
            raise InputError(f"unknown table label {exc.args[0]!r}") from None
        return float(self._dense[i, j])

    def __eq__(self, other):
        return (
            isinstance(other, TableKernel)
            and self.labels == other.labels
            and np.array_equal(self._dense, other._dense)
        )

    def __repr__(self):
        return f"TableKernel(labels={self.labels!r})"


BaseKernel = Union[RBFKernel, TableKernel]

SINGLETON_LABEL = "1"


def constant_one() -> TableKernel:
    """The base kernel on a one-element set, identically 1."""
    return TableKernel((SINGLETON_LABEL,), [[1.0]])


def eval_base(spec: BaseKernel, u, v) -> float:
    """Evaluate the base kernel; symmetric in its arguments by construction."""
    if isinstance(spec, RBFKernel):
        return math.exp(-spec.gamma * squared_distance(as_point(u), as_point(v)))
    if isinstance(spec, TableKernel):
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputError("table kernels take label arguments")
        return spec.value(u, v)
    raise InputError(f"unknown base kernel spec {spec!r}")


def stack_elements(spec: BaseKernel, elements: Sequence[Element]) -> np.ndarray:
    """Check tuple elements (points or labels) against ``spec`` and pack them into one array.

    RBF elements become an (N, d) float array of coordinates, all of one
    dimension; table elements become an (N,) array of label codes.
    """
    if isinstance(spec, RBFKernel):
        labels = [e for e in elements if isinstance(e, str)]
        if labels:
            raise InputError(f"rbf kernels take coordinate elements, got label {labels[0]!r}")
        dims = sorted({p.dim for p in elements})
        if len(dims) > 1:
            raise InputError(f"dimension mismatch: {dims[0]} vs {dims[-1]}")
        return np.array([p.coords for p in elements], dtype=float)
    if isinstance(spec, TableKernel):
        if not all(isinstance(e, str) for e in elements):
            raise InputError("table kernels take label arguments")
        try:
            return np.array([spec._index[e] for e in elements], dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"unknown table label {exc.args[0]!r}") from None
    raise InputError(f"unknown base kernel spec {spec!r}")


def kernel_block(spec: BaseKernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Base-kernel values between two :func:`stack_elements` stacks, rows by columns.

    Squared distances accumulate coordinate by coordinate in index order,
    as in :func:`squared_distance`. A distance or ``gamma * distance`` past
    float64 range becomes inf and its kernel value 0, silently, as in
    :func:`eval_base`.
    """
    if isinstance(spec, RBFKernel):
        if rows.shape[1] != cols.shape[1]:
            raise InputError(f"dimension mismatch: {rows.shape[1]} vs {cols.shape[1]}")
        d2 = np.zeros((rows.shape[0], cols.shape[0]))
        with np.errstate(over="ignore"):
            for k in range(rows.shape[1]):
                diff = rows[:, k, None] - cols[None, :, k]
                d2 += diff * diff
            return np.exp(-spec.gamma * d2)
    return spec._dense[rows[:, None], cols[None, :]]


def parse_base_kernel(obj) -> BaseKernel:
    """Parse ``{"type": "rbf"|"constant_one"|"table", ...}``."""
    if not isinstance(obj, dict):
        raise InputError("base kernel spec must be a JSON object")
    kind = obj.get("type")
    if kind == "rbf":
        if "gamma" not in obj:
            raise InputError('rbf base kernel needs a "gamma" field')
        return RBFKernel(obj["gamma"])
    if kind == "constant_one":
        return constant_one()
    if kind == "table":
        if "labels" not in obj or "values" not in obj:
            raise InputError('table base kernel needs "labels" and "values" fields')
        return TableKernel(string_list(obj["labels"], 'table "labels"'), obj["values"])
    raise InputError(f"unknown base kernel type {kind!r}")

