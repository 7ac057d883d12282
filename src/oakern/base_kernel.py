"""Base kernels on tuple elements.

Two concrete kinds cover everything downstream needs: a Gaussian RBF kernel
on real vectors, and a lookup table on a finite label set. A table copies
its upper triangle over the lower one, so symmetry of ``eval_base`` is
structural. The
degenerate single-element base set is the table ``{("1","1"): 1}``.

``eval_base`` evaluates one pair of elements. Profit matrices are built in
blocks instead: ``stack_elements`` validates a run of elements once and
packs them into one array (coordinates for RBF, label codes for a table),
and ``kernel_block`` evaluates every pair between two such stacks in one
array operation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, InputError


def _real_number(value, what: str) -> float:
    """``value`` as a float; anything but a real number (a bool or a string included) is an InputError."""
    # plain int and float, all that JSON numbers parse to, skip the slower abstract-class check
    if type(value) not in (float, int):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} {value!r} is outside float64 range") from None


@dataclass(frozen=True)
class Point:
    """A point of R^d with finite coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(_real_number(c, "a coordinate") for c in self.coords)
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
        gamma = float(self.gamma)
        if not math.isfinite(gamma) or gamma <= 0.0:
            raise ConfigError(f"gamma must be a positive finite real, got {gamma!r}")
        object.__setattr__(self, "gamma", gamma)


class TableKernel:
    """Kernel given by an explicit symmetric table over a finite label set.

    The constructor checks shape, finiteness and exact symmetry, then copies
    the upper triangle over the lower one, so both argument orders read the
    same stored value (a signed zero included).
    Value-domain problems (negative entries) are representable on purpose so
    that :func:`validate_base` can flag them.
    """

    __slots__ = ("labels", "_index", "_dense")

    def __init__(self, labels: Sequence[str], values) -> None:
        labels = tuple(str(l) for l in labels)
        if not labels:
            raise ConfigError("table kernel needs at least one label")
        if len(set(labels)) != len(labels):
            raise ConfigError("table labels must be unique")
        try:
            arr = np.array(values, dtype=float)  # a copy: mirrored and frozen below
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"table entries must be numbers in equal-length rows: {exc}") from exc
        n = len(labels)
        if arr.shape != (n, n):
            raise ConfigError(f"table shape {arr.shape} does not match {n} labels")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("table contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise ConfigError("table is not exactly symmetric")
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

    def matrix(self) -> np.ndarray:
        return self._dense.copy()

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


def stack_elements(spec: BaseKernel, elements: Sequence) -> np.ndarray:
    """Validate elements for ``spec`` and pack them into one array.

    RBF elements become an (N, d) float array of coordinates, all of one
    dimension; table elements become an (N,) array of label codes.
    """
    if isinstance(spec, RBFKernel):
        points = []
        for e in elements:
            if isinstance(e, str):
                raise InputError(f"rbf kernels take coordinate elements, got label {e!r}")
            points.append(as_point(e))
        dims = sorted({p.dim for p in points})
        if len(dims) > 1:
            raise InputError(f"dimension mismatch: {dims[0]} vs {dims[-1]}")
        return np.array([p.coords for p in points], dtype=float)
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


@dataclass(frozen=True)
class BaseValidation:
    """Findings from checking a base kernel on a sample of elements."""

    symmetry_violations: tuple[tuple[int, int, float, float], ...]
    negative_values: tuple[tuple[int, int, float], ...]
    min_eigenvalue: float | None

    @property
    def passed(self) -> bool:
        return not self.symmetry_violations and not self.negative_values


def validate_base(spec: BaseKernel, sample: Sequence, include_spectrum: bool = True) -> BaseValidation:
    """Check symmetry and nonnegativity of the base kernel on a sample.

    The minimum eigenvalue of the base Gram matrix is reported when
    ``include_spectrum`` is set, as diagnostics only; nothing is gated on it.
    """
    if not sample:
        raise InputError("validation sample must be non-empty")
    n = len(sample)
    gram = np.zeros((n, n))
    symmetry: list[tuple[int, int, float, float]] = []
    negatives: list[tuple[int, int, float]] = []
    for i in range(n):
        for j in range(i, n):
            kij = eval_base(spec, sample[i], sample[j])
            kji = eval_base(spec, sample[j], sample[i])
            if kij != kji:
                symmetry.append((i, j, kij, kji))
            if kij < 0.0:
                negatives.append((i, j, kij))
            gram[i, j] = gram[j, i] = kij
    min_eig = None
    if include_spectrum:
        from .spectral import jacobi_eigen

        min_eig = jacobi_eigen(gram).min_eigenvalue
    return BaseValidation(tuple(symmetry), tuple(negatives), min_eig)


def parse_base_kernel(obj) -> BaseKernel:
    """Parse ``{"type": "rbf"|"constant_one"|"table", ...}``."""
    if not isinstance(obj, dict):
        raise InputError("base kernel spec must be a JSON object")
    kind = obj.get("type")
    if kind == "rbf":
        if "gamma" not in obj:
            raise InputError('rbf base kernel needs a "gamma" field')
        return RBFKernel(_real_number(obj["gamma"], "gamma"))
    if kind == "constant_one":
        return constant_one()
    if kind == "table":
        if "labels" not in obj or "values" not in obj:
            raise InputError('table base kernel needs "labels" and "values" fields')
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise InputError('table "labels" must be a list of strings')
        try:
            return TableKernel(labels, obj["values"])
        except ConfigError as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"unknown base kernel type {kind!r}")


def base_kernel_to_json_obj(spec: BaseKernel) -> dict:
    if isinstance(spec, RBFKernel):
        return {"type": "rbf", "gamma": spec.gamma}
    if isinstance(spec, TableKernel):
        if spec == constant_one():
            return {"type": "constant_one"}
        return {
            "type": "table",
            "labels": list(spec.labels),
            "values": [list(map(float, row)) for row in spec.matrix()],
        }
    raise InputError(f"unknown base kernel spec {spec!r}")
