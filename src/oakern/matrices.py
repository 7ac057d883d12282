"""Labeled symmetric matrices and their file formats.

Gram matrices are symmetric by construction: assembly fills one triangle
and mirrors it, so the symmetry invariant is structural rather than a
numerical afterthought. Files come in two flavors, JSON with labels
(``{"labels": [...], "values": [[...]]}``) and header-free row-major CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .serialize import dumps_json, loads_json, matrix_from_csv, matrix_to_csv


def symmetric_array(values) -> np.ndarray:
    """A float copy of ``values``, checked square, non-empty, finite and exactly symmetric."""
    # always copy: containers freeze their storage, callers keep theirs writable
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries must be numbers in equal-length rows: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InputError("empty matrix")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix contains non-finite entries")
    if not np.array_equal(arr, arr.T):
        raise InputError("matrix is not exactly symmetric")
    return arr


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric matrix of pairwise kernel values with display labels."""

    labels: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = symmetric_array(self.values)
        if len(self.labels) != arr.shape[0]:
            raise InputError(
                f"{len(self.labels)} labels for a {arr.shape[0]}x{arr.shape[0]} matrix"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_triangle(cls, labels: Sequence[str], entry: Callable[[int, int], float]) -> "GramMatrix":
        """Build from ``entry(i, j)`` evaluated only for i <= j, mirrored exactly."""
        n = len(labels)
        arr = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                value = float(entry(i, j))
                arr[i, j] = value
                arr[j, i] = value
        return cls(tuple(labels), arr)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def entry(self, row_label: str, col_label: str) -> float:
        return float(self.values[self.index_of(row_label), self.index_of(col_label)])

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "values": [list(map(float, row)) for row in self.values]}


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Pairwise distances recovered from a Gram matrix.

    ``squared`` holds the (clamped) squared distances alongside the roots in
    ``values``; identities on these quantities are exact in squared form, so
    both are kept. ``violations`` lists (i, j, raw) triples whose raw squared
    distance fell below -1e-9: evidence that no metric embedding exists, as
    opposed to round-off, which is clamped silently.
    """

    labels: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    squared: np.ndarray = field(repr=False)
    violations: tuple[tuple[int, int, float], ...] = ()

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def distance(self, a: str, b: str) -> float:
        return float(self.values[self.index_of(a), self.index_of(b)])

    def distance_sq(self, a: str, b: str) -> float:
        return float(self.squared[self.index_of(a), self.index_of(b)])


def default_labels(n: int, prefix: str = "m") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def matrix_to_text(gram: GramMatrix, fmt: str) -> str:
    if fmt == "json":
        return dumps_json(gram.to_json_obj())
    if fmt == "csv":
        return matrix_to_csv(gram.values)
    raise InputError(f"unknown matrix format {fmt!r}")


def save_matrix(gram: GramMatrix, path: str | Path, fmt: str) -> None:
    Path(path).write_text(matrix_to_text(gram, fmt), encoding="utf-8")


def matrix_from_json_obj(obj) -> GramMatrix:
    if not isinstance(obj, dict) or "values" not in obj:
        raise InputError('matrix JSON must be an object with a "values" field')
    values = obj["values"]
    labels = obj.get("labels")
    if labels is None:
        labels = default_labels(symmetric_array(values).shape[0])
    return GramMatrix(tuple(labels), values)


def load_matrix(path: str | Path) -> GramMatrix:
    """Read a symmetric matrix from a .json or .csv file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        return matrix_from_json_obj(loads_json(text))
    if path.suffix == ".csv":
        rows = matrix_from_csv(text)
        return GramMatrix(default_labels(len(rows)), rows)
    raise InputError(f"unsupported matrix file extension {path.suffix!r} (use .json or .csv)")
