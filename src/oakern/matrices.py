"""Symmetric matrices with display labels, and their file formats.

Gram matrices are symmetric by construction: assembly fills one triangle
and mirrors it, so the symmetry invariant is structural rather than a
numerical afterthought. Files come in two flavors, JSON with labels
(``{"labels": [...], "values": [[...]]}``) and header-free row-major CSV.
Labels are display data, carried through to files.

``symmetric_array`` owns the symmetric-matrix rule: every matrix the
package takes in, a Gram matrix file or a base kernel's table, passes
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .serialize import dumps_json, loads_json, matrix_from_csv, matrix_to_csv, real_number, string_list


def symmetric_array(values, what: str = "matrix") -> np.ndarray:
    """A float copy of ``values``, checked square, non-empty, finite and exactly symmetric.

    Rows given as lists, as read from JSON, must hold numbers by :func:`real_number`'s rule.
    ``what`` names the matrix in error messages.
    """
    if isinstance(values, list):
        values = [
            [real_number(x, f"a {what} entry") for x in row] if isinstance(row, list) else row
            for row in values
        ]
    # always copy: containers freeze their storage, callers keep theirs writable
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} entries must be numbers in equal-length rows: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square {what}, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise InputError(f"empty {what}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains non-finite entries")
    if not np.array_equal(arr, arr.T):
        raise InputError(f"{what} is not exactly symmetric")
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

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "values": [list(map(float, row)) for row in self.values]}


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"m{i}" for i in range(n))


def matrix_to_text(gram: GramMatrix, fmt: str) -> str:
    if fmt == "json":
        return dumps_json(gram.to_json_obj())
    if fmt == "csv":
        return matrix_to_csv(gram.values)
    raise InputError(f"unknown matrix format {fmt!r}")


def matrix_from_json_obj(obj) -> GramMatrix:
    if not isinstance(obj, dict) or "values" not in obj:
        raise InputError('matrix JSON must be an object with a "values" field')
    values = symmetric_array(obj["values"])
    labels = obj.get("labels")
    labels = default_labels(len(values)) if labels is None else string_list(labels, 'matrix "labels"')
    return GramMatrix(labels, values)


def load_matrix(path: str | Path) -> GramMatrix:
    """Read a symmetric matrix from a .json or .csv file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".json":
        return matrix_from_json_obj(loads_json(text))
    if path.suffix == ".csv":
        rows = matrix_from_csv(text)
        return GramMatrix(default_labels(len(rows)), rows)
    raise InputError(f"unsupported matrix file extension {path.suffix!r} (use .json or .csv)")
