"""Deterministic serialization and the rules for values read from files.

All floats are written with 17 significant digits, which round-trips any
binary64 value exactly, so piping artifacts between commands never loses
precision and identical inputs always produce byte-identical files.

Reading owns two input rules that every parser calls: ``real_number``
decides what counts as a number (gamma, coordinates, matrix, table and CSV
entries) and ``string_list`` what counts as a list of labels.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Any

import numpy as np

from .errors import InputError

_INDENT = 2


def real_number(value, what: str) -> float:
    """``value`` as a float; anything but a real number (a bool or a string included) is an InputError."""
    # plain int and float, all that JSON numbers parse to, skip the slower abstract-class check
    if type(value) not in (float, int):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} {value!r} is outside float64 range") from None


def string_list(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of strings; anything but a list of strings is an InputError."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{what} must be a list of strings")
    return tuple(value)


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def dumps_json(obj: Any) -> str:
    """Serialize nested dict/list/scalar data to JSON text.

    Unlike :func:`json.dumps` this pins float formatting to 17 significant
    digits. Dict keys are emitted in insertion order; callers build their
    documents in a fixed order, so output is byte-stable.
    """
    pieces: list[str] = []
    _write(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj: Any, out: list[str], level: int) -> None:
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _write_container(obj.items(), out, level, "{", "}", keyed=True)
    elif isinstance(obj, (list, tuple)):
        _write_container(obj, out, level, "[", "]", keyed=False)
    else:
        raise TypeError(f"unsupported JSON value of type {type(obj).__name__}")


def _write_container(items, out, level, open_ch, close_ch, keyed):
    items = list(items)
    if not items:
        out.append(open_ch + close_ch)
        return
    pad = " " * (_INDENT * (level + 1))
    out.append(open_ch)
    for pos, item in enumerate(items):
        out.append(",\n" if pos else "\n")
        out.append(pad)
        if keyed:
            key, value = item
            if not isinstance(key, str):
                raise TypeError("JSON object keys must be strings")
            out.append(json.dumps(key))
            out.append(": ")
            _write(value, out, level + 1)
        else:
            _write(item, out, level + 1)
    out.append("\n" + " " * (_INDENT * level) + close_ch)


def loads_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise InputError(f"invalid JSON: {exc}") from exc


def matrix_to_csv(values) -> str:
    """Row-major, header-free CSV with 17-significant-digit cells."""
    lines = [",".join(format_float(x) for x in row) for row in values]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    """Row-major, header-free CSV whose cells are JSON number literals."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        # a row parses as a JSON array of numbers iff each cell is one number literal
        try:
            cells = json.loads(f"[{line}]")
        except (ValueError, RecursionError) as exc:
            raise InputError(f"bad CSV cell on line {lineno}: cells must be JSON numbers") from exc
        rows.append([real_number(cell, f"CSV cell on line {lineno}") for cell in cells])
    if not rows:
        raise InputError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("ragged CSV matrix")
    return np.array(rows)
