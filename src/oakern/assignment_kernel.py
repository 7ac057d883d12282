"""The optimal assignment kernel on tuples and its Gram matrices.

The similarity of two tuples is the best total base-kernel value over all
injective matchings of the shorter tuple's elements into the longer one's.
Equal lengths are evaluated with the rows of the profit matrix taken from
the first argument; both orientations provably agree, this just fixes one.

Gram assembly validates and stacks the elements of all tuples once, then
for each row tuple computes one profit block against the elements of that
tuple and every later one, O(L * sum L) memory. One solver call per row
block validates the block's profits and converts them to costs once, then
solves each entry of the upper triangle as a value-only assignment on a
column slice of those costs. ``profit_matrix`` and ``assignment_kernel``
run the same block and solver code on a single pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .base_kernel import (
    BaseKernel,
    Element,
    Point,
    as_point,
    kernel_block,
    parse_base_kernel,
    stack_elements,
)
from .errors import InputError
from .hungarian import block_assignment_values, max_assignment_value
from .matrices import GramMatrix
from .serialize import loads_json


@dataclass(frozen=True)
class TupleObject:
    """An ordered, non-empty tuple of base-set elements with a display label."""

    elements: tuple[Element, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.elements) == 0:
            raise InputError("tuples must contain at least one element")
        coerced = tuple(e if isinstance(e, str) else as_point(e) for e in self.elements)
        object.__setattr__(self, "elements", coerced)
        object.__setattr__(self, "label", str(self.label))

    def __len__(self) -> int:
        return len(self.elements)


def profit_matrix(x: TupleObject, y: TupleObject, base: BaseKernel) -> np.ndarray:
    """|x| x |y| matrix of base-kernel values between the tuples' elements."""
    return kernel_block(base, stack_elements(base, x.elements), stack_elements(base, y.elements))


def assignment_kernel(x: TupleObject, y: TupleObject, base: BaseKernel) -> float:
    """Best total base-kernel value over injections of the shorter tuple."""
    return max_assignment_value(profit_matrix(x, y, base))


def gram_labels(tuples: Sequence[TupleObject]) -> tuple[str, ...]:
    return tuple(t.label if t.label else f"t{i}" for i, t in enumerate(tuples))


def gram_matrix(tuples: Sequence[TupleObject], base: BaseKernel) -> GramMatrix:
    """Pairwise kernel values; the upper triangle is computed and mirrored."""
    if not tuples:
        raise InputError("need at least one tuple")
    stack = stack_elements(base, [e for t in tuples for e in t.elements])
    ends = np.cumsum([len(t) for t in tuples]).tolist()
    starts = [end - len(t) for end, t in zip(ends, tuples)]
    n = len(tuples)
    values = np.empty((n, n))
    for i in range(n):
        first = starts[i]
        block = kernel_block(base, stack[first:ends[i]], stack[first:])
        ranges = [(starts[j] - first, ends[j] - first) for j in range(i, n)]
        values[i, i:] = values[i:, i] = block_assignment_values(block, ranges)
    return GramMatrix(gram_labels(tuples), values)


def _parse_element(obj) -> Element:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return Point(tuple(obj))
    raise InputError(
        f"tuple element must be a coordinate list or a label string, got {obj!r}"
    )


def parse_tuple_dataset(obj) -> tuple[BaseKernel, tuple[TupleObject, ...]]:
    """Parse ``{"base_kernel": {...}, "tuples": [{"label": ..., "elements": [...]}]}``.

    Labels are optional; missing ones are filled in as "t0", "t1", ...
    """
    if not isinstance(obj, dict):
        raise InputError("dataset must be a JSON object")
    if "base_kernel" not in obj or "tuples" not in obj:
        raise InputError('dataset needs "base_kernel" and "tuples" fields')
    base = parse_base_kernel(obj["base_kernel"])
    raw_tuples = obj["tuples"]
    if not isinstance(raw_tuples, list) or not raw_tuples:
        raise InputError('"tuples" must be a non-empty list')
    parsed = []
    for i, entry in enumerate(raw_tuples):
        if not isinstance(entry, dict) or "elements" not in entry:
            raise InputError(f'tuple #{i} must be an object with an "elements" field')
        elements = entry["elements"]
        if not isinstance(elements, list):
            raise InputError(f'tuple #{i}: "elements" must be a list')
        parsed.append(
            TupleObject(
                elements=tuple(_parse_element(e) for e in elements),
                label=str(entry.get("label", f"t{i}")),
            )
        )
    return base, tuple(parsed)


def load_tuple_dataset(path: str | Path) -> tuple[BaseKernel, tuple[TupleObject, ...]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_tuple_dataset(loads_json(text))
