"""Exact maximum-total-profit assignment for rectangular matrices.

The shorter side of the matrix is injected into the longer one, so a
pairing always has min(m, n) pairs. There is one cost convention, the
negated profits, and one solve: the O(k^2 width) shortest augmenting path
form of the Hungarian method on the k x width problem, k <= width, taken
directly without padding. It starts from a greedy row reduction (Jonker &
Volgenant, 1987): each row takes its cheapest column, or the first free
column tied with it, and only the rows that find none go through a search.

- :func:`block_assignment_values` is the kernel's path. It takes one profit
  block and a list of column ranges, validates the block and converts it to
  cost lists once, and returns the optimal total of each range's assignment
  problem, building no pairing. :func:`max_assignment_value` is its
  one-range case.
- :func:`solve_max_assignment` is the same solve on the whole matrix, and
  also returns the solver's own pairing. Its value equals
  :func:`max_assignment_value` bit for bit; among equally good pairings,
  which one it returns is unspecified, but it is always the same one.

A total outside float64 range raises :class:`NumericError` on every path.

``brute_force_assignment`` is the independent oracle: it enumerates every
injection and must stay free of any code shared with the solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

_ORACLE_MAX_SIDE = 8
_ORACLE_CHUNK = 200_000


@dataclass(frozen=True)
class Assignment:
    """An optimal pairing of an m x n profit matrix.

    ``pairs`` maps indices of the shorter side to indices of the longer one,
    listed in increasing domain order: (row, column) pairs when m <= n,
    (column, row) pairs otherwise. ``value`` is the sum of the selected
    profit entries, accumulated in domain index order.
    """

    pairs: tuple[tuple[int, int], ...]
    value: float


def _validate_profits(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise InputError(f"profit matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError("profit matrix must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise InputError("profit matrix contains non-finite entries")
    if np.any(arr < 0.0):
        raise InputError("profit matrix contains negative entries")
    return arr


def _selection_value(wide: np.ndarray, mapping) -> float:
    # Python floats overflow to inf without numpy's RuntimeWarning on stderr
    total = 0.0
    for i, j in enumerate(mapping):
        total += float(wide[i, j])
    return total


def _checked_total(total: float) -> float:
    if not math.isfinite(total):
        raise NumericError(f"assignment total {total} is outside float64 range")
    return total


def _lap_min(cost: list[list[float]]):
    """Shortest-augmenting-path assignment of every row of a k x width cost, k <= width.

    ``cost`` is a list of k rows of equal length and finite entries. The
    start is a greedy row reduction (Jonker & Volgenant, "A shortest
    augmenting path algorithm for dense and sparse linear assignment
    problems", 1987): row i gets u[i] = its smallest cost and takes the
    first column with that cost that no earlier row holds, if there is one.
    The free columns are walked only when the first such column is taken
    and the minimum is tied, so untied rows pay one list count per
    collision. Each row left over is then matched by a Dijkstra search over
    reduced costs that scans only the columns not yet reached, preferring
    an unassigned column on ties (Crouse, "On implementing 2D rectangular
    assignment algorithms", 2016). Plain Python lists beat numpy here: the
    matrices are small and each search step touches at most ``width``
    entries.

    Returns ``(col_of_row, u, v)`` where the potentials satisfy
    u[i] + v[j] <= cost[i][j] with equality on assigned edges and v[j] = 0
    on unassigned columns. They are optimal duals: the certificate of
    optimality that the tests check. Callers use only ``col_of_row``; no
    pass canonicalizes the assignment over the tight edges.
    """
    k = len(cost)
    width = len(cost[0])
    inf = math.inf
    u = [0.0] * k
    v = [0.0] * width
    col_of_row = [-1] * k
    row_of_col = [-1] * width
    searches = []
    free = None  # unassigned columns in order, built at the first tied collision
    for i, row in enumerate(cost):
        lowest = min(row)
        u[i] = lowest
        j = row.index(lowest)
        if row_of_col[j] >= 0 and row.count(lowest) > 1:
            if free is None:
                free = [c for c in range(width) if row_of_col[c] < 0]
            for pos, c in enumerate(free):
                if row[c] == lowest and row_of_col[c] < 0:
                    j = c
                    del free[pos]
                    break
        if row_of_col[j] < 0:
            row_of_col[j] = i
            col_of_row[i] = j
        else:
            searches.append(i)
    for root in searches:
        shortest = [inf] * width
        path = [-1] * width
        remaining = list(range(width))
        scanned_rows = []
        scanned_cols = []
        reach = 0.0
        i = root
        sink = -1
        while sink < 0:
            scanned_rows.append(i)
            row = cost[i]
            offset = reach - u[i]
            lowest = inf
            pick = -1
            for pos, j in enumerate(remaining):
                r = offset + row[j] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row_of_col[j] < 0):
                    lowest = r
                    pick = pos
            reach = lowest
            j = remaining[pick]
            remaining[pick] = remaining[-1]
            remaining.pop()
            scanned_cols.append(j)
            if row_of_col[j] < 0:
                sink = j
            else:
                i = row_of_col[j]
        u[root] += reach
        for i in scanned_rows[1:]:
            u[i] += reach - shortest[col_of_row[i]]
        for j in scanned_cols:
            v[j] -= reach - shortest[j]
        j = sink
        while True:
            i = path[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == root:
                break
    return col_of_row, u, v


def _solve_range(cost_rows, cost_cols, start: int, end: int):
    """Optimal assignment of the column range ``start:end`` of one converted block.

    ``cost_rows`` and ``cost_cols`` are the negated profits as row lists and
    as column lists; ``cost_cols`` is read only for a range narrower than
    the block is tall. The shorter side of the range is the domain: the rows
    when there are no more rows than columns in the range, else the
    columns. Returns ``_lap_min``'s mapping of that domain into the longer
    side, with range-relative column indices, and the total of the selected
    profits summed in domain order (as ``total -= cost``, which is
    ``total += profit`` exactly).
    """
    total = 0.0
    if len(cost_rows) <= end - start:
        mapping, _, _ = _lap_min([row[start:end] for row in cost_rows])
        for i, j in enumerate(mapping):
            total -= cost_rows[i][start + j]
    else:
        mapping, _, _ = _lap_min(cost_cols[start:end])
        for j, i in enumerate(mapping, start):
            total -= cost_rows[i][j]
    return mapping, _checked_total(total)


def _cost_lists(P: np.ndarray, ranges):
    """The row lists of the negated profits, and their column lists if some range needs them.

    A range needs the column lists when it has fewer columns than ``P`` has
    rows; otherwise the second list is None.
    """
    cost = -P
    narrow = any(end - start < P.shape[0] for start, end in ranges)
    return cost.tolist(), cost.T.tolist() if narrow else None


def block_assignment_values(block, ranges) -> list[float]:
    """Maximum-profit assignment totals of column slices of one profit block.

    ``ranges`` lists ``(start, end)`` column ranges, each non-empty and
    inside the block; entry t of the result is the optimal total of
    ``block[:, start:end]`` for ``ranges[t]``, the shorter side injected into
    the longer one. The block is validated, and its costs (the negated
    profits: the greedy start needs no shift to nonnegative costs) are
    converted to row lists (and to column lists if some range is narrower
    than the block is tall), once for all ranges. Each total is
    summed from the profits in domain order. Raises :class:`InputError`
    for a block that :func:`solve_max_assignment` would reject, and
    :class:`NumericError` for a total outside float64 range.
    """
    lists = _cost_lists(_validate_profits(block), ranges)
    return [_solve_range(*lists, start, end)[1] for start, end in ranges]


def max_assignment_value(profits) -> float:
    """Total profit of a maximum-profit injection of the shorter side into the longer.

    Equals ``solve_max_assignment(profits).value`` exactly: both run the
    same solve and sum the same profits in the same order. No pairing is
    built.
    """
    P = _validate_profits(profits)
    whole = (0, P.shape[1])
    return _solve_range(*_cost_lists(P, [whole]), *whole)[1]


def solve_max_assignment(profits) -> Assignment:
    """Maximum-profit injective assignment of the shorter side into the longer.

    The pairing is optimal and deterministic: the same profits always give
    the same pairing. Which of several equally good pairings is returned is
    left unspecified.
    """
    P = _validate_profits(profits)
    whole = (0, P.shape[1])
    mapping, value = _solve_range(*_cost_lists(P, [whole]), *whole)
    return Assignment(pairs=tuple(enumerate(mapping)), value=value)


def brute_force_assignment(profits) -> Assignment:
    """Exhaustive oracle over every injection of the shorter side.

    Runtime grows factorially; the shorter side is capped at
    ``_ORACLE_MAX_SIDE``. Ties break to the lexicographically smallest
    mapping; that rule is the oracle's own, and :func:`solve_max_assignment`
    may return a different pairing of the same value.
    """
    P = _validate_profits(profits)
    wide = P.T if P.shape[0] > P.shape[1] else P
    k, width = wide.shape
    if k > _ORACLE_MAX_SIDE:
        raise InputError(
            f"oracle limited to min(m, n) <= {_ORACLE_MAX_SIDE}, got {k}"
        )

    rows = np.arange(k)
    best_value = -np.inf
    best_mapping: tuple[int, ...] | None = None
    perms = itertools.permutations(range(width), k)
    while True:
        chunk = np.array(list(itertools.islice(perms, _ORACLE_CHUNK)), dtype=np.intp)
        if chunk.size == 0:
            break
        chunk = chunk.reshape(-1, k)
        values = wide[rows[None, :], chunk].sum(axis=1)
        pos = int(np.argmax(values))  # first maximum = lexicographically smallest
        if values[pos] > best_value:
            best_value = float(values[pos])
            best_mapping = tuple(int(j) for j in chunk[pos])
    assert best_mapping is not None
    value = _selection_value(wide, best_mapping)
    return Assignment(pairs=tuple(enumerate(best_mapping)), value=float(value))
