"""Assignment solver against the exhaustive oracle and its algebraic laws."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from oakern.errors import InputError, NumericError
from oakern.hungarian import (
    Assignment,
    _lap_min,
    block_assignment_values,
    brute_force_assignment,
    max_assignment_value,
    solve_max_assignment,
)

DATA = Path(__file__).parent / "data"

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


def profit_matrices(max_rows=5, max_cols=6, elements=unit_floats):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: arrays(np.float64, (m, n), elements=elements)
        )
    )


def selected_sum(P, assignment: Assignment):
    P = np.asarray(P, dtype=float)
    total = 0.0
    for small, large in assignment.pairs:
        # (row, column) pairs when m <= n, (column, row) pairs otherwise
        i, j = (large, small) if P.shape[0] > P.shape[1] else (small, large)
        total += P[i, j]
    return total


def assert_optimal_pairing(P, assignment: Assignment, tol=0.0):
    """The pairing injects the shorter side and its profits reach the oracle's optimum."""
    P = np.asarray(P, dtype=float)
    oracle = brute_force_assignment(P)
    assert [small for small, _ in assignment.pairs] == list(range(min(P.shape)))
    image = [large for _, large in assignment.pairs]
    assert len(set(image)) == len(image)
    assert all(0 <= j < max(P.shape) for j in image)
    assert abs(selected_sum(P, assignment) - oracle.value) <= tol


def test_single_cell():
    asg = solve_max_assignment([[5.0]])
    assert asg.value == 5.0
    assert asg.pairs == ((0, 0),)
    assert brute_force_assignment([[5.0]]).value == 5.0


def test_two_by_two_cross_pairing():
    # profit matrix [[a^2, a], [a, a^2]] built from the unit square's RBF
    # values; the off-diagonal pairing wins since a > a^2 for 0 < a < 1
    a = math.exp(-1.0)
    P = [[a * a, a], [a, a * a]]
    asg = solve_max_assignment(P)
    assert asg.pairs == ((0, 1), (1, 0))
    assert asg.value == pytest.approx(2 * a, abs=1e-12)
    assert asg.value == pytest.approx(0.73575888234288465, abs=1e-12)
    brute = brute_force_assignment(P)
    assert brute.pairs == asg.pairs
    assert brute.value == asg.value


def test_brute_force_identity_optimum():
    asg = brute_force_assignment([[1.0, 0.0], [0.0, 1.0]])
    assert asg.value == 2.0
    assert asg.pairs == ((0, 0), (1, 1))


def test_fixture_2x2_matches_brute_force():
    P = np.loadtxt(DATA / "profits_2x2.csv", delimiter=",", ndmin=2)
    a = math.exp(-1.0)
    assert solve_max_assignment(P).value == pytest.approx(2 * a, abs=1e-12)


def test_fixture_3x5_hand_enumerated_optimum():
    P = np.loadtxt(DATA / "profits_3x5.csv", delimiter=",", ndmin=2)
    asg = solve_max_assignment(P)
    # hand enumeration: 0.9 + 0.6 + 0.9 beats every alternative
    assert asg.value == pytest.approx(2.4, abs=1e-12)
    assert asg.pairs == ((0, 0), (1, 2), (2, 1))
    assert brute_force_assignment(P).pairs == asg.pairs


def test_constant_matrices_pairings_are_optimal_and_deterministic():
    # every pairing ties; any injection is optimal, and repeated calls agree
    for shape in [(3, 3), (2, 4), (4, 2)]:
        asg = solve_max_assignment(np.ones(shape))
        assert_optimal_pairing(np.ones(shape), asg)
        assert asg.value == min(shape)
        assert asg == solve_max_assignment(np.ones(shape))
    # a tall matrix injects its columns: two pairs, each into one of the four rows
    assert [c for c, _ in solve_max_assignment(np.ones((4, 2))).pairs] == [0, 1]
    # the oracle keeps its own lexicographic tie rule
    assert brute_force_assignment(np.ones((3, 3))).pairs == ((0, 0), (1, 1), (2, 2))


@given(profit_matrices())
@settings(max_examples=150)
def test_matches_brute_force(P):
    asg = solve_max_assignment(P)
    oracle = brute_force_assignment(P)
    assert abs(asg.value - oracle.value) <= 1e-12
    assert [d for d, _ in asg.pairs] == [d for d, _ in oracle.pairs]
    assert asg.value == pytest.approx(selected_sum(P, asg), abs=1e-12)
    assert asg.value == max_assignment_value(P)
    assert solve_max_assignment(P.T).value == max_assignment_value(P.T)
    assert asg == solve_max_assignment(P.copy())


@given(profit_matrices(elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
@settings(max_examples=150)
def test_exact_ties_agree_with_oracle(P):
    # dyadic entries make every sum exact, so the pairing's profits must
    # reach the oracle's optimum bit for bit, whichever tied pairing it is
    asg = solve_max_assignment(P)
    oracle = brute_force_assignment(P)
    assert asg.value == oracle.value
    assert_optimal_pairing(P, asg)
    assert max_assignment_value(P) == oracle.value


@given(profit_matrices(max_rows=8, max_cols=8))
@settings(max_examples=150)
def test_value_path_matches_oracle(P):
    assert abs(max_assignment_value(P) - brute_force_assignment(P).value) <= 1e-12
    asg = solve_max_assignment(P)
    assert asg.value == max_assignment_value(P)
    assert solve_max_assignment(P.T).value == max_assignment_value(P.T)
    assert asg == solve_max_assignment(P.copy())


def test_overflowing_total_rejected():
    P = [[1e308, 1e308], [1e308, 1e308]]
    with pytest.raises(NumericError):
        solve_max_assignment(P)
    with pytest.raises(NumericError):
        max_assignment_value(P)


@given(profit_matrices(), st.randoms(use_true_random=False))
def test_permutation_invariance(P, rnd):
    rows = list(range(P.shape[0]))
    cols = list(range(P.shape[1]))
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    shuffled = P[np.ix_(rows, cols)]
    assert abs(solve_max_assignment(P).value - solve_max_assignment(shuffled).value) <= 1e-12


@given(profit_matrices(), st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_constant_shift(P, c):
    base = solve_max_assignment(P).value
    shifted = solve_max_assignment(P + c).value
    assert abs(shifted - (base + c * min(P.shape))) <= 1e-12


@given(profit_matrices())
def test_transpose_symmetry(P):
    assert abs(solve_max_assignment(P).value - solve_max_assignment(P.T).value) <= 1e-12


@given(profit_matrices())
def test_pairing_is_injective(P):
    asg = solve_max_assignment(P)
    assert len(asg.pairs) == min(P.shape)
    domain = [i for i, _ in asg.pairs]
    image = [j for _, j in asg.pairs]
    assert domain == sorted(set(domain))
    assert len(set(image)) == len(image)


@pytest.mark.parametrize(
    "bad",
    [
        [[1.0, -0.5], [0.0, 1.0]],
        [[float("nan")]],
        [[float("inf")]],
        np.zeros((0, 3)),
        [1.0, 2.0],
    ],
)
def test_invalid_profits_rejected(bad):
    with pytest.raises(InputError):
        solve_max_assignment(bad)
    with pytest.raises(InputError):
        max_assignment_value(bad)
    with pytest.raises(InputError):
        brute_force_assignment(bad)


def test_oracle_size_cap():
    with pytest.raises(InputError):
        brute_force_assignment(np.ones((9, 9)))
    # rectangular matrices only cap the shorter side
    assert brute_force_assignment(np.ones((2, 9))).value == 2.0


def test_seeded_rectangular_corpus():
    rng = np.random.default_rng(20240811)
    for _ in range(60):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        P = rng.random((m, n))
        asg = solve_max_assignment(P)
        oracle = brute_force_assignment(P)
        assert abs(asg.value - oracle.value) <= 1e-12
        assert_optimal_pairing(P, asg, 1e-12)


# ------------------------------------------------ the solver core's duals

def check_core(P, slack_tol):
    """_lap_min on the negated profits returns an optimal matching and optimal duals."""
    wide = P.T if P.shape[0] > P.shape[1] else P
    cost = (-wide).tolist()
    col_of_row, u, v = _lap_min(cost)
    k, width = wide.shape
    assert len(set(col_of_row)) == k
    for i in range(k):
        for j in range(width):
            assert u[i] + v[j] <= cost[i][j] + slack_tol  # dual feasibility
        j = col_of_row[i]
        assert abs(u[i] + v[j] - cost[i][j]) <= slack_tol  # tight on assigned edges
    for j in set(range(width)) - set(col_of_row):
        assert v[j] == 0.0
    value = sum(float(wide[i, j]) for i, j in enumerate(col_of_row))
    assert abs(value - brute_force_assignment(P).value) <= 1e-12
    return col_of_row, u, v


@given(profit_matrices(max_rows=6, max_cols=6))
@settings(max_examples=150)
def test_core_duals_on_random_costs(P):
    check_core(P, 1e-12)


@given(profit_matrices(max_rows=6, max_cols=6,
                       elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
@settings(max_examples=150)
def test_core_duals_on_dyadic_ties(P):
    # dyadic entries keep every potential exact
    check_core(P, 0.0)
    assert_optimal_pairing(P, solve_max_assignment(P))


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 7)])
def test_core_on_equal_rows(shape):
    # the constant_one shape: only the first row gets its cheapest column greedily
    P = np.ones(shape)
    _, u, v = check_core(P, 0.0)
    assert u == [-1.0] * shape[0]
    assert v == [0.0] * shape[1]
    assert_optimal_pairing(P, solve_max_assignment(P))


def test_core_on_diagonal_dominant_rows():
    # every row's cheapest column is its own, so the greedy start places all of them
    P = np.array([[4.0, 1.0, 0.5, 0.0, 2.0],
                  [0.25, 3.0, 1.0, 2.0, 0.0],
                  [1.0, 0.5, 5.0, 0.0, 0.75],
                  [0.0, 0.0, 0.5, 2.5, 1.0]])
    col_of_row, u, v = check_core(P, 0.0)
    assert col_of_row == [0, 1, 2, 3]
    assert u == [-4.0, -3.0, -5.0, -2.5]
    assert v == [0.0] * 5
    assert_optimal_pairing(P, solve_max_assignment(P))


@given(profit_matrices(max_rows=4, max_cols=12), st.randoms(use_true_random=False))
def test_block_values_match_each_slice(P, rnd):
    width = P.shape[1]
    cuts = sorted(rnd.sample(range(1, width), rnd.randint(0, width - 1)))
    ranges = list(zip([0] + cuts, cuts + [width]))
    got = block_assignment_values(P, ranges)
    assert len(got) == len(ranges)
    for value, (start, end) in zip(got, ranges):
        assert abs(value - brute_force_assignment(P[:, start:end]).value) <= 1e-12
        assert value == max_assignment_value(P[:, start:end])


tie_profits = st.sampled_from([0.0, 0.5, 1.0])


@given(st.integers(1, 6), st.lists(st.integers(1, 8), min_size=1, max_size=4), st.data())
def test_block_values_match_the_oracle_on_tied_profits(rows, widths, data):
    # table-style profits tie heavily; the shorter side is at most 6, and ranges
    # narrower than the block is tall are solved on its transpose
    ends = np.cumsum(widths).tolist()
    ranges = [(end - w, end) for end, w in zip(ends, widths)]
    P = data.draw(arrays(np.float64, (rows, ends[-1]), elements=tie_profits))
    got = block_assignment_values(P, ranges)
    assert got == [brute_force_assignment(P[:, start:end]).value for start, end in ranges]


# ------------------------------------ an independent oracle past the brute force's cap

LARGE_BLOCKS = {
    "random": lambda rng, shape: rng.random(shape),
    "all ones": lambda rng, shape: np.ones(shape),
    "quarter steps": lambda rng, shape: rng.integers(0, 5, shape) / 4.0,
}


def scipy_max_value(P):
    rows, cols = linear_sum_assignment(P, maximize=True)
    return float(P[rows, cols].sum())


@pytest.mark.parametrize("kind", sorted(LARGE_BLOCKS))
def test_values_match_scipy_on_sides_9_to_60(kind):
    # ties and dyadic entries make every total exact, so those must agree bit for bit
    rel = 1e-12 if kind == "random" else 0.0
    rng = np.random.default_rng(60)
    make = LARGE_BLOCKS[kind]
    for _ in range(40):
        P = make(rng, tuple(rng.integers(9, 61, size=2)))
        want = scipy_max_value(P)
        assert abs(max_assignment_value(P) - want) <= rel * want
    block = make(rng, (int(rng.integers(9, 61)), 160))
    ranges = [(0, 9), (9, 40), (40, 100), (100, 112), (112, 160)]
    for value, (start, end) in zip(block_assignment_values(block, ranges), ranges):
        want = scipy_max_value(block[:, start:end])
        assert abs(value - want) <= rel * want
