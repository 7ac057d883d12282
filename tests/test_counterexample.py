"""End-to-end refutation driver, sweep, and the positive min-kernel case."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakern.counterexample import (
    PAIR_ORDER,
    SQUARE_POINTS,
    SQUARE_TUPLES,
    SWEEP_CSV_HEADER,
    expected_gram_closed_form,
    gamma_sweep,
    run_counterexample,
    sweep_to_csv,
    verify_min_kernel_psd,
)
from oakern.assignment_kernel import TupleObject, gram_matrix
from oakern.base_kernel import SINGLETON_LABEL, constant_one
from oakern.errors import InputError
from oakern.serialize import dumps_json, loads_json

GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)

# frozen from a 40-digit evaluation of the closed forms at gamma = 1
WITNESS_VALUE_G1 = -1.8603532634786370
GAP_G1 = 0.26962679482308734
HYP_EXPECTED_G1 = 1.8597469900643876
HYP_ACTUAL_G1 = 1.5901201952413002


def min_kernel_gram(lengths):
    """The Gram matrix of the repeat-tuples that verify_min_kernel_psd builds."""
    tuples = [TupleObject(elements=(SINGLETON_LABEL,) * n, label=f"len{n}") for n in lengths]
    return gram_matrix(tuples, constant_one())


def test_build_square_config():
    assert SQUARE_POINTS["A"].coords == (0.0, 0.0)
    assert SQUARE_POINTS["B"].coords == (1.0, 0.0)
    assert SQUARE_POINTS["C"].coords == (1.0, 1.0)
    assert SQUARE_POINTS["D"].coords == (0.0, 1.0)
    labels = [t.label for t in SQUARE_TUPLES]
    assert labels == list(PAIR_ORDER) == ["AB", "AC", "AD", "BC", "BD", "CD"]
    for t in SQUARE_TUPLES:
        assert t.elements == (SQUARE_POINTS[t.label[0]], SQUARE_POINTS[t.label[1]])
    assert run_counterexample(1.0)["a"] == math.exp(-1.0)


def test_config_gamma_log_two():
    assert run_counterexample(math.log(2.0))["a"] == pytest.approx(0.5, abs=1e-15)


def test_config_accepts_tiny_gamma():
    report = run_counterexample(1e-12)
    assert report["gamma"] == 1e-12
    assert 0.0 < report["a"] < 1.0


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(InputError):
        run_counterexample(gamma)
    with pytest.raises(InputError):
        expected_gram_closed_form(gamma)


def test_closed_form_entries():
    a = math.exp(-1.0)
    values = expected_gram_closed_form(1.0).values
    at = PAIR_ORDER.index
    assert values[at("AB"), at("AB")] == 2.0
    assert values[at("AB"), at("AC")] == pytest.approx(1 + a, abs=1e-15)
    assert values[at("AB"), at("AD")] == pytest.approx(1 + a * a, abs=1e-15)
    assert values[at("AB"), at("CD")] == pytest.approx(2 * a, abs=1e-15)


def test_closed_form_value_class_counts():
    a = math.exp(-1.0)
    values = expected_gram_closed_form(1.0).values
    flat = values[np.triu_indices(6, k=0)]
    counts = {
        2.0: 6,  # diagonal
        1.0 + a: 8,
        1.0 + a * a: 4,
        2.0 * a: 3,
    }
    for value, count in counts.items():
        assert int(np.sum(flat == value)) == count


@pytest.mark.parametrize("gamma", GRID)
def test_computed_gram_matches_closed_form(gamma):
    report = run_counterexample(gamma)
    assert report["max_abs_gram_diff"] <= 1e-12


def test_report_at_gamma_one():
    a = math.exp(-1.0)
    report = run_counterexample(1.0)

    assert report["refuted"]
    assert not report["psd_verdict"]["psd"]
    assert report["spectrum"]["min_eigenvalue"] <= -0.155
    # Rayleigh bound from the witness, whose squared norm is 12
    assert report["spectrum"]["min_eigenvalue"] <= (8 * a * a - 8 * a) / 12 + 1e-12

    assert report["witness_value"] == pytest.approx(8 * a * a - 8 * a, abs=1e-12)
    assert report["witness_value"] == pytest.approx(WITNESS_VALUE_G1, abs=1e-12)
    for value in report["null_direction_values"]:
        assert value == pytest.approx(0.0, abs=1e-12)

    for residual in report["pythagorean_residuals"]:
        assert abs(residual) <= 1e-12
    for side_sq in report["side_lengths_sq"]:
        assert side_sq == pytest.approx(2 - 2 * a * a, abs=1e-12)
    assert report["hyp_expected"] == pytest.approx(math.sqrt(4 - 4 * a * a), abs=1e-12)
    assert report["hyp_expected"] == pytest.approx(HYP_EXPECTED_G1, abs=1e-12)
    assert report["hyp_actual"] == pytest.approx(math.sqrt(4 - 4 * a), abs=1e-12)
    assert report["hyp_actual"] == pytest.approx(HYP_ACTUAL_G1, abs=1e-12)
    assert report["contradiction_gap"] == pytest.approx(GAP_G1, abs=1e-6)


def test_report_json_round_trip():
    report = run_counterexample(1.0)
    obj = loads_json(dumps_json(report))
    assert obj["refuted"] is True
    assert obj["gamma"] == 1.0
    assert obj["witness_value"] == report["witness_value"]
    assert obj["spectrum"]["min_eigenvalue"] == report["spectrum"]["min_eigenvalue"]
    assert obj["pair_order"] == list(PAIR_ORDER)


def test_report_json_layout():
    obj = run_counterexample(1.0)
    assert list(obj) == [
        "gamma", "a", "pair_order", "points", "gram_computed", "gram_closed_form",
        "max_abs_gram_diff", "spectrum", "psd_verdict", "witness", "witness_value",
        "null_directions", "null_direction_values", "pythagorean_residuals",
        "side_lengths_sq", "hyp_expected", "hyp_actual", "contradiction_gap",
        "refuted", "notes",
    ]
    assert obj["pair_order"] == ["AB", "AC", "AD", "BC", "BD", "CD"]
    assert obj["points"] == {"A": [0.0, 0.0], "B": [1.0, 0.0], "C": [1.0, 1.0], "D": [0.0, 1.0]}


def test_sweep_rows_consistent_with_single_runs():
    rows = gamma_sweep(GRID)
    assert len(rows) == len(GRID)
    a_values = [math.exp(-g) for g in GRID]
    for row, gamma, a in zip(rows, GRID, a_values):
        assert row["gamma"] == gamma
        assert row["a"] == a
        assert row["refuted"]
        assert row["spectrum"]["min_eigenvalue"] < 0.0
        # Rayleigh bound: the witness has squared norm 12
        assert row["spectrum"]["min_eigenvalue"] <= (8 * a * a - 8 * a) / 12 + 1e-12
        assert row["witness_value"] == pytest.approx(8 * a * a - 8 * a, abs=1e-12)
        assert row["contradiction_gap"] > 1e-6


def test_sweep_single_point_matches_run():
    row = gamma_sweep([1.0])[0]
    report = run_counterexample(1.0)
    assert row["spectrum"]["min_eigenvalue"] == report["spectrum"]["min_eigenvalue"]
    assert row["witness_value"] == report["witness_value"]
    assert row["contradiction_gap"] == report["contradiction_gap"]


def test_sweep_csv_format():
    text = sweep_to_csv(gamma_sweep([1.0]))
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == 6
    assert float(cells[0]) == 1.0
    assert float(cells[1]) == math.exp(-1.0)
    assert cells[5] == "true"


def test_sweep_rejects_empty_or_bad_grid():
    with pytest.raises(InputError):
        gamma_sweep([])
    with pytest.raises(InputError):
        gamma_sweep([1.0, -2.0])


def test_min_kernel_small_cases():
    verdict = verify_min_kernel_psd([1, 2, 3])
    assert verdict["entries_exact"]
    assert verdict["psd"]
    assert verdict["passed"]
    # the verdict keeps no matrix: the Gram on the same repeat-tuples is the literal min matrix
    assert np.array_equal(
        min_kernel_gram([1, 2, 3]).values,
        np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]]),
    )

    single = verify_min_kernel_psd([5])
    assert min_kernel_gram([5]).values.tolist() == [[5.0]]
    assert single["passed"]


def test_min_kernel_rejects_bad_lengths():
    with pytest.raises(InputError):
        verify_min_kernel_psd([])
    with pytest.raises(InputError):
        verify_min_kernel_psd([0])
    with pytest.raises(InputError):
        verify_min_kernel_psd([2, -3])
    with pytest.raises(InputError):
        verify_min_kernel_psd([1.5])


@pytest.mark.parametrize(
    "lengths",
    [[float("nan")], [float("inf")], [True, 2], [2, 2.0], [10**20], [2**63], [1, 4000]],
    ids=["nan", "inf", "bool", "float", "1e20", "2^63", "block past the bound"],
)
def test_min_kernel_lengths_are_integers_within_the_size_bound(lengths):
    # each is refused before any tuple is built, with the one input error
    with pytest.raises(InputError):
        verify_min_kernel_psd(lengths)


def test_min_kernel_takes_numpy_integers():
    verdict = verify_min_kernel_psd(np.array([3, 1], dtype=np.int64))
    assert verdict["lengths"] == [3, 1] and all(type(n) is int for n in verdict["lengths"])
    assert verdict["passed"]


@given(st.lists(st.integers(1, 50), min_size=1, max_size=8))
@settings(max_examples=30)
def test_min_kernel_random_multisets(lengths):
    verdict = verify_min_kernel_psd(lengths)
    assert verdict["entries_exact"]
    assert verdict["min_eigenvalue"] >= -1e-9
    assert verdict["passed"]

