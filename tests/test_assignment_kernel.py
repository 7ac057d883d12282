"""Tuple kernel semantics, Gram assembly and dataset parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oakern import cli
from oakern.assignment_kernel import (
    TupleObject,
    assignment_kernel,
    gram_matrix,
    parse_tuple_dataset,
    profit_matrix,
)
from oakern.base_kernel import Point, RBFKernel, TableKernel, constant_one, eval_base
from oakern.counterexample import build_square_config, expected_gram_closed_form
from oakern.errors import InputError
from oakern.hungarian import brute_force_assignment, solve_max_assignment
from oakern.serialize import dumps_json

RBF1 = RBFKernel(gamma=1.0)

coords = st.integers(min_value=-20, max_value=20).map(lambda i: i / 4)
points = st.tuples(coords, coords)
tuple_objects = st.lists(points, min_size=1, max_size=6).map(
    lambda pts: TupleObject(elements=tuple(pts))
)


def square_tuple(pair):
    config = build_square_config(1.0)
    return TupleObject(elements=(config.points[pair[0]], config.points[pair[1]]), label=pair)


def test_known_pair_values():
    a = math.exp(-1.0)
    assert assignment_kernel(square_tuple("AB"), square_tuple("AC"), RBF1) == pytest.approx(
        1 + a, abs=1e-12
    )
    assert assignment_kernel(square_tuple("AB"), square_tuple("AB"), RBF1) == 2.0


def test_min_length_under_constant_one():
    x = TupleObject(elements=("1",) * 3)
    y = TupleObject(elements=("1",) * 5)
    assert assignment_kernel(x, y, constant_one()) == 3.0
    assert assignment_kernel(y, x, constant_one()) == 3.0


@given(tuple_objects, tuple_objects)
@settings(max_examples=100)
def test_symmetry(x, y):
    assert abs(
        assignment_kernel(x, y, RBF1) - assignment_kernel(y, x, RBF1)
    ) <= 1e-12


@given(tuple_objects, st.randoms(use_true_random=False))
def test_order_invariance(x, rnd):
    shuffled = list(x.elements)
    rnd.shuffle(shuffled)
    y = TupleObject(elements=tuple(shuffled))
    fixed = TupleObject(elements=((0.25, 0.5), (1.0, -0.75), (2.0, 0.0)))
    assert abs(
        assignment_kernel(x, fixed, RBF1) - assignment_kernel(y, fixed, RBF1)
    ) <= 1e-12


@given(tuple_objects)
def test_self_value_is_length(x):
    assert assignment_kernel(x, x, RBF1) == float(len(x))


@given(tuple_objects, tuple_objects)
def test_upper_bound(x, y):
    P = profit_matrix(x, y, RBF1)
    value = assignment_kernel(x, y, RBF1)
    assert value <= min(len(x), len(y)) * float(P.max()) + 1e-9


@given(tuple_objects, tuple_objects)
@settings(max_examples=100)
def test_matches_brute_force_oracle(x, y):
    P = profit_matrix(x, y, RBF1)
    assert abs(assignment_kernel(x, y, RBF1) - brute_force_assignment(P).value) <= 1e-12


@given(st.integers(1, 30), st.integers(1, 30))
def test_constant_one_gives_min_kernel(nx, ny):
    x = TupleObject(elements=("1",) * nx)
    y = TupleObject(elements=("1",) * ny)
    assert assignment_kernel(x, y, constant_one()) == float(min(nx, ny))


def test_square_pairs_gram_matches_closed_form():
    config = build_square_config(1.0)
    gram = gram_matrix(config.tuples(), config.base())
    closed = expected_gram_closed_form(1.0)
    assert gram.labels == closed.labels
    assert np.max(np.abs(gram.values - closed.values)) <= 1e-12


def test_single_tuple_gram_is_length():
    x = TupleObject(elements=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), label="x")
    gram = gram_matrix([x], RBF1)
    assert gram.labels == ("x",)
    assert gram.values[0, 0] == 3.0


def test_identical_tuples_gram_is_constant():
    x = TupleObject(elements=((0.5, 0.5), (1.5, -0.5)))
    gram = gram_matrix([x, x], RBF1)
    assert np.all(gram.values == gram.values[0, 0])


def test_gram_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    tuples = [
        TupleObject(elements=tuple(map(tuple, rng.random((k, 2)))))
        for k in (1, 2, 3, 4)
    ]
    gram = gram_matrix(tuples, RBF1)
    assert np.array_equal(gram.values, gram.values.T)
    assert gram.labels == ("t0", "t1", "t2", "t3")


def test_empty_tuple_rejected():
    with pytest.raises(InputError):
        TupleObject(elements=())
    with pytest.raises(InputError):
        gram_matrix([], RBF1)


def test_parse_dataset_round_trip():
    obj = {
        "base_kernel": {"type": "rbf", "gamma": 1.0},
        "tuples": [
            {"label": "AB", "elements": [[0.0, 0.0], [1.0, 0.0]]},
            {"elements": [[1.0, 1.0]]},
        ],
    }
    base, tuples = parse_tuple_dataset(obj)
    assert base == RBF1
    assert tuples[0].label == "AB"
    assert tuples[0].elements == (Point((0.0, 0.0)), Point((1.0, 0.0)))
    assert tuples[1].label == "t1"


def test_parse_dataset_with_labels():
    obj = {
        "base_kernel": {"type": "constant_one"},
        "tuples": [{"elements": ["1", "1", "1"]}],
    }
    base, tuples = parse_tuple_dataset(obj)
    assert assignment_kernel(tuples[0], tuples[0], base) == 3.0


@pytest.mark.parametrize(
    "obj",
    [
        "nope",
        {"tuples": []},
        {"base_kernel": {"type": "rbf", "gamma": 1.0}, "tuples": []},
        {"base_kernel": {"type": "rbf", "gamma": 1.0}, "tuples": [{"elements": 3}]},
        {"base_kernel": {"type": "rbf", "gamma": 1.0}, "tuples": [{"elements": [7]}]},
        {"base_kernel": {"type": "rbf", "gamma": 1.0}, "tuples": ["x"]},
    ],
)
def test_parse_dataset_errors(obj):
    with pytest.raises(InputError):
        parse_tuple_dataset(obj)


# ------------------------------------------------ batched Gram assembly

TABLE = TableKernel(("a", "b", "c"), [[1.0, 0.5, 0.0], [0.5, 2.0, 0.25], [0.0, 0.25, 1.0]])
# coarse coordinates repeat points and profits, so tied optima are common
coarse_tuples = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                                   st.sampled_from([0.0, 1.0])),
                         min_size=1, max_size=7).map(lambda pts: TupleObject(elements=tuple(pts)))
label_tuples = st.lists(st.sampled_from("abc"), min_size=1, max_size=7).map(
    lambda labels: TupleObject(elements=tuple(labels))
)
ones_tuples = st.integers(1, 9).map(lambda k: TupleObject(elements=("1",) * k))
cases = st.one_of(
    st.tuples(st.just(RBF1), st.lists(tuple_objects, min_size=1, max_size=6)),
    st.tuples(st.just(RBFKernel(gamma=0.7)), st.lists(coarse_tuples, min_size=1, max_size=6)),
    st.tuples(st.just(TABLE), st.lists(label_tuples, min_size=1, max_size=6)),
    st.tuples(st.just(constant_one()), st.lists(ones_tuples, min_size=1, max_size=6)),
)


def loop_profits(x, y, base):
    """The per-element reference: one eval_base call per profit entry."""
    return np.array([[eval_base(base, u, v) for v in y.elements] for u in x.elements])


@given(cases)
@settings(max_examples=150)
def test_gram_matches_per_pair_solver(case):
    base, tuples = case
    gram = gram_matrix(tuples, base).values
    for i, x in enumerate(tuples):
        for j, y in enumerate(tuples):
            # both orientations: the row tuple's elements as rows, then as columns
            want = solve_max_assignment(loop_profits(x, y, base)).value
            assert abs(gram[i, j] - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(assignment_kernel(x, y, base) - want) <= 1e-12 * max(1.0, abs(want))


@given(cases)
def test_profit_matrix_matches_per_element_loop(case):
    base, tuples = case
    x, y = tuples[0], tuples[-1]
    got = profit_matrix(x, y, base)
    want = loop_profits(x, y, base)
    assert got.shape == want.shape
    # numpy's exp and the C library's may round the last bit apart
    assert np.all(np.abs(got - want) <= 2.0**-52 * np.maximum(1.0, np.abs(want)))


@given(cases, st.randoms(use_true_random=False))
def test_gram_permutes_with_the_tuples(case, rnd):
    base, tuples = case
    order = list(range(len(tuples)))
    rnd.shuffle(order)
    gram = gram_matrix(tuples, base).values
    permuted = gram_matrix([tuples[k] for k in order], base).values
    assert np.all(np.abs(permuted - gram[np.ix_(order, order)]) <= 1e-12 * np.maximum(1.0, np.abs(gram)))


def test_far_apart_points_have_zero_profit():
    # squared distances overflow float64; the per-element path gives 0 without a warning
    x = TupleObject(elements=((1e200, 0.0), (0.0, 0.0)))
    y = TupleObject(elements=((-1e200, 0.0),))
    assert profit_matrix(x, y, RBF1).tolist() == [[0.0], [0.0]]
    assert gram_matrix([x, y], RBF1).values[0, 1] == 0.0
    # finite squared distance 1e300, but gamma * distance overflows
    steep = RBFKernel(1e10)
    x = TupleObject(elements=((1e150,),))
    y = TupleObject(elements=((0.0,),))
    assert profit_matrix(x, y, steep).tolist() == [[0.0]]
    assert gram_matrix([x, y], steep).values[0, 1] == 0.0


BAD_DATASETS = {
    "mixed point dimensions": {
        "base_kernel": {"type": "rbf", "gamma": 1.0},
        "tuples": [{"elements": [[0.0, 0.0]]}, {"elements": [[0.0, 0.0, 1.0]]}],
    },
    "unknown table label": {
        "base_kernel": {"type": "table", "labels": ["a", "b"], "values": [[1, 0], [0, 1]]},
        "tuples": [{"elements": ["a"]}, {"elements": ["b", "z"]}],
    },
    "label under an rbf kernel": {
        "base_kernel": {"type": "rbf", "gamma": 1.0},
        "tuples": [{"elements": [[0.0, 0.0]]}, {"elements": [[1.0, 0.0], "a"]}],
    },
    "point under a table kernel": {
        "base_kernel": {"type": "constant_one"},
        "tuples": [{"elements": ["1", "1"]}, {"elements": [[0.0]]}],
    },
    "negative table entry": {
        "base_kernel": {"type": "table", "labels": ["a", "b"], "values": [[1, -0.5], [-0.5, 1]]},
        "tuples": [{"elements": ["a"]}, {"elements": ["b"]}],
    },
    "string gamma": {
        "base_kernel": {"type": "rbf", "gamma": "x"},
        "tuples": [{"elements": [[0.0]]}],
    },
    "list gamma": {
        "base_kernel": {"type": "rbf", "gamma": [1]},
        "tuples": [{"elements": [[0.0]]}],
    },
    "string coordinate": {
        "base_kernel": {"type": "rbf", "gamma": 1.0},
        "tuples": [{"elements": [[0.0, "a"]]}],
    },
    "number as table labels": {
        "base_kernel": {"type": "table", "labels": 5, "values": [[1]]},
        "tuples": [{"elements": ["a"]}],
    },
    "string as table labels": {
        "base_kernel": {"type": "table", "labels": "ab", "values": [[1, 0], [0, 1]]},
        "tuples": [{"elements": ["a"]}],
    },
    "string table entry": {
        "base_kernel": {"type": "table", "labels": ["a"], "values": [["x"]]},
        "tuples": [{"elements": ["a"]}],
    },
}

# malformed fields: the dataset itself is rejected, before any kernel value
REJECTED_AT_PARSE = {
    "string gamma",
    "list gamma",
    "string coordinate",
    "number as table labels",
    "string as table labels",
    "string table entry",
}


@pytest.mark.parametrize("name", sorted(BAD_DATASETS))
def test_gram_input_errors(name, tmp_path, capsys):
    if name in REJECTED_AT_PARSE:
        with pytest.raises(InputError):
            parse_tuple_dataset(BAD_DATASETS[name])
    else:
        base, tuples = parse_tuple_dataset(BAD_DATASETS[name])
        with pytest.raises(InputError):
            gram_matrix(tuples, base)
        with pytest.raises(InputError):
            assignment_kernel(tuples[0], tuples[-1], base)

    path = tmp_path / "bad.json"
    path.write_text(dumps_json(BAD_DATASETS[name]), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["gram", "--input", str(path), "--output", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
