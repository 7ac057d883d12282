"""Base kernel evaluation, validation and JSON parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oakern.base_kernel import (
    Point,
    RBFKernel,
    TableKernel,
    base_kernel_to_json_obj,
    constant_one,
    eval_base,
    kernel_block,
    parse_base_kernel,
    squared_distance,
    validate_base,
)
from oakern.errors import ConfigError, InputError

# Grid-valued coordinates keep the "equal iff identical" direction honest:
# unequal points differ by at least 1/7, so the squared distance cannot
# underflow to zero. The range keeps gamma * r^2 < 700, below which
# exp(-gamma * r^2) itself cannot underflow to 0.0.
grid_coord = st.integers(min_value=-23, max_value=23).map(lambda i: i / 7)
gammas = st.floats(min_value=0.01, max_value=5.0, allow_nan=False)


@st.composite
def point_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    u = draw(st.lists(grid_coord, min_size=dim, max_size=dim))
    v = draw(st.lists(grid_coord, min_size=dim, max_size=dim))
    return tuple(u), tuple(v)


def test_point_validation():
    assert Point((1, 2)).coords == (1.0, 2.0)
    with pytest.raises(InputError):
        Point(())
    with pytest.raises(InputError):
        Point((1.0, float("nan")))
    with pytest.raises(InputError):
        Point((float("inf"),))


def test_rbf_same_point_is_one():
    spec = RBFKernel(gamma=2.5)
    assert eval_base(spec, (0.3, -1.2), (0.3, -1.2)) == 1.0


def test_rbf_unit_square_values():
    # direct evaluation of exp(-gamma * ||u - v||^2) with hand-computed
    # squared distances 1 and 2
    spec = RBFKernel(gamma=1.0)
    side = eval_base(spec, (0.0, 0.0), (1.0, 0.0))
    diag = eval_base(spec, (0.0, 0.0), (1.0, 1.0))
    assert side == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert side == pytest.approx(0.36787944117144233, rel=1e-15)
    assert diag == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert diag == pytest.approx(0.13533528323661269, rel=1e-15)


@given(point_pairs(), gammas)
def test_rbf_formula(pair, gamma):
    u, v = pair
    spec = RBFKernel(gamma=gamma)
    r2 = 0.0
    for a, b in zip(u, v):
        r2 += (a - b) * (a - b)
    expected = math.exp(-gamma * r2)
    assert eval_base(spec, u, v) == pytest.approx(expected, rel=1e-15)


@given(point_pairs(), gammas)
def test_rbf_symmetry_exact(pair, gamma):
    u, v = pair
    spec = RBFKernel(gamma=gamma)
    assert eval_base(spec, u, v) == eval_base(spec, v, u)


@given(point_pairs(), gammas)
def test_rbf_range_and_identity_of_indiscernibles(pair, gamma):
    u, v = pair
    value = eval_base(RBFKernel(gamma=gamma), u, v)
    assert 0.0 < value <= 1.0
    if u == v:
        assert value == 1.0
    else:
        assert value < 1.0


def test_rbf_dimension_mismatch():
    with pytest.raises(InputError):
        eval_base(RBFKernel(gamma=1.0), (0.0,), (0.0, 1.0))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
def test_rbf_bad_gamma(gamma):
    with pytest.raises(ConfigError):
        RBFKernel(gamma=gamma)


def test_squared_distance_index_order():
    u = Point((1.0, 2.0, 3.0))
    v = Point((0.5, -1.0, 2.0))
    assert squared_distance(u, v) == (0.5 * 0.5 + 3.0 * 3.0 + 1.0 * 1.0)
    assert squared_distance(u, v) == squared_distance(v, u)


def test_table_reads_one_triangle():
    spec = TableKernel(("x", "y", "z"), [[1.0, 0.3, 0.1], [0.3, 1.0, 0.7], [0.1, 0.7, 2.0]])
    assert eval_base(spec, "x", "y") == 0.3
    assert eval_base(spec, "y", "x") == eval_base(spec, "x", "y")
    assert eval_base(spec, "z", "z") == 2.0
    # -0.0 == 0.0 passes the symmetry check; every reader sees the upper cell
    spec = TableKernel(("x", "y"), [[1.0, -0.0], [0.0, 1.0]])
    assert math.copysign(1.0, eval_base(spec, "x", "y")) == -1.0
    assert math.copysign(1.0, eval_base(spec, "y", "x")) == -1.0
    assert np.signbit(spec.matrix()[1, 0])
    assert np.signbit(kernel_block(spec, np.array([1]), np.array([0]))[0, 0])
    assert spec == TableKernel(("x", "y"), [[1.0, 0.0], [0.0, 1.0]])


def test_table_construction_errors():
    with pytest.raises(ConfigError):
        TableKernel(("x", "y"), [[1.0, 0.2], [0.3, 1.0]])  # asymmetric
    with pytest.raises(ConfigError):
        TableKernel(("x", "y"), [[1.0, 0.2]])  # wrong shape
    with pytest.raises(ConfigError):
        TableKernel(("x", "x"), [[1.0, 0.2], [0.2, 1.0]])  # duplicate labels
    with pytest.raises(ConfigError):
        TableKernel(("x",), [[float("nan")]])
    with pytest.raises(ConfigError):
        TableKernel((), [])


def test_table_unknown_label():
    spec = constant_one()
    with pytest.raises(InputError):
        eval_base(spec, "1", "2")
    with pytest.raises(InputError):
        eval_base(spec, Point((0.0,)), "1")


def test_constant_one_singleton():
    spec = constant_one()
    assert spec.labels == ("1",)
    assert eval_base(spec, "1", "1") == 1.0
    report = validate_base(spec, ["1"])
    assert report.passed
    assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_validate_base_square_corners():
    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    report = validate_base(RBFKernel(gamma=1.0), corners)
    assert report.passed
    assert not report.symmetry_violations
    assert not report.negative_values
    # cross-check the reported minimum eigenvalue against an independent
    # eigensolver on the same 4x4 base Gram
    a = math.exp(-1.0)
    gram = np.array(
        [
            [1, a, a * a, a],
            [a, 1, a, a * a],
            [a * a, a, 1, a],
            [a, a * a, a, 1],
        ]
    )
    oracle_min = float(np.linalg.eigvalsh(gram)[0])
    assert oracle_min > 0.0
    assert report.min_eigenvalue == pytest.approx(oracle_min, abs=1e-9)


def test_validate_base_flags_negative_entry():
    spec = TableKernel(("x", "y"), [[1.0, -0.1], [-0.1, 1.0]])
    report = validate_base(spec, ["x", "y"])
    assert report.negative_values == ((0, 1, -0.1),)
    assert not report.passed


def test_validate_base_empty_sample():
    with pytest.raises(InputError):
        validate_base(constant_one(), [])


def test_validate_base_without_spectrum():
    report = validate_base(RBFKernel(gamma=1.0), [(0.0,), (1.0,)], include_spectrum=False)
    assert report.min_eigenvalue is None
    assert report.passed


def test_parse_rbf():
    spec = parse_base_kernel({"type": "rbf", "gamma": 0.5})
    assert spec == RBFKernel(gamma=0.5)
    assert base_kernel_to_json_obj(spec) == {"type": "rbf", "gamma": 0.5}


def test_parse_constant_one():
    spec = parse_base_kernel({"type": "constant_one"})
    assert spec == constant_one()
    assert base_kernel_to_json_obj(spec) == {"type": "constant_one"}


def test_parse_table_round_trip():
    obj = {"type": "table", "labels": ["p", "q"], "values": [[1.0, 0.5], [0.5, 1.0]]}
    spec = parse_base_kernel(obj)
    assert eval_base(spec, "p", "q") == 0.5
    assert base_kernel_to_json_obj(spec) == obj


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"type": "mystery"},
        {"type": "rbf"},
        {"type": "table", "labels": ["p"]},
        {"type": "table", "labels": ["p", "q"], "values": [[1.0, 0.2], [0.3, 1.0]]},
    ],
)
def test_parse_errors(obj):
    with pytest.raises(InputError):
        parse_base_kernel(obj)


def test_parse_rbf_bad_gamma_is_config_error():
    with pytest.raises(ConfigError):
        parse_base_kernel({"type": "rbf", "gamma": -2.0})
