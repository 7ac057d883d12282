"""Jacobi eigensolver, PSD verdicts, distances and clip projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oakern.counterexample import NULL_DIRECTIONS, WITNESS, expected_gram_closed_form
from oakern.errors import InputError, NumericError
from oakern.matrices import GramMatrix, default_labels
from oakern.spectral import (
    distances_from_gram,
    jacobi_eigen,
    psd_check,
    psd_project_clip,
    quadratic_form,
)


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return (M + M.T) / 2.0


def symmetric_matrices(max_n=8):
    elems = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)
    return (
        st.integers(1, max_n)
        .flatmap(lambda n: arrays(np.float64, (n, n), elements=elems))
        .map(lambda M: (M + M.T) / 2.0)
    )


def check_spectrum_invariants(G, spectrum):
    n = G.shape[0]
    w, V = spectrum.eigenvalues, spectrum.eigenvectors
    fro = np.linalg.norm(G)
    assert np.linalg.norm((V * w) @ V.T - G) <= 1e-9 * max(1.0, fro)
    assert abs(w.sum() - np.trace(G)) <= 1e-9 * max(1.0, abs(np.trace(G)))
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
    assert all(w[i] >= w[i + 1] for i in range(n - 1))
    for col in range(n):
        lead = int(np.argmax(np.abs(V[:, col])))
        assert V[lead, col] >= 0.0


def test_identity_spectrum():
    spectrum = jacobi_eigen(np.eye(6))
    assert np.array_equal(spectrum.eigenvalues, np.ones(6))
    verdict = psd_check(spectrum)
    assert verdict.psd
    assert verdict.margin == 1.0


def test_two_by_two_analytic():
    a = math.exp(-1.0)
    spectrum = jacobi_eigen(np.array([[2.0, 2 * a], [2 * a, 2.0]]))
    assert spectrum.eigenvalues[0] == pytest.approx(2 + 2 * a, abs=1e-12)
    assert spectrum.eigenvalues[1] == pytest.approx(2 - 2 * a, abs=1e-12)


def test_counterexample_gram_negative_eigenvalue():
    gram = expected_gram_closed_form(1.0)
    spectrum = jacobi_eigen(gram.values)
    assert spectrum.min_eigenvalue <= -0.155
    # independent eigensolver oracle
    oracle = float(np.linalg.eigvalsh(gram.values)[0])
    assert spectrum.min_eigenvalue == pytest.approx(oracle, abs=1e-9)
    assert not psd_check(spectrum, 1e-9).psd


def test_min_kernel_gram_is_psd():
    lengths = [1, 2, 3, 5, 8]
    G = np.array([[float(min(a, b)) for b in lengths] for a in lengths])
    assert psd_check(jacobi_eigen(G)).psd


@given(symmetric_matrices())
@settings(max_examples=80)
def test_spectrum_invariants_random(G):
    check_spectrum_invariants(G, jacobi_eigen(G))


@pytest.mark.parametrize("n", [20, 35, 50])
def test_spectrum_invariants_larger(n):
    rng = np.random.default_rng(n)
    G = random_symmetric(rng, n, scale=3.0)
    check_spectrum_invariants(G, jacobi_eigen(G))


def test_zero_matrix():
    spectrum = jacobi_eigen(np.zeros((4, 4)))
    assert np.array_equal(spectrum.eigenvalues, np.zeros(4))
    assert psd_check(spectrum).psd


@pytest.mark.parametrize("c", [1e150, 1e-150])
def test_spectrum_scales_with_the_matrix(c):
    # norms of c*G overflow (c = 1e150) or underflow (c = 1e-150) in float64
    G = expected_gram_closed_form(1.0).values
    base = jacobi_eigen(G).eigenvalues
    scaled = jacobi_eigen(c * G).eigenvalues
    assert np.all(np.abs(scaled - c * base) <= 1e-12 * c * np.max(np.abs(base)))


def test_jacobi_input_errors():
    with pytest.raises(InputError):
        jacobi_eigen(np.array([[1.0, 2.0], [3.0, 4.0]]))  # not symmetric
    with pytest.raises(InputError):
        jacobi_eigen(np.array([[float("nan")]]))
    with pytest.raises(InputError):
        jacobi_eigen(np.ones((2, 3)))


def test_jacobi_sweep_budget():
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericError):
        jacobi_eigen(G, max_sweeps=0)


def test_psd_check_tolerance_scaling():
    spectrum = jacobi_eigen(np.diag([100.0, -1e-8]))
    # relative to max(1, lambda_max)=100 the dip is well inside 1e-9
    assert psd_check(spectrum, 1e-9).psd
    assert not psd_check(spectrum, 1e-12).psd
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            psd_check(spectrum, bad)


def test_quadratic_form_unit_vectors():
    gram = expected_gram_closed_form(1.0)
    for i in range(6):
        e = np.zeros(6)
        e[i] = 1.0
        assert quadratic_form(gram.values, e) == 2.0


def test_quadratic_form_witness_and_nulls():
    a = math.exp(-1.0)
    gram = expected_gram_closed_form(1.0)
    assert quadratic_form(gram.values, WITNESS) == pytest.approx(8 * a * a - 8 * a, abs=1e-12)
    assert quadratic_form(gram.values, WITNESS) == pytest.approx(-1.8603532634786370, abs=1e-12)
    for v in NULL_DIRECTIONS:
        assert quadratic_form(gram.values, v) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_form_errors():
    with pytest.raises(InputError):
        quadratic_form(np.eye(3), [1.0, 2.0])
    with pytest.raises(InputError):
        quadratic_form(np.eye(2), [1.0, float("nan")])


@given(symmetric_matrices(max_n=6))
@settings(max_examples=50)
def test_quadratic_form_decomposition_and_rayleigh(G):
    spectrum = jacobi_eigen(G)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(G.shape[0])
    direct = quadratic_form(G, v)
    via_eigen = float(v @ ((spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T) @ v)
    assert direct == pytest.approx(via_eigen, abs=1e-9 * max(1.0, abs(direct)))
    norm_sq = float(v @ v)
    if norm_sq > 0:
        assert spectrum.min_eigenvalue <= direct / norm_sq + 1e-9


def test_distances_from_gram_closed_form():
    a = math.exp(-1.0)
    dm = distances_from_gram(expected_gram_closed_form(1.0))
    assert dm.distance_sq("AB", "AC") == pytest.approx(2 - 2 * a, abs=1e-12)
    assert dm.distance_sq("AB", "CD") == pytest.approx(4 - 4 * a, abs=1e-12)
    assert dm.distance_sq("AB", "BC") == pytest.approx(2 - 2 * a * a, abs=1e-12)
    assert np.array_equal(dm.values, dm.values.T)
    assert np.all(np.diag(dm.values) == 0.0)
    assert dm.violations == ()


def test_distances_flag_metric_violation():
    gram = GramMatrix(("p", "q"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    dm = distances_from_gram(gram)
    assert dm.violations == ((0, 1, -2.0),)
    assert dm.distance("p", "q") == 0.0  # clamped


def test_distances_list_violations_in_row_major_order():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(9, 9))
    G = A + A.T
    raw = np.diag(G)[:, None] + np.diag(G)[None, :] - 2.0 * G
    # the per-element reference scan
    want = tuple(
        (i, j, float(raw[i, j])) for i in range(9) for j in range(i + 1, 9) if raw[i, j] < -1e-9
    )
    assert len(want) > 1
    assert distances_from_gram(GramMatrix(tuple(f"t{i}" for i in range(9)), G)).violations == want


def test_distances_clamp_roundoff_silently():
    eps = 1e-12
    gram = GramMatrix(("p", "q"), np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]]))
    dm = distances_from_gram(gram)
    assert dm.violations == ()
    assert dm.distance("p", "q") == 0.0


def test_clip_leaves_identity_alone():
    gram = GramMatrix(default_labels(4), np.eye(4))
    out = psd_project_clip(gram)
    assert np.max(np.abs(out.values - np.eye(4))) <= 1e-12


def test_clip_diag_example():
    gram = GramMatrix(("p", "q"), np.diag([1.0, -1.0]))
    out = psd_project_clip(gram)
    assert np.max(np.abs(out.values - np.diag([1.0, 0.0]))) <= 1e-12


def test_clip_counterexample_gram():
    gram = expected_gram_closed_form(1.0)
    out = psd_project_clip(gram)
    assert psd_check(jacobi_eigen(out.values), 1e-9).psd
    negatives = np.minimum(np.linalg.eigvalsh(gram.values), 0.0)
    expected_dist = math.sqrt(float(np.sum(negatives**2)))
    actual_dist = float(np.linalg.norm(out.values - gram.values))
    assert actual_dist == pytest.approx(expected_dist, abs=1e-9)
    # exactly one negative eigenvalue, so the distance is |lambda_min|
    assert actual_dist == pytest.approx(abs(float(np.linalg.eigvalsh(gram.values)[0])), abs=1e-9)


@given(symmetric_matrices(max_n=6))
@settings(max_examples=50)
def test_clip_idempotent_and_psd(G):
    gram = GramMatrix(default_labels(G.shape[0]), G)
    once = psd_project_clip(gram)
    twice = psd_project_clip(once)
    assert psd_check(jacobi_eigen(once.values)).psd
    assert np.max(np.abs(twice.values - once.values)) <= 1e-12


def test_clip_is_identity_on_psd_input():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((5, 5))
    G = B @ B.T
    G = (G + G.T) / 2.0
    out = psd_project_clip(GramMatrix(default_labels(5), G))
    assert np.max(np.abs(out.values - G)) <= 1e-12


def test_gram_container_validation():
    with pytest.raises(InputError):
        GramMatrix(("p", "q"), np.array([[1.0, 2.0], [2.1, 1.0]]))
    with pytest.raises(InputError):
        GramMatrix(("p",), np.eye(2))
    with pytest.raises(InputError):
        GramMatrix(("p",), np.array([[float("inf")]]))
