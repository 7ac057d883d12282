"""Symmetric eigendecomposition and positive-semidefiniteness diagnostics.

The eigensolver is a cyclic Jacobi sweep: the matrices in this package are
tiny, and Jacobi delivers high-accuracy orthogonal eigenvectors with a
convergence test that is trivial to state (off-diagonal Frobenius norm
below 1e-12 of the input norm, which rotations preserve). The matrix and
its eigenvectors share one stacked array, so a rotation moves both at once.

A :class:`Spectrum` holds eigenpairs only, never a verdict. The PSD rule
lives in :func:`psd_check` alone and is scale-free: with
rho = max |eigenvalue|, a matrix counts as PSD when its smallest
eigenvalue is no lower than -tol * rho, and its margin is
min eigenvalue / rho (0 for the zero matrix, which is PSD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .matrices import GramMatrix, symmetric_array

DEFAULT_TOL = 1e-9

_OFFDIAG_TARGET = 1e-12
_MAX_SWEEPS = 50


def _as_symmetric(G) -> np.ndarray:
    return G.values if isinstance(G, GramMatrix) else symmetric_array(G)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues are sorted in descending order and eigenvector columns are
    aligned with them; each column is signed so its largest-magnitude
    component is nonnegative. Use :func:`psd_check` for a verdict.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class PsdVerdict:
    psd: bool
    margin: float
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float


def jacobi_eigen(G) -> Spectrum:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps row-cyclically over the strict upper triangle, annihilating one
    off-diagonal entry per rotation, until the off-diagonal Frobenius norm
    drops below 1e-12 of the input norm. Raises :class:`NumericError` if
    ``_MAX_SWEEPS`` sweeps do not get there.

    A and the rotations' product V are the halves of one (2n x n) array: a
    rotation updates columns p and q of both in one operation each, copies
    A's new columns into its rows p and q, and sets the 2 x 2 block.

    The sweeps run on A scaled by a power of two that brings its largest
    entry into [0.5, 1), so that the norms neither overflow nor underflow.
    The scaling is exact for every entry above 2^-1022 times the largest,
    and every rotation commutes with it, so the eigenvectors are those of A
    and the eigenvalues are scaled back exactly.
    """
    A = _as_symmetric(G)
    _, exponent = math.frexp(float(np.max(np.abs(A))))
    n = A.shape[0]
    M = np.vstack([np.ldexp(A, -exponent), np.eye(n)])
    A, V = M[:n], M[n:]
    scale = float(np.linalg.norm(A))
    target = _OFFDIAG_TARGET * scale

    sweeps = 0
    while _offdiag_norm(A) > target:
        if sweeps >= _MAX_SWEEPS:
            raise NumericError(
                f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                app, aqq = A[p, p], A[q, q]
                h = aqq - app
                if abs(h) + 100.0 * abs(apq) == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                tau = s / (1.0 + c)

                mp = M[:, p].copy()
                mq = M[:, q]
                M[:, p] = mp - s * (mq + tau * mp)
                M[:, q] = mq + s * (mp - tau * mq)
                A[p] = A[:, p]
                A[q] = A[:, q]
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
        sweeps += 1

    with np.errstate(over="ignore"):
        eigenvalues = np.ldexp(np.diag(A), exponent)
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericError("an eigenvalue is outside float64 range")
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    V = V[:, order]
    for col in range(n):
        lead = int(np.argmax(np.abs(V[:, col])))
        if V[lead, col] < 0.0:
            V[:, col] = -V[:, col]
    eigenvalues.setflags(write=False)
    V.setflags(write=False)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=V)


def _offdiag_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def psd_check(spectrum: Spectrum, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """The one PSD rule: with rho = max |eigenvalue|, psd iff min eigenvalue >= -tol * rho.

    The margin is min eigenvalue / rho, and 0 for the zero matrix.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tolerance must be finite and nonnegative, got {tol}")
    min_eig = spectrum.min_eigenvalue
    max_eig = spectrum.max_eigenvalue
    rho = max(max_eig, -min_eig)
    return PsdVerdict(
        psd=min_eig >= -tol * rho,
        margin=min_eig / rho if rho > 0.0 else 0.0,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        tol=float(tol),
    )


def quadratic_form(G, v) -> float:
    """v' G v, evaluated row by row in index order."""
    A = _as_symmetric(G)
    vec = np.asarray(v, dtype=float)
    if vec.shape != (A.shape[0],):
        raise InputError(
            f"coefficient vector of length {vec.shape} does not match matrix of size {A.shape[0]}"
        )
    if not np.all(np.isfinite(vec)):
        raise InputError("coefficient vector contains non-finite entries")
    return float(np.dot(vec, A @ vec))


def distances_from_gram(gram: GramMatrix) -> np.ndarray:
    """Squared pairwise distances G_ii + G_jj - 2 G_ij, as an n x n array.

    Returns squares, not distances: identities on them are exact. Negative
    squares are clamped to 0, and the diagonal is exactly 0.
    """
    diag = np.diag(gram.values)
    squared = np.maximum(diag[:, None] + diag[None, :] - 2.0 * gram.values, 0.0)
    np.fill_diagonal(squared, 0.0)
    return squared


def psd_project_clip(gram: GramMatrix) -> GramMatrix:
    """Frobenius-nearest PSD matrix: zero out negative eigenvalues and rebuild.

    Matrices that already pass :func:`psd_check` at the default tolerance
    are returned unchanged; rebuilding those would only inject the
    eigensolver's stopping residual, which is what makes this projection
    exactly idempotent. For the same reason, positive eigenvalues within
    the solver's stopping target (1e-12 of the largest magnitude) are
    zeroed too: they carry no sign, and a matrix rebuilt from them alone is
    rounding noise, which for tiny inputs falls to subnormal values that no
    longer pass the check.

    The rebuild runs on the eigenvalues scaled by the power of two that
    brings the largest magnitude into [0.5, 1), as :func:`jacobi_eigen`
    does, so its sums cannot overflow; a result outside float64 range
    raises :class:`NumericError`.
    """
    spectrum = jacobi_eigen(gram.values)
    if psd_check(spectrum).psd:
        return gram
    _, exponent = math.frexp(float(np.max(np.abs(spectrum.eigenvalues))))
    w = np.ldexp(spectrum.eigenvalues, -exponent)
    clipped = np.where(w > _OFFDIAG_TARGET * np.max(np.abs(w)), w, 0.0)
    V = spectrum.eigenvectors
    rebuilt = (V * clipped) @ V.T
    with np.errstate(over="ignore"):
        rebuilt = np.ldexp((rebuilt + rebuilt.T) / 2.0, exponent)
    if not np.all(np.isfinite(rebuilt)):
        raise NumericError("the repaired matrix is outside float64 range")
    return GramMatrix(gram.labels, rebuilt)


def spectrum_to_json_obj(spectrum: Spectrum, verdict: PsdVerdict) -> dict:
    return {
        "eigenvalues": [float(w) for w in spectrum.eigenvalues],
        "min_eigenvalue": spectrum.min_eigenvalue,
        "psd": verdict.psd,
        "margin": verdict.margin,
        "tol": verdict.tol,
    }
