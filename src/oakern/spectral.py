"""Symmetric eigendecomposition and positive-semidefiniteness diagnostics.

The eigensolver is a cyclic Jacobi sweep: the matrices in this package are
tiny, and Jacobi delivers high-accuracy orthogonal eigenvectors with a
convergence test that is trivial to state (off-diagonal Frobenius norm
below 1e-12 of the input norm, which rotations preserve). Verdicts are
scale-free: a matrix counts as PSD when its smallest eigenvalue is no
lower than -tol * max(1, largest eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .matrices import DistanceMatrix, GramMatrix

DEFAULT_TOL = 1e-9

_OFFDIAG_TARGET = 1e-12
_MAX_SWEEPS = 50
_METRIC_VIOLATION = -1e-9


def _as_symmetric(G) -> np.ndarray:
    if isinstance(G, GramMatrix):
        return G.values
    arr = np.asarray(G, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix contains non-finite entries")
    if not np.array_equal(arr, arr.T):
        raise InputError("matrix is not exactly symmetric")
    return arr


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Eigenvalues are sorted in descending order and eigenvector columns are
    aligned with them; each column is signed so its largest-magnitude
    component is nonnegative. ``psd`` and ``margin`` are evaluated at the
    default tolerance; use :func:`psd_check` for other tolerances.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    min_eigenvalue: float
    psd: bool
    margin: float

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def to_json_obj(self) -> dict:
        return {
            "eigenvalues": [float(w) for w in self.eigenvalues],
            "min_eigenvalue": self.min_eigenvalue,
            "psd": self.psd,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class PsdVerdict:
    psd: bool
    margin: float
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float

    def to_json_obj(self) -> dict:
        return {
            "psd": self.psd,
            "margin": self.margin,
            "min_eigenvalue": self.min_eigenvalue,
            "max_eigenvalue": self.max_eigenvalue,
            "tol": self.tol,
        }


def _margin(min_eig: float, max_eig: float) -> float:
    return min_eig / max(1.0, max_eig)


def jacobi_eigen(G, max_sweeps: int = _MAX_SWEEPS) -> Spectrum:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps row-cyclically over the strict upper triangle, annihilating one
    off-diagonal entry per rotation, until the off-diagonal Frobenius norm
    drops below 1e-12 of the input norm. Raises :class:`NumericError` if
    ``max_sweeps`` sweeps do not get there.

    The sweeps run on A scaled by a power of two that brings its largest
    entry into [0.5, 1), so that the norms neither overflow nor underflow.
    The scaling is exact for every entry above 2^-1022 times the largest,
    and every rotation commutes with it, so the eigenvectors are those of A
    and the eigenvalues are scaled back exactly.
    """
    A = _as_symmetric(G)
    _, exponent = math.frexp(float(np.max(np.abs(A))))
    A = np.ldexp(A, -exponent)
    n = A.shape[0]
    V = np.eye(n)
    scale = float(np.linalg.norm(A))
    target = _OFFDIAG_TARGET * scale
    others = np.ones(n, dtype=bool)

    sweeps = 0
    while _offdiag_norm(A) > target:
        if sweeps >= max_sweeps:
            raise NumericError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                h = A[q, q] - A[p, p]
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

                others[p] = others[q] = False
                ap = A[others, p].copy()
                aq = A[others, q].copy()
                A[others, p] = A[p, others] = ap - s * (aq + tau * ap)
                A[others, q] = A[q, others] = aq + s * (ap - tau * aq)
                others[p] = others[q] = True

                A[p, p] -= t * apq
                A[q, q] += t * apq
                A[p, q] = A[q, p] = 0.0

                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = vp - s * (vq + tau * vp)
                V[:, q] = vq + s * (vp - tau * vq)
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

    min_eig = float(eigenvalues[-1])
    max_eig = float(eigenvalues[0])
    margin = _margin(min_eig, max_eig)
    return Spectrum(
        eigenvalues=eigenvalues,
        eigenvectors=V,
        min_eigenvalue=min_eig,
        psd=min_eig >= -DEFAULT_TOL * max(1.0, max_eig),
        margin=margin,
    )


def _offdiag_norm(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.linalg.norm(off))


def psd_check(spectrum: Spectrum, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Scale-free PSD verdict: psd iff min eigenvalue >= -tol * max(1, max eigenvalue)."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tolerance must be finite and nonnegative, got {tol}")
    min_eig = spectrum.min_eigenvalue
    max_eig = spectrum.max_eigenvalue
    return PsdVerdict(
        psd=min_eig >= -tol * max(1.0, max_eig),
        margin=_margin(min_eig, max_eig),
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


def distances_from_gram(gram: GramMatrix) -> DistanceMatrix:
    """Pairwise distances d(i,j) = sqrt(G_ii + G_jj - 2 G_ij).

    Squared distances in [-1e-9, 0) are treated as round-off and clamped to
    zero; anything below -1e-9 is clamped too but recorded as a metric
    violation, since no inner-product space can produce it.
    """
    G = gram.values
    diag = np.diag(G)
    raw = diag[:, None] + diag[None, :] - 2.0 * G
    rows, cols = np.nonzero(np.triu(raw < _METRIC_VIOLATION, k=1))  # row-major, i < j
    violations = zip(rows.tolist(), cols.tolist(), raw[rows, cols].tolist())
    squared = np.maximum(raw, 0.0)
    np.fill_diagonal(squared, 0.0)
    values = np.sqrt(squared)
    return DistanceMatrix(
        labels=gram.labels,
        values=values,
        squared=squared,
        violations=tuple(violations),
    )


def psd_project_clip(gram: GramMatrix) -> GramMatrix:
    """Frobenius-nearest PSD matrix: zero out negative eigenvalues and rebuild.

    Matrices that already pass the default-tolerance PSD check are returned
    unchanged; rebuilding those would only inject the eigensolver's stopping
    residual, which is what makes this projection exactly idempotent.
    """
    spectrum = jacobi_eigen(gram.values)
    if spectrum.psd:
        return gram
    clipped = np.maximum(spectrum.eigenvalues, 0.0)
    V = spectrum.eigenvectors
    rebuilt = (V * clipped) @ V.T
    rebuilt = (rebuilt + rebuilt.T) / 2.0
    return GramMatrix(gram.labels, rebuilt)


def spectrum_to_json_obj(spectrum: Spectrum, verdict: PsdVerdict | None = None) -> dict:
    obj = spectrum.to_json_obj()
    if verdict is not None:
        obj["psd"] = verdict.psd
        obj["margin"] = verdict.margin
        obj["tol"] = verdict.tol
    return obj
