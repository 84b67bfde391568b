"""Eigenvalue computation for Hermitian and general complex square matrices.

Hermitian spectra come from unitary tridiagonalization plus implicit-shift
QR/QL iteration, general spectra from Hessenberg reduction plus shifted
complex QR iteration (both via LAPACK, which budgets 30 iterations per
eigenvalue before reporting non-convergence).  Eigenvectors are deliberately
not part of the public surface; :func:`eig_residual` accepts externally
supplied vectors for spot checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError, NumericalError
from .linalg import _is_hermitian, as_matrix


def spectral_scale(values) -> float:
    """max(1, largest magnitude): the scale realness/zero tolerances multiply."""
    values = np.asarray(values)
    return max(1.0, float(np.abs(values).max())) if values.size else 1.0


def relative_imag(values) -> float:
    """max |imag| / spectral_scale: how far a spectrum is from real, per its scale."""
    values = np.asarray(values)
    return float(np.abs(values.imag).max()) / spectral_scale(values) if values.size else 0.0


def sort_eigenvalues(values) -> np.ndarray:
    """Sort by real part ascending, ties by imaginary part ascending."""
    values = np.asarray(values, dtype=np.complex128).ravel()
    order = np.lexsort((values.imag, values.real))
    return values[order]


@dataclass
class Spectrum:
    """Multiset of eigenvalues sorted by (real, imag) ascending.

    Whether it is real is decided by :func:`pseudosim.interlace.classify_real`.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = sort_eigenvalues(self.values)

    def __len__(self) -> int:
        return len(self.values)


def eigvals_hermitian(m, tol: float | None = None) -> Spectrum:
    """Real spectrum of a Hermitian matrix, sorted non-decreasing.

    `tol` is the hermiticity tolerance for the precondition check (default
    scale-relative); a non-Hermitian input is a contract violation, never
    silently symmetrized.
    """
    m = as_matrix(m)
    if not _is_hermitian(m, tol):
        raise ContractViolation("input is not Hermitian within tolerance")
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver did not converge: {exc}") from exc
    return Spectrum(values=w.astype(np.complex128))


def eigvals_general(m) -> Spectrum:
    """Complex spectrum of a general square matrix, sorted by (real, imag)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eigenvalues are defined for square matrices, got {m.shape}")
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"general eigensolver did not converge: {exc}") from exc
    return Spectrum(values=w)


def eig_residual(m, value, vector) -> float:
    """Relative residual ||m v - value v||_2 / ||v||_2 of an eigenpair claim."""
    m = as_matrix(m)
    v = np.asarray(vector, dtype=np.complex128).ravel()
    if v.size != m.shape[1]:
        raise DimensionError(f"vector length {v.size} does not match matrix side {m.shape[1]}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ContractViolation("residual of the zero vector is undefined")
    return float(np.linalg.norm(m @ v - value * v)) / norm


def match_distance(a, b) -> float:
    """Largest pair distance matching two eigenvalue multisets.

    Both sides are sorted by (real, imag); each value of the first multiset
    is greedily matched to the nearest not-yet-used value of the second.
    Complex spectra have no perturbation-stable total order, so comparisons
    go through this matching rather than through positional differences.
    """
    a = sort_eigenvalues(a)
    b = sort_eigenvalues(b)
    if a.size != b.size:
        raise DimensionError(f"multiset sizes differ: {a.size} vs {b.size}")
    used = np.zeros(b.size, dtype=bool)
    worst = 0.0
    for z in a:
        dist = np.abs(b - z)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst
