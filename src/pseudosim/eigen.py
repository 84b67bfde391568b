"""Eigenvalue computation for Hermitian and general complex square matrices.

Hermitian spectra come from unitary tridiagonalization plus implicit-shift
QR/QL iteration, general spectra from Hessenberg reduction plus shifted
complex QR iteration (both via LAPACK, which budgets 30 iterations per
eigenvalue before reporting non-convergence).  Eigenvectors are deliberately
not part of the public surface.

Each solver is a private body that works on a stack of same-size matrices
with one LAPACK call, and a public function that validates one matrix and
runs the body on a stack of one; a stack gives each matrix the spectrum it
gets alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError, NumericalError
from .linalg import _hermitian_each, as_matrix


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


def _sorted_rows(values: np.ndarray) -> np.ndarray:
    """:func:`sort_eigenvalues` of each row of a stack of complex arrays."""
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


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
    w = _eigvals_hermitian(as_matrix(m)[np.newaxis], tol)[0]
    return Spectrum(values=w.astype(np.complex128))


def _eigvals_hermitian(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Ascending real spectra of a stack of finite matrices, each of which
    must be Hermitian within ``tol``."""
    if not _hermitian_each(m, tol).all():
        raise ContractViolation("input is not Hermitian within tolerance")
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver did not converge: {exc}") from exc


def eigvals_general(m) -> Spectrum:
    """Complex spectrum of a general square matrix, sorted by (real, imag)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"eigenvalues are defined for square matrices, got {m.shape}")
    return Spectrum(values=_eigvals_general(m[np.newaxis])[0])


def _eigvals_general(m: np.ndarray) -> np.ndarray:
    """Unsorted spectra of a stack of finite square matrices."""
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"general eigensolver did not converge: {exc}") from exc


def match_distance(a, b) -> float:
    """Largest pair distance matching two eigenvalue multisets.

    Both sides are sorted by (real, imag); each value of the first multiset
    is greedily matched to the nearest not-yet-used value of the second.
    Complex spectra have no perturbation-stable total order, so comparisons
    go through this matching rather than through positional differences.
    """
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.size != b.size:
        raise DimensionError(f"multiset sizes differ: {a.size} vs {b.size}")
    return float(_match_distances(a[np.newaxis], b[np.newaxis])[0])


def _match_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`match_distance` of each row of the stack a to the same row of
    the stack b, with rows of one length."""
    a = _sorted_rows(np.asarray(a, dtype=np.complex128))
    b = _sorted_rows(np.asarray(b, dtype=np.complex128))
    rows = np.arange(len(a))
    used = np.zeros(b.shape, dtype=bool)
    worst = np.zeros(len(a))
    for i in range(a.shape[1]):
        dist = np.where(used, np.inf, np.abs(b - a[:, i:i + 1]))
        j = np.argmin(dist, axis=1)
        used[rows, j] = True
        worst = np.fmax(worst, dist[rows, j])
    return worst
