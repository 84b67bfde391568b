"""Eigenvalue computation for Hermitian and general complex square matrices.

Hermitian spectra come from unitary tridiagonalization plus implicit-shift
QR/QL iteration, general spectra from Hessenberg reduction plus shifted
complex QR iteration (both via LAPACK, which budgets 30 iterations per
eigenvalue before reporting non-convergence).  Eigenvectors are deliberately
not part of the public surface.

Each function takes one square matrix or a stack of same-size matrices along
the leading axes, validates it once, and returns plain arrays: one spectrum
per matrix, under the stack's leading axes.  Each then calls its private
body (:func:`_eigvals_hermitian`, :func:`_eigvals_general`), which takes a
validated stack; the runner calls the bodies.  General spectra are complex and
sorted by (real, imag), Hermitian ones real and ascending.  A stack runs as
one LAPACK call and gives each matrix the spectrum it gets alone.

The scale a realness tolerance multiplies is :func:`pseudosim.linalg.spectral_scale`,
which this module uses and does not redefine.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolation, NumericalError
from .linalg import _as_square_stack, _hermitian_each, spectral_scale


def relative_imag(values) -> float:
    """max |imag| / spectral_scale: how far a spectrum is from real, per its scale."""
    values = np.asarray(values)
    return float(np.abs(values.imag).max()) / spectral_scale(values) if values.size else 0.0


def sort_eigenvalues(values) -> np.ndarray:
    """Sort by real part ascending, ties by imaginary part ascending, along
    the last axis."""
    values = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


def eigvals_hermitian(m) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, sorted non-decreasing; a row per
    matrix of a stack.

    Each matrix must be Hermitian within its own scale-relative default
    tolerance; a non-Hermitian input is a contract violation, never silently
    symmetrized.
    """
    m = _as_square_stack(m)
    if not _hermitian_each(m).all():
        raise ContractViolation("input is not Hermitian within tolerance")
    return _eigvals_hermitian(m)


def _eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """:func:`eigvals_hermitian` of a validated Hermitian stack."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver did not converge: {exc}") from exc


def eigvals_general(m) -> np.ndarray:
    """Complex spectrum of a general square matrix, sorted by (real, imag);
    a row per matrix of a stack."""
    return _eigvals_general(_as_square_stack(m))


def _eigvals_general(m: np.ndarray) -> np.ndarray:
    """:func:`eigvals_general` of a validated stack."""
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"general eigensolver did not converge: {exc}") from exc
    return sort_eigenvalues(w)


def match_distance(a, b) -> float | np.ndarray:
    """Largest pair distance matching two eigenvalue multisets, or matching
    each row of one stack of them to the same row of another.

    Both sides are sorted by (real, imag); each value of the first multiset
    is greedily matched to the nearest not-yet-used value of the second.
    Complex spectra have no perturbation-stable total order, so comparisons
    go through this matching rather than through positional differences.
    Returns a float for two multisets, an array of the leading shape for
    stacks.
    """
    a, b = sort_eigenvalues(a), sort_eigenvalues(b)
    if a.shape != b.shape:
        raise ContractViolation(f"multiset sizes differ: {a.shape} vs {b.shape}")
    used = np.zeros(b.shape, dtype=bool)
    worst = np.zeros(a.shape[:-1])
    for i in range(a.shape[-1]):
        dist = np.where(used, np.inf, np.abs(b - a[..., i:i + 1]))
        j = np.argmin(dist, axis=-1)[..., np.newaxis]
        np.put_along_axis(used, j, True, axis=-1)
        worst = np.maximum(worst, np.take_along_axis(dist, j, axis=-1)[..., 0])  # keeps a NaN
    return worst[()]
