"""Spot-check oracles that avoid the QR-iteration eigensolvers entirely.

Small-matrix spectra are recomputed here as roots of the explicitly expanded
characteristic polynomial: closed forms up to degree 2, simultaneous
Weierstrass (Durand-Kerner) iteration above that.  Coefficients come from the
Faddeev-LeVerrier trace recurrence, so no factorization is shared with the
solvers under test.  Intended for desk sizes (n <= 6 or so); the recurrence
loses accuracy quickly beyond that.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DimensionError, NumericalError
from .eigen import sort_eigenvalues
from .linalg import as_matrix


def characteristic_polynomial(m) -> np.ndarray:
    """Monic coefficients of det(t I - m), highest degree first.

    Faddeev-LeVerrier: with N_0 = I, repeatedly M_k = m N_{k-1},
    c_k = -trace(M_k)/k, N_k = M_k + c_k I.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n != m.shape[1]:
        raise DimensionError(f"characteristic polynomial needs a square matrix, got {m.shape}")
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    nk = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        mk = m @ nk
        c = -np.trace(mk) / k
        coeffs[k] = c
        nk = mk + c * np.eye(n)
    return coeffs


def _quadratic_roots(b, c) -> np.ndarray:
    # roots of t^2 + b t + c, cancellation-safe branch choice
    s = np.sqrt(complex(b * b - 4.0 * c))
    if abs(b - s) > abs(b + s):
        s = -s
    q = -(b + s) / 2.0
    if q == 0:
        return np.zeros(2, dtype=np.complex128)
    return np.array([q, c / q], dtype=np.complex128)


def polynomial_roots(coeffs, max_iter: int = 500) -> np.ndarray:
    """All complex roots of a monic polynomial (coefficients highest first).

    Degree 1 and 2 use closed forms; higher degrees run the Weierstrass
    simultaneous-correction iteration from staggered starting points inside
    the Cauchy root bound.  Accuracy degrades near multiple roots (as for any
    polynomial method); distinct-root inputs converge to near machine level.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size < 2:
        raise ContractViolation("need a polynomial of degree >= 1")
    if not np.all(np.isfinite(c)) or c[0] == 0:
        raise ContractViolation("coefficients must be finite with a nonzero leading term")
    if c[0] != 1.0:
        c = c / c[0]
    n = c.size - 1
    if n == 1:
        return np.array([-c[1]])
    if n == 2:
        return sort_eigenvalues(_quadratic_roots(c[1], c[2]))

    radius = 1.0 + float(np.abs(c[1:]).max())  # Cauchy bound on |root|
    z = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)
    off = ~np.eye(n, dtype=bool)
    for _ in range(max_iter):
        p = np.zeros_like(z)  # Horner's rule, as np.polyval(c, z) evaluates it
        for coeff in c:
            p = p * z + coeff
        denom = (z[:, None] - z)[off].reshape(n, n - 1).prod(axis=1)  # prod_{j != i} (z_i - z_j)
        step = p / denom
        z = z - step
        if np.abs(step).max() <= 1e-14 * max(1.0, float(np.abs(z).max())):
            break
    else:
        raise NumericalError(f"root iteration did not settle for degree {n}")
    return sort_eigenvalues(z)


def charpoly_eigenvalues(m) -> np.ndarray:
    """Eigenvalues as characteristic-polynomial roots, sorted by (real, imag)."""
    return polynomial_roots(characteristic_polynomial(m))
