"""Dense complex matrix core: the thin SVD that gives both the numerical
rank and the Moore-Penrose pseudo-inverse, and the residuals of the four
Penrose conditions, in numpy alone.  The SVD is the one factorization here.

:func:`spectral_scale` alone computes ``max(1, largest magnitude)``, the scale
of relative tolerances and residuals; whether a tolerance itself is a usable
number is :func:`pseudosim.errors.require_number`'s to decide.

Matrices are plain two-dimensional complex128 ``numpy`` arrays.  Every public
routine validates its input through :func:`as_matrix`, whose NaN/Inf check
passes over the matrix, and then calls its private body (:func:`_svd`,
:func:`_penrose_residuals`), which the runner calls directly;
:meth:`SvdFactors.truncated` checks a threshold alone and has no body.  All
functions are pure; nothing is modified in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError, require_number

EPS = float(np.finfo(np.float64).eps)

#: relative factor for the default hermiticity tolerance (times max |entry|)
HERMITICITY_REL_TOL = 1e-10

#: tolerance for "orthonormal columns" checks, max |q^H q - I|
ORTH_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a dense 2-d complex128 array.

    Raises :class:`ContractViolation` for non-2-d input or non-finite
    entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be two-dimensional, got shape {m.shape}")
    _check_finite(m, name)
    return m


def _check_finite(m: np.ndarray, name: str = "matrix") -> None:
    """:func:`as_matrix`'s finiteness check, over a matrix or a whole stack."""
    if m.size and not np.isfinite(m).all():
        raise ContractViolation(f"{name} contains non-finite entries")


def _as_square_stack(a) -> np.ndarray:
    """:func:`as_matrix` for one square matrix or a stack of same-size square
    matrices along the leading axes."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ContractViolation(f"need a square matrix or a stack of them, got shape {m.shape}")
    _check_finite(m)
    return m


def spectral_scale(values, axis=None):
    """max(1, largest magnitude): the scale relative tolerances multiply.
    A float, or with ``axis`` an array of one scale per slice along it; 1.0
    for no values.  NaN if a value is NaN, so every tolerance it scales fails."""
    scale = np.maximum(1.0, np.abs(values).max(axis=axis, initial=0.0))
    return float(scale) if axis is None else scale


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an array :func:`as_matrix` has already
    validated, or of each matrix of a stack of them."""
    return m.conj().swapaxes(-1, -2).copy()


def _hermitian_each(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of a validated stack is Hermitian within its own
    scale-relative tolerance, HERMITICITY_REL_TOL times its largest entry,
    with no floor at 1 (a floor would loosen the check for matrices below
    unit scale), so not :func:`spectral_scale`."""
    if m.shape[-1] != m.shape[-2]:
        raise ContractViolation(f"hermiticity is defined for square matrices, got {m.shape}")
    tol = HERMITICITY_REL_TOL * np.abs(m).max(axis=(-2, -1), initial=0.0)
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0) <= tol


@dataclass
class SvdFactors:
    """Thin SVD truncated to the detected numerical rank.

    ``m ~= u @ diag(sigma) @ v.conj().T`` with orthonormal-column ``u``
    (rows x rank) and ``v`` (cols x rank); ``sigma`` is non-increasing > 0.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int

    def pseudo_inverse(self) -> np.ndarray:
        """``v @ diag(1 / sigma) @ u^H``; the zero matrix of transposed shape at rank 0."""
        return (self.v / self.sigma) @ self.u.conj().T

    def truncated(self, rank_tol: float) -> "SvdFactors":
        """The factors over the rank ``rank_tol`` detects in ``sigma``.

        Equal to :func:`svd` of the same matrix at ``rank_tol`` when these
        factors are untruncated, as at full rank.  Its guard, that ``rank_tol``
        is a number in (0, 1), passes over no array: it has no private body.
        """
        rank_tol = require_number(rank_tol, "rank_tol", 0.0, above=True)  # svd's None needs a shape
        rank = _detected_rank(self.sigma, _require_rank_tol(rank_tol))
        return SvdFactors(u=self.u[:, :rank], sigma=self.sigma[:rank], v=self.v[:, :rank], rank=rank)


def _require_rank_tol(rank_tol: float | None, name: str = "rank_tol") -> float | None:
    """``rank_tol``, once it is None or a finite number in (0, 1): a NaN or
    infinite threshold, or one of 1 or more, would read every matrix as rank 0."""
    if rank_tol is not None and not require_number(rank_tol, name, 0.0, above=True) < 1.0:
        raise ContractViolation(f"{name} must be < 1, got {rank_tol!r}")
    return rank_tol


def _detected_rank(s: np.ndarray, rank_tol: float) -> int:
    """Count of singular values (non-increasing) above ``rank_tol * s[0]``."""
    smax = float(s[0]) if s.size else 0.0
    return 0 if smax == 0.0 else int(np.count_nonzero(s > rank_tol * smax))


def svd(m, rank_tol: float | None = None) -> SvdFactors:
    """Thin SVD with rank detection (singular values above rank_tol * sigma_max)."""
    return _svd(as_matrix(m), _require_rank_tol(rank_tol))


def _svd(m: np.ndarray, rank_tol: float | None = None) -> SvdFactors:
    """:func:`svd` of a validated matrix at a validated ``rank_tol``."""
    if rank_tol is None:  # the default factor of the largest singular value
        rank_tol = max(m.shape) * EPS
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {m.shape}: {exc}") from exc
    rank = _detected_rank(s, rank_tol)
    return SvdFactors(u=u[:, :rank], sigma=s[:rank], v=vh[:rank, :].conj().T, rank=rank)


def pseudo_inverse(m, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the SVD over the detected rank.

    Satisfies the four Penrose conditions to rounding; a rank-0 input yields
    the zero matrix of transposed shape.
    """
    return svd(m, rank_tol).pseudo_inverse()


def penrose_residuals(m, pinv) -> tuple[float, float, float, float]:
    """Max-entry residuals of the four Penrose conditions, scale-relative.

    Returned in order: ``m p m = m``, ``p m p = p``, ``(m p)^H = m p``,
    ``(p m)^H = p m``.  The first two are scaled by max(1, |m|) and
    max(1, |p|); the projector conditions are scaled by max(1, |m p|) and
    max(1, |p m|).
    """
    m = as_matrix(m, "matrix")
    p = as_matrix(pinv, "pseudo-inverse")
    if p.shape != (m.shape[1], m.shape[0]):
        raise ContractViolation(f"pseudo-inverse shape {p.shape} does not match {m.shape}")
    return _penrose_residuals(m, p)


def _penrose_residuals(m: np.ndarray, p: np.ndarray) -> tuple[float, float, float, float]:
    """:func:`penrose_residuals` of a validated matrix and pseudo-inverse of
    the transposed shape."""
    mp = m @ p
    pm = p @ m

    def _rel(diff, ref):
        return (float(np.abs(diff).max()) if diff.size else 0.0) / spectral_scale(ref)

    return (
        _rel(mp @ m - m, m),
        _rel(pm @ p - p, p),
        _rel(mp.conj().T - mp, mp),
        _rel(pm.conj().T - pm, pm),
    )
