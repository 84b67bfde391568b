"""Dense complex matrix core: adjoints, rank-revealing factorizations, and
the Moore-Penrose pseudo-inverse, in numpy alone: the SVD is the production
route, and a column-pivoted Gram-Schmidt QR written here cross-checks it.

Matrices are plain two-dimensional complex128 ``numpy`` arrays.  Every public
routine validates its input through :func:`as_matrix`, which rejects NaN/Inf
entries, so downstream code can assume finite dense data.  All functions are
pure; nothing is modified in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DimensionError, NumericalError

EPS = float(np.finfo(np.float64).eps)

#: relative factor for the default hermiticity tolerance (times max |entry|)
HERMITICITY_REL_TOL = 1e-10

#: tolerance for "orthonormal columns" checks, max |q^H q - I|
ORTH_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a dense 2-d complex128 array.

    Raises :class:`DimensionError` for non-2-d input and
    :class:`ContractViolation` for non-finite entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be two-dimensional, got shape {m.shape}")
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
        raise DimensionError(f"need a square matrix or a stack of them, got shape {m.shape}")
    _check_finite(m)
    return m


def default_rank_tol(shape) -> float:
    """Relative rank threshold max(rows, cols) * eps; multiplied by the
    largest singular value (or pivot magnitude) at the point of use."""
    return max(shape) * EPS


def default_hermiticity_tol(m):
    """Scale-relative hermiticity tolerance: 1e-10 times the largest entry,
    per matrix of a stack."""
    return HERMITICITY_REL_TOL * np.abs(m).max(axis=(-2, -1), initial=0.0)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(m)) == m."""
    return _adjoint(as_matrix(m))


def _adjoint(m: np.ndarray) -> np.ndarray:
    """:func:`adjoint` of an array :func:`as_matrix` has already validated,
    or of each matrix of a stack of them."""
    return m.conj().swapaxes(-1, -2).copy()


def is_hermitian(m, tol: float | None = None) -> bool:
    """True iff max |m - m^H| <= tol.  `tol=None` uses the scale-relative default."""
    return _is_hermitian(as_matrix(m), tol)


def _is_hermitian(m: np.ndarray, tol: float | None = None) -> bool:
    """:func:`is_hermitian` of an array :func:`as_matrix` has already validated."""
    return bool(_hermitian_each(m, tol))


def _hermitian_each(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Whether each matrix of a validated stack is Hermitian within ``tol``;
    None takes each matrix's own scale-relative default."""
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"hermiticity is defined for square matrices, got {m.shape}")
    if tol is None:
        tol = default_hermiticity_tol(m)
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0) <= tol


@dataclass
class QrFactors:
    """Economy column-pivoted QR truncated to the detected numerical rank.

    ``m[:, perm] ~= q @ r`` with ``q`` of orthonormal columns (rows x rank),
    ``r`` upper-trapezoidal (rank x cols) with real non-negative diagonal of
    non-increasing magnitude (pivot order).
    """

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    rank: int


def qr_economy_pivoted(m, rank_tol: float | None = None) -> QrFactors:
    """Rank-revealing economy QR with column pivoting (Businger-Golub).

    Column-pivoted modified Gram-Schmidt: each step pivots in the remaining
    column of largest residual norm, reorthogonalizes it once against the Q
    columns so far, and projects the new Q column out of the columns still
    to come.  It stops at a pivot norm at or below ``rank_tol`` times the
    first pivot norm, or exactly 0; the steps taken are the numerical rank,
    and Q and R are truncated to it.  R's diagonal holds each pivot's norm
    after reorthogonalization, so it is real and non-negative by construction.

    An all-zero matrix yields rank 0 with empty factors.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if cols < 1:
        raise DimensionError("input must have at least one column")
    if rank_tol is None:
        rank_tol = default_rank_tol(m.shape)
    if rank_tol <= 0:
        raise ContractViolation("rank_tol must be positive")

    a = m.copy()  # residual columns, in pivot order
    perm = np.arange(cols)
    q = np.zeros((rows, min(rows, cols)), dtype=np.complex128)
    r = np.zeros((min(rows, cols), cols), dtype=np.complex128)
    first = float(np.linalg.norm(m, axis=0).max())
    rank = 0
    for j in range(min(rows, cols)):
        norms = np.linalg.norm(a[:, j:], axis=0)
        p = j + int(np.argmax(norms))
        if norms[p - j] == 0.0 or norms[p - j] <= rank_tol * first:
            break
        a[:, [j, p]], r[:j, [j, p]], perm[[j, p]] = a[:, [p, j]], r[:j, [p, j]], perm[[p, j]]
        c = q[:, :j].conj().T @ a[:, j]  # reorthogonalization pass
        r[:j, j] += c
        v = a[:, j] - q[:, :j] @ c
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j].real
        r[j, j + 1:] = q[:, j].conj() @ a[:, j + 1:]
        a[:, j + 1:] -= np.outer(q[:, j], r[j, j + 1:])
        rank = j + 1
    return QrFactors(q=q[:, :rank].copy(), r=r[:rank, :].copy(), perm=perm, rank=rank)


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
        factors are untruncated, as at full rank.
        """
        if rank_tol <= 0:
            raise ContractViolation("rank_tol must be positive")
        rank = _detected_rank(self.sigma, rank_tol)
        return SvdFactors(u=self.u[:, :rank], sigma=self.sigma[:rank], v=self.v[:, :rank], rank=rank)


def _detected_rank(s: np.ndarray, rank_tol: float) -> int:
    """Count of singular values (non-increasing) above ``rank_tol * s[0]``."""
    smax = float(s[0]) if s.size else 0.0
    return 0 if smax == 0.0 else int(np.count_nonzero(s > rank_tol * smax))


def svd(m, rank_tol: float | None = None) -> SvdFactors:
    """Thin SVD with rank detection (singular values above rank_tol * sigma_max)."""
    m = as_matrix(m)
    if rank_tol is None:
        rank_tol = default_rank_tol(m.shape)
    if rank_tol <= 0:
        raise ContractViolation("rank_tol must be positive")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {m.shape}: {exc}") from exc
    rank = _detected_rank(s, rank_tol)
    return SvdFactors(u=u[:, :rank], sigma=s[:rank], v=vh[:rank, :].conj().T, rank=rank)


def numerical_rank(m, rank_tol: float | None = None) -> int:
    """Count of singular values above the scale-relative threshold."""
    return svd(m, rank_tol).rank


def pseudo_inverse(m, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the SVD over the detected rank.

    Satisfies the four Penrose conditions to rounding; a rank-0 input yields
    the zero matrix of transposed shape.  For full-column-rank input this
    agrees with the triangular route of :func:`pseudo_inverse_qr`.
    """
    return svd(m, rank_tol).pseudo_inverse()


def pseudo_inverse_qr(m, rank_tol: float | None = None) -> np.ndarray:
    """Pseudo-inverse of a full-column-rank matrix as R^-1 Q^H.

    Cross-check route only; the production path is :func:`pseudo_inverse`.
    Raises :class:`ContractViolation` when the detected rank is below the
    column count, where the triangular inverse does not exist.
    """
    m = as_matrix(m)
    f = qr_economy_pivoted(m, rank_tol)
    if f.rank < m.shape[1]:
        raise ContractViolation(
            f"triangular pseudo-inverse needs full column rank, detected {f.rank} < {m.shape[1]}"
        )
    inv_permuted = np.linalg.solve(f.r, f.q.conj().T)  # r is square at full column rank
    out = np.empty_like(inv_permuted)
    out[f.perm, :] = inv_permuted  # undo column pivoting
    return out


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
        raise DimensionError(f"pseudo-inverse shape {p.shape} does not match {m.shape}")
    mp = m @ p
    pm = p @ m

    def _rel(diff, ref):
        scale = max(1.0, float(np.abs(ref).max()) if ref.size else 0.0)
        return (float(np.abs(diff).max()) if diff.size else 0.0) / scale

    return (
        _rel(mp @ m - m, m),
        _rel(pm @ p - p, p),
        _rel(mp.conj().T - mp, mp),
        _rel(pm.conj().T - pm, pm),
    )
