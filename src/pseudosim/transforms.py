"""Spectrum-compressing transformations of Hermitian matrices.

The central operation is :func:`pseudo_similarity`: ``pinv(H) @ P @ H`` for a
general N x K matrix H of rank L.  Its K x K result is generally
non-Hermitian and may have more rows than P (K > N), yet its L nonzero
eigenvalues still interlace the spectrum of P.  It returns, as does
:func:`inflate_transform` for the rank-deficient construction ``H V^H`` used
to exercise deflation and inflation, a :class:`TransformResult` that carries
the SVD of the map.  The classical unitary compression ``Q^H P Q`` (the
special case where H has orthonormal columns) and the oblique compression,
for which the interlacing guarantee demonstrably fails, invert no map and
return the compressed matrix itself.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, Gate, NumericalError, _held, require_number
from .linalg import (
    ORTH_TOL,
    SvdFactors,
    _adjoint,
    _hermitian_each,
    _require_rank_tol,
    _svd,
    as_matrix,
    spectral_scale,
)

#: relative factor for route cross-checks (times max(1, entry scale))
CROSS_REL_TOL = 1e-8


@dataclass
class TransformResult:
    """``transformed = factors.pseudo_inverse() @ p @ map``, where ``factors``
    is the thin SVD of the map truncated at its detected rank."""

    transformed: np.ndarray
    factors: SvdFactors
    route: Gate | None = None  # inflate_transform's gate on the agreement of its routes

    @property
    def route_deviation(self) -> float | None:  # the gap between inflate_transform's routes
        return None if self.route is None else self.route.measured

    @property
    def input_rank(self) -> int:
        return self.factors.rank

    @property
    def hermitian(self) -> bool:  # within the scale-relative default tolerance
        return bool(_hermitian_each(self.transformed))


# The public transforms validate their arguments once and call their private
# bodies (_pseudo_similarity, _unitary_compression, _inflate_transform), which
# take arrays that are already validated.  The runner calls the bodies.

def _require_hermitian(p, name="p"):
    p = as_matrix(p, name)
    if p.shape[0] != p.shape[1]:
        raise ContractViolation(f"{name} must be square, got {p.shape}")
    if not _hermitian_each(p):
        raise ContractViolation(f"{name} is not Hermitian within tolerance")
    return p


def _require_orthonormal_columns(v, name="matrix"):
    v = as_matrix(v, name)
    if v.shape[0] < v.shape[1]:
        raise ContractViolation(f"{name} cannot have orthonormal columns with shape {v.shape}")
    gram = v.conj().T @ v
    dev = float(np.abs(gram - np.eye(v.shape[1])).max()) if v.size else 0.0
    if dev > ORTH_TOL:
        raise ContractViolation(f"{name} columns are not orthonormal (|v^H v - I| = {dev:.3e})")
    return v


def _require_map(p, h):
    """h, once its shape fits a pseudo-similarity of p."""
    if h.shape[0] != p.shape[0]:
        raise ContractViolation(f"h has {h.shape[0]} rows, p is {p.shape[0]} x {p.shape[0]}")
    if h.shape[1] < 1:
        raise ContractViolation("h must have at least one column")
    return h


def _require_embedding(h, v) -> tuple[np.ndarray, np.ndarray]:
    """Validated h and v for ``h @ v^H``; the full column rank of h is
    :func:`_full_column_rank`'s to check."""
    h = as_matrix(h, "h")
    v = _require_orthonormal_columns(v, "v")
    if v.shape[1] != h.shape[1]:
        raise ContractViolation(f"v has {v.shape[1]} columns, expected {h.shape[1]}")
    return h, v


def _full_column_rank(h: np.ndarray) -> SvdFactors:
    """The SVD of a validated h, once it shows h's full column rank at the
    default threshold."""
    factors = _svd(h)
    if factors.rank != h.shape[1]:
        raise ContractViolation("h must have full column rank")
    return factors


def _pseudo_similarity(p, h, rank_tol: float | None = None) -> TransformResult:
    """:func:`pseudo_similarity` of validated arguments."""
    factors = _svd(h, rank_tol)
    return TransformResult(factors.pseudo_inverse() @ p @ h, factors)


def pseudo_similarity(p, h, rank_tol: float | None = None) -> TransformResult:
    """``pinv(h) @ p @ h`` for Hermitian p (N x N) and general h (N x K).

    Any rank and any K are accepted, including K > N.  A rank-0 h yields the
    K x K zero matrix (every later interlacing check on it is vacuous and is
    flagged as such in reports).  Non-Hermitian p is rejected, not repaired.
    The result carries the one SVD of h that gives both the pseudo-inverse
    and the rank.
    """
    p = _require_hermitian(p)
    return _pseudo_similarity(p, _require_map(p, as_matrix(h, "h")), _require_rank_tol(rank_tol))


def unitary_compression(p, q) -> np.ndarray:
    """``q^H p q`` for column-unitary q: the classical compression.

    Because the pseudo-inverse of a column-unitary matrix is its adjoint,
    this is the special case of :func:`pseudo_similarity` with orthonormal
    columns; the two agree to rounding, which the test suite pins down.
    """
    p = _require_hermitian(p)
    q = _require_orthonormal_columns(q, "q")
    if q.shape[0] != p.shape[0]:
        raise ContractViolation(f"q has {q.shape[0]} rows, p is {p.shape[0]} x {p.shape[0]}")
    return _unitary_compression(p, q)


def _unitary_compression(p, q) -> np.ndarray:
    """:func:`unitary_compression` of validated arguments."""
    return q.conj().T @ p @ q


def build_rank_deficient(h, v) -> np.ndarray:
    """``h @ v^H``: embed a full-column-rank N x L matrix into N x K, K >= L.

    v must have orthonormal columns (K x L), which preserves the rank: the
    result has numerical rank exactly L while gaining K - L dependent
    columns.  K > N turns later transforms into dimensional inflation.
    """
    h, v = _require_embedding(h, v)
    _full_column_rank(h)
    return h @ v.conj().T


def inflate_transform(p, h, v, rank_tol: float | None = None) -> TransformResult:
    """Pseudo-similarity by the rank-deficient ``h @ v^H``, computed two ways.

    Route (a) applies :func:`pseudo_similarity` to the product h @ v^H;
    route (b) conjugates the L x L core transform by v.  Both must agree to
    within ``1e-8 * max(1, entry scale)`` per entry or a
    :class:`NumericalError` carrying both matrices is raised.  Route (a) is
    returned, with the SVD of h @ v^H and the observed deviation recorded.

    One SVD of h serves both the full-column-rank contract of
    :func:`build_rank_deficient`, at the default threshold, and route (b),
    at ``rank_tol``.
    """
    p = _require_hermitian(p)
    h, v = _require_embedding(h, v)
    # h v^H has h's rows and at least as many columns
    result = _inflate_transform(p, _require_map(p, h), v, _require_rank_tol(rank_tol))
    return _held(result, result.route)


def _inflate_transform(p, h, v, rank_tol: float | None = None) -> TransformResult:
    """:func:`inflate_transform` of validated arguments, whose result's route
    gate is failed by the error it raises.  The full column rank of h is
    still checked: on drawn arrays it is a verdict, not a precondition."""
    h_factors = _full_column_rank(h)
    hv = h @ v.conj().T
    route_a = _pseudo_similarity(p, hv, rank_tol)
    core_factors = h_factors if rank_tol is None else h_factors.truncated(rank_tol)
    core = core_factors.pseudo_inverse() @ p @ h
    route_b = v @ core @ _adjoint(v)
    dev = float(np.abs(route_a.transformed - route_b).max())
    bound = CROSS_REL_TOL * max(spectral_scale(route_a.transformed), spectral_scale(route_b))
    failure = None if dev <= bound else NumericalError(  # a NaN deviation fails too
        f"inflation routes disagree: max entry deviation {dev:.3e} exceeds {bound:.3e}")
    if failure:
        failure.route_a, failure.route_b = route_a.transformed, route_b
    return replace(route_a, route=Gate("route", dev, bound, failure))


def oblique_transform(p, x, selection) -> np.ndarray:
    """Principal submatrix of ``x^-1 p x`` at the selected indices.

    This is the compression through the oblique (non-orthogonal) projector
    built from an invertible, generally non-unitary x.  No interlacing
    guarantee attaches to the result: its spectrum need not even be real.
    ``selection`` holds distinct 0-based int indices into range(N); numpy
    integers count as ints.
    """
    p = _require_hermitian(p)
    x = as_matrix(x, "x")
    if x.shape != p.shape:
        raise ContractViolation(f"x must be {p.shape[0]} x {p.shape[0]}, got {x.shape}")
    # int(1.7) or int(True) would silently select another submatrix
    sel = [require_number(i.item() if isinstance(i, np.integer) else i, "selection index", integer=True)
           for i in selection]
    if len(set(sel)) != len(sel):
        raise ContractViolation(f"selection indices must be distinct: {sel}")
    if any(i < 0 or i >= p.shape[0] for i in sel):
        raise ContractViolation(f"selection indices out of range(0, {p.shape[0]}): {sel}")
    if not sel:
        raise ContractViolation("selection must not be empty")
    try:
        similar = np.linalg.solve(x, p @ x)  # x^-1 (p x)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"x is singular to working precision: {exc}") from exc
    return similar[np.ix_(sel, sel)]
