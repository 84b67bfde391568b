import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudosim.ensembles import draw_full_column_rank, draw_rank_l
from pseudosim.errors import ContractViolation
from pseudosim.linalg import (
    _adjoint,
    _hermitian_each,
    as_matrix,
    penrose_residuals,
    pseudo_inverse,
    svd,
)
from pseudosim.rng import SplitMix64
from pseudosim.transforms import inflate_transform, pseudo_similarity


def test_adjoint_basic():
    m = np.array([[1, 1j], [0, 2]], dtype=np.complex128)
    assert_allclose(_adjoint(m), np.array([[1, 0], [-1j, 2]]))
    assert_allclose(_adjoint(np.eye(3, dtype=np.complex128)), np.eye(3))
    sym = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
    assert_allclose(_adjoint(sym), sym)


def test_adjoint_involution_exact():
    m = SplitMix64(1).complex_normals((5, 3))
    assert (_adjoint(_adjoint(m)) == m).all()


def test_is_hermitian():
    assert _hermitian_each(as_matrix([[2, 1 + 1j], [1 - 1j, 3]]))
    assert not _hermitian_each(as_matrix([[0, 1], [0, 0]]))
    assert _hermitian_each(as_matrix(np.eye(4)))
    # the tolerance is HERMITICITY_REL_TOL times the largest entry, with no floor at 1
    assert _hermitian_each(as_matrix([[1e-3, 0.0], [1e-14, 1e-3]]))
    assert not _hermitian_each(as_matrix([[1e-3, 0.0], [1e-11, 1e-3]]))
    with pytest.raises(ContractViolation, match="hermiticity is defined for square matrices"):
        _hermitian_each(as_matrix(np.ones((2, 3))))


def test_matrix_validation():
    with pytest.raises(ContractViolation, match="matrix contains non-finite entries"):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ContractViolation, match=r"matrix must be two-dimensional, got shape \(3,\)"):
        svd(np.zeros(3))


def test_svd_examples():
    assert_allclose(svd(np.eye(2)).sigma, [1.0, 1.0])
    f = svd(np.array([[3.0, 0.0], [0.0, 0.0]]))
    assert f.rank == 1
    assert_allclose(f.sigma, [3.0])
    assert_allclose(svd(np.ones((2, 2))).sigma, [2.0], atol=1e-14)


def test_svd_reconstruction():
    m = SplitMix64(3).complex_normals((6, 4))
    f = svd(m)
    assert_allclose((f.u * f.sigma) @ f.v.conj().T, m, atol=1e-12)
    assert (np.diff(f.sigma) <= 0).all()


def test_numerical_rank():
    assert svd(np.eye(5)).rank == 5
    assert svd(np.zeros((3, 4))).rank == 0
    rng = SplitMix64(4)
    u = rng.complex_normals((6, 1))
    v = rng.complex_normals((4, 1))
    assert svd(u @ v.conj().T).rank == 1


def test_pseudo_inverse_column_unitary():
    q, _ = np.linalg.qr(SplitMix64(5).complex_normals((7, 3)))
    assert np.abs(pseudo_inverse(q) - q.conj().T).max() < 1e-10


def test_pseudo_inverse_examples():
    assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)
    assert_allclose(pseudo_inverse(np.array([[1.0], [1.0]])), [[0.5, 0.5]], atol=1e-15)
    z = pseudo_inverse(np.zeros((3, 5)))
    assert z.shape == (5, 3) and not z.any()


def test_penrose_conditions_random_shapes():
    rng = SplitMix64(6)
    shapes = [(5, 5), (8, 3), (3, 8), (6, 6), (7, 4), (4, 7)]
    for rows, cols in shapes:
        m = rng.complex_normals((rows, cols))
        assert max(penrose_residuals(m, pseudo_inverse(m))) < 1e-8
        # rank-deficient variant of the same shape
        r = max(1, min(rows, cols) - 1)
        md = rng.complex_normals((rows, r)) @ rng.complex_normals((r, cols))
        assert max(penrose_residuals(md, pseudo_inverse(md))) < 1e-8


def test_penrose_shape_mismatch():
    with pytest.raises(ContractViolation, match=r"pseudo-inverse shape \(2, 2\) does not match \(3, 3\)"):
        penrose_residuals(np.eye(3), np.eye(2))


def _triangular_pinv(m):
    """R^-1 Q^H from LAPACK's Householder QR: the pseudo-inverse of a
    full-column-rank matrix by a route independent of the SVD."""
    q, r = np.linalg.qr(m)
    return np.linalg.solve(r, q.conj().T)


def test_qr_route_agrees_with_svd_route():
    rng = SplitMix64(7)
    for _ in range(25):
        rows = rng.randint(2, 9)
        cols = rng.randint(1, rows)
        m = rng.complex_normals((rows, cols))
        p1 = pseudo_inverse(m)
        p2 = _triangular_pinv(m)
        assert np.abs(p1 - p2).max() <= 1e-8 * max(1.0, np.abs(p1).max())
    # ill-conditioned full column rank, cond up to the cap
    for cap in (1e3, 1e6):
        for _ in range(50):
            rows = rng.randint(2, 16)
            m = draw_full_column_rank(rng, rows, rng.randint(1, rows), cap).built()
            p1 = pseudo_inverse(m)
            p2 = _triangular_pinv(m)
            assert np.abs(p1 - p2).max() <= 1e-8 * max(1.0, np.abs(p1).max())


def test_rank_consistency_qr_vs_svd():
    # the detected rank is the rank each matrix was built with
    rng = SplitMix64(8)
    for _ in range(25):
        n, k = rng.randint(2, 8), rng.randint(2, 8)
        l = rng.randint(1, min(n, k))
        m = rng.complex_normals((n, l)) @ rng.complex_normals((l, k))
        assert svd(m).rank == l
    # ill-conditioned: rank l with cond up to the cap, and full column rank
    for cap in (1e3, 1e6):
        for _ in range(50):
            n, k = rng.randint(2, 16), rng.randint(2, 16)
            l = rng.randint(1, min(n, k))
            for m in (draw_rank_l(rng, n, k, l, cap).built(),
                      draw_full_column_rank(rng, max(n, k), l, cap).built()):
                assert svd(m).rank == l


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 0.0, True, "1"])
def test_rank_tol_must_be_finite_and_positive(bad):
    # an infinite or NaN threshold would read every matrix as rank 0, and
    # True would read as a threshold of 1
    with pytest.raises(ContractViolation, match="rank_tol must be finite and > 0"):
        svd(np.eye(3), bad)
    with pytest.raises(ContractViolation, match="rank_tol must be finite and > 0"):
        svd(np.eye(3)).truncated(bad)


@pytest.mark.parametrize("bad", [1.0, 1.5, 1e300])
def test_rank_tol_must_be_below_one(bad):
    # no singular value exceeds rank_tol times the largest one once rank_tol
    # is 1 or more, so every matrix would read as rank 0: each function that
    # takes a threshold refuses it by the one rule
    eye, h = np.eye(3), np.eye(3)[:, :2]
    calls = [lambda: svd(eye, bad), lambda: pseudo_inverse(eye, bad), lambda: svd(eye).truncated(bad),
             lambda: pseudo_similarity(eye, h, bad), lambda: inflate_transform(eye, h, eye[:, :2], bad)]
    for call in calls:
        with pytest.raises(ContractViolation, match=re.escape(f"rank_tol must be < 1, got {bad!r}")):
            call()
    assert svd(eye, 0.999).rank == 3


def test_truncated_needs_a_threshold():
    # None is svd's default threshold, but truncating needs a number to cut at
    with pytest.raises(ContractViolation, match="rank_tol must be finite and > 0, got None"):
        svd(np.eye(3)).truncated(None)

