import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudosim.eigen import eigvals_general, eigvals_hermitian, match_distance
from pseudosim.ensembles import draw_full_column_rank, draw_rank_l, draw_unitary
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.interlace import check_interlacing, classify_real
from pseudosim.linalg import pseudo_inverse, svd
from pseudosim.oracles import characteristic_polynomial, polynomial_roots
from pseudosim.rng import SplitMix64
from pseudosim.transforms import (
    build_rank_deficient,
    inflate_transform,
    oblique_transform,
    pseudo_similarity,
    unitary_compression,
)

SQ2 = np.sqrt(2.0)


def _hermitian(rng, n):
    g = rng.complex_normals((n, n))
    return (g + g.conj().T) / 2


def test_pseudo_similarity_selection():
    p = np.diag([1.0, 2.0, 3.0]).astype(complex)
    h = np.eye(3, dtype=complex)[:, :2]
    res = pseudo_similarity(p, h)
    assert_allclose(res.transformed, np.diag([1.0, 2.0]), atol=1e-14)
    assert res.input_rank == 2
    assert res.hermitian


def test_pseudo_similarity_1x1():
    p = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    res = pseudo_similarity(p, np.array([[1.0], [0.0]]))
    assert_allclose(res.transformed, [[2.0]], atol=1e-14)
    lam = classify_real(eigvals_hermitian(p))
    assert_allclose(lam, [1.0, 3.0], atol=1e-14)
    assert check_interlacing(lam, [2.0]).passed


def test_pseudo_similarity_identity_input():
    rng = SplitMix64(40)
    h = draw_full_column_rank(rng, 6, 4).built()
    res = pseudo_similarity(np.eye(6, dtype=complex), h)
    assert_allclose(res.transformed, np.eye(4), atol=1e-10)


def test_pseudo_similarity_contracts():
    p = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ContractViolation, match="h has 3 rows, p is 2 x 2"):
        pseudo_similarity(p, np.ones((3, 1)))
    with pytest.raises(ContractViolation):
        pseudo_similarity(np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))
    with pytest.raises(ContractViolation, match=r"p must be square, got \(2, 3\)"):
        pseudo_similarity(np.ones((2, 3)), np.ones((2, 1)))


def test_pseudo_similarity_rank_zero():
    res = pseudo_similarity(np.eye(2, dtype=complex), np.zeros((2, 3)))
    assert res.input_rank == 0
    assert not res.transformed.any()


def test_generally_not_hermitian():
    # existential: the seeded ensemble witnesses a non-Hermitian transform
    rng = SplitMix64(41)
    p = _hermitian(rng, 4)
    h = draw_full_column_rank(rng, 4, 2, condition_cap=50.0).built()
    res = pseudo_similarity(p, h)
    assert not res.hermitian
    # yet its spectrum is still real
    classify_real(eigvals_general(res.transformed), 1e-8)


def test_unitary_compression_identity():
    rng = SplitMix64(42)
    p = _hermitian(rng, 3)
    res = unitary_compression(p, np.eye(3, dtype=complex))
    assert_allclose(res, p, atol=1e-14)


def test_unitary_compression_selection():
    p = np.diag([1.0, 2.0, 3.0]).astype(complex)
    q = np.eye(3)[:, [0, 2]]
    assert_allclose(unitary_compression(p, q), np.diag([1.0, 3.0]), atol=1e-15)


def test_unitary_compression_rayleigh():
    p = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    q = np.array([[1.0], [1.0]]) / SQ2
    res = unitary_compression(p, q)
    assert_allclose(res, [[3.0]], atol=1e-14)  # the top eigenvalue


def test_unitary_compression_rejects_oblique_frame():
    p = np.eye(2, dtype=complex)
    with pytest.raises(ContractViolation):
        unitary_compression(p, np.array([[1.0], [1.0]]))


def test_subsumption_routes_agree():
    rng = SplitMix64(43)
    for _ in range(30):
        n = rng.randint(2, 10)
        l = rng.randint(1, n)
        p = _hermitian(rng, n)
        q = draw_unitary(rng, n, l).built()
        a = unitary_compression(p, q)
        b = pseudo_similarity(p, q).transformed
        assert np.abs(a - b).max() <= 1e-9


def test_build_rank_deficient_embedding():
    h = SplitMix64(44).complex_normals((4, 2))
    v = np.eye(5, dtype=complex)[:, :2]
    padded = build_rank_deficient(h, v)
    assert_allclose(padded[:, :2], h)
    assert not padded[:, 2:].any()


def test_build_rank_deficient_hand_case():
    h = np.array([[1.0], [0.0]])
    v = np.array([[1.0], [1.0]]) / SQ2
    out = build_rank_deficient(h, v)
    assert_allclose(out, [[1 / SQ2, 1 / SQ2], [0.0, 0.0]], atol=1e-15)
    assert svd(out).rank == 1


def test_build_rank_deficient_contracts():
    h = SplitMix64(45).complex_normals((4, 2))
    with pytest.raises(ContractViolation):
        build_rank_deficient(h, np.ones((5, 2)))  # v not orthonormal
    with pytest.raises(ContractViolation, match="v has 3 columns, expected 2"):
        build_rank_deficient(h, np.eye(5, dtype=complex)[:, :3])
    rank1 = np.outer([1.0, 2.0], [1.0, 1.0]).astype(complex)
    with pytest.raises(ContractViolation):
        build_rank_deficient(rank1, np.eye(2, dtype=complex))


def test_rank_preserved_by_construction():
    rng = SplitMix64(46)
    for _ in range(10):
        n, l = rng.randint(2, 8), rng.randint(1, 4)
        l = min(l, n)
        k = rng.randint(l, 12)
        out = build_rank_deficient(draw_full_column_rank(rng, n, l).built(), draw_unitary(rng, k, l).built())
        assert svd(out).rank == l


def test_inflate_identity_embedding():
    # embedding v puts the core transform in the top-left block, zeros elsewhere
    rng = SplitMix64(47)
    p = _hermitian(rng, 4)
    h = draw_full_column_rank(rng, 4, 2).built()
    v = np.eye(6, dtype=complex)[:, :2]
    res = inflate_transform(p, h, v)
    core = pseudo_similarity(p, h).transformed
    assert_allclose(res.transformed[:2, :2], core, atol=1e-10)
    assert np.abs(res.transformed[2:, :]).max() < 1e-12
    assert np.abs(res.transformed[:, 2:]).max() < 1e-12
    assert res.route_deviation is not None and res.route_deviation <= 1e-8


def test_inflate_square_v_is_similarity():
    rng = SplitMix64(48)
    p = _hermitian(rng, 5)
    h = draw_full_column_rank(rng, 5, 3).built()
    v = draw_unitary(rng, 3, 3).built()
    res = inflate_transform(p, h, v)
    core = pseudo_similarity(p, h).transformed
    dev = match_distance(eigvals_general(res.transformed),
                         eigvals_general(core))
    assert dev < 1e-9


def test_inflate_hand_case():
    p = np.diag([1.0, 3.0]).astype(complex)
    h = np.array([[1.0], [0.0]])
    v = np.array([[1.0], [1.0]]) / SQ2
    res = inflate_transform(p, h, v)
    assert_allclose(res.transformed, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
    w = np.sort(eigvals_general(res.transformed).real)
    assert_allclose(w, [0.0, 1.0], atol=1e-14)  # one interlaced value, one structural zero


def test_factorization_consistency():
    # pinv(h v^H) = v pinv(h) for orthonormal-column v
    rng = SplitMix64(49)
    for _ in range(10):
        n, l = rng.randint(2, 7), rng.randint(1, 4)
        l = min(l, n)
        k = rng.randint(l, 10)
        h = draw_full_column_rank(rng, n, l).built()
        v = draw_unitary(rng, k, l).built()
        lhs = pseudo_inverse(build_rank_deficient(h, v))
        rhs = v @ pseudo_inverse(h)
        assert np.abs(lhs - rhs).max() <= 1e-8


def test_inflate_route_disagreement_raises():
    # corrupting one route's input past the tolerance must raise, carrying both routes
    p = np.diag([1.0, 3.0]).astype(complex)
    h = np.array([[1.0], [0.0]])
    bad_v = np.array([[1.0], [1.0]]) / SQ2 * (1 + 5e-8)  # barely non-orthonormal
    try:
        inflate_transform(p, h, bad_v)
    except (NumericalError, ContractViolation):
        pass  # either guard may fire depending on where the drift is caught
    else:
        pytest.fail("perturbed construction slipped through both guards")


def test_oblique_identity_is_selection():
    p = np.diag([1.0, 2.0, 3.0]).astype(complex)
    res = oblique_transform(p, np.eye(3, dtype=complex), [0, 2])
    assert_allclose(res, np.diag([1.0, 3.0]), atol=1e-14)
    lam = classify_real(eigvals_hermitian(p))
    eta = classify_real(eigvals_general(res))
    assert check_interlacing(lam, eta).passed


def test_oblique_unitary_interlaces():
    rng = SplitMix64(50)
    for _ in range(20):
        n = rng.randint(2, 8)
        p = _hermitian(rng, n)
        x = draw_unitary(rng, n, n).built()
        l = rng.randint(1, n - 1) if n > 2 else 1
        sel = sorted(rng.choose_distinct(l, n))
        res = oblique_transform(p, x, sel)
        lam = classify_real(eigvals_hermitian(p))
        eta = classify_real(eigvals_general(res), 1e-8)
        assert check_interlacing(lam, eta).passed


def test_oblique_hand_case():
    p = np.diag([1.0, 2.0, 3.0]).astype(complex)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 0.0, 1.0]], dtype=complex)
    res = oblique_transform(p, x, [0])
    # x^-1 p x = [[1,0,0],[0,2,0],[10,0,3]]; top-left entry 1 sits inside [1, 3]
    assert_allclose(res, [[1.0]], atol=1e-12)
    assert_allclose(polynomial_roots(characteristic_polynomial(res)), [1.0], atol=1e-12)
    assert check_interlacing([1.0, 2.0, 3.0], [1.0]).passed


def test_oblique_contracts():
    p = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ContractViolation):
        oblique_transform(p, np.eye(2, dtype=complex), [0, 0])
    with pytest.raises(ContractViolation):
        oblique_transform(p, np.eye(2, dtype=complex), [2])
    with pytest.raises(ContractViolation):
        oblique_transform(p, np.eye(2, dtype=complex), [])
    with pytest.raises(NumericalError):
        oblique_transform(p, np.zeros((2, 2), dtype=complex), [0])
    with pytest.raises(ContractViolation, match=r"x must be 2 x 2, got \(3, 3\)"):
        oblique_transform(p, np.eye(3, dtype=complex), [0])
    # int(1.7) and int(True) would both select index 1
    for index in (1.7, True, "1"):
        with pytest.raises(ContractViolation, match="selection index must be an int"):
            oblique_transform(p, np.eye(2, dtype=complex), [index])
    assert_allclose(oblique_transform(p, np.eye(2, dtype=complex), np.array([1])), [[2.0]])


def test_similarity_consistency_with_compression():
    # for full-column-rank h = qr, the transform's spectrum matches the
    # classical compression's spectrum as sorted multisets
    rng = SplitMix64(51)
    for _ in range(15):
        n = rng.randint(2, 9)
        l = rng.randint(1, n)
        p = _hermitian(rng, n)
        h = draw_full_column_rank(rng, n, l).built()
        q = np.linalg.qr(h)[0]
        t = pseudo_similarity(p, h).transformed
        compressed = unitary_compression(p, q)
        dev = match_distance(eigvals_general(t),
                             eigvals_hermitian(compressed))
        assert dev <= 1e-7


def test_inflate_factors_h_once(svd_calls):
    # one SVD of h serves the rank contract and route (b); one of h v^H route (a)
    rng = SplitMix64(52)
    p = _hermitian(rng, 5)
    h = draw_full_column_rank(rng, 5, 2).built()
    v = draw_unitary(rng, 7, 2).built()
    inflate_transform(p, h, v)
    assert svd_calls == [(5, 2), (5, 7)]
    inflate_transform(p, h, v, rank_tol=1e-12)
    assert len(svd_calls) == 4


def test_inflate_explicit_rank_tol_matches_both_routes():
    # an explicit rank_tol truncates the one SVD of h as svd(h, rank_tol) would
    rng = SplitMix64(53)
    p = _hermitian(rng, 6)
    h = draw_full_column_rank(rng, 6, 3, condition_cap=1e4).built()
    v = draw_unitary(rng, 8, 3).built()
    for rank_tol in (1e-14, 1e-3, 0.5):
        assert_array_equal(pseudo_inverse(h, rank_tol), svd(h).truncated(rank_tol).pseudo_inverse())
        res = inflate_transform(p, h, v, rank_tol)
        assert res.input_rank == svd(build_rank_deficient(h, v), rank_tol).rank
        assert res.route_deviation <= 1e-8


@pytest.mark.parametrize("rank_tol", [None, 1e-30, 1e-3])
def test_rank_deficient_h_rejected(rank_tol):
    # the full-column-rank contract is decided at the default threshold,
    # whatever rank_tol the transform itself uses
    p = np.diag([1.0, 2.0]).astype(complex)
    rank1 = np.outer([1.0, 2.0], [1.0, 1.0]).astype(complex)
    with pytest.raises(ContractViolation, match="h must have full column rank"):
        inflate_transform(p, rank1, np.eye(2, dtype=complex), rank_tol)


def test_pseudo_similarity_carries_pinv():
    # the result carries the map's SVD truncated at its rank, and T is its
    # pseudo-inverse times p times the map, bit for bit; the second map is
    # 5 x 7 of rank 2
    rng = SplitMix64(54)
    p = _hermitian(rng, 5)
    for h in (draw_full_column_rank(rng, 5, 3).built(), draw_rank_l(rng, 5, 7, 2).built()):
        res = pseudo_similarity(p, h)
        rank = svd(h).rank
        assert_array_equal(res.factors.pseudo_inverse(), pseudo_inverse(h))
        assert_array_equal(res.transformed, res.factors.pseudo_inverse() @ p @ h)
        assert res.factors.u.shape == (5, rank) and res.factors.v.shape == (h.shape[1], rank)
        assert res.input_rank == res.factors.rank == rank


def test_inflate_carries_factors_of_the_product():
    # route (a)'s SVD is that of h v^H: N x L and K x L factors of rank L
    rng = SplitMix64(55)
    p = _hermitian(rng, 4)
    h = draw_full_column_rank(rng, 4, 2).built()
    v = draw_unitary(rng, 6, 2).built()
    res = inflate_transform(p, h, v)
    hv = h @ v.conj().T
    assert_array_equal(res.transformed, res.factors.pseudo_inverse() @ p @ hv)
    assert res.factors.u.shape == (4, 2) and res.factors.v.shape == (6, 2)
    assert res.input_rank == res.factors.rank == 2


def test_compressions_return_matrices():
    # neither compression inverts a map, so each returns the matrix itself
    p = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert type(unitary_compression(p, np.eye(3)[:, :2])) is np.ndarray
    assert type(oblique_transform(p, np.eye(3), [0, 2])) is np.ndarray
