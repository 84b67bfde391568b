import numpy as np
import pytest
from numpy.testing import assert_allclose

import pseudosim.ensembles as ensembles
from pseudosim.eigen import eigvals_general, eigvals_hermitian, match_distance
from pseudosim.ensembles import (
    EnsembleSpec,
    _haar_columns,
    draw_full_column_rank,
    draw_hermitian,
    draw_rank_l,
    draw_spectrum,
    draw_unitary,
    haar_factors,
    hermitian_with_spectrum,
    random_full_column_rank,
    random_invertible_nonunitary,
    random_rank_l,
    random_unitary,
    selection_matrix,
)
from pseudosim.errors import ContractViolation, DimensionError
from pseudosim.interlace import classify_real
from pseudosim.linalg import is_hermitian, numerical_rank, penrose_residuals, pseudo_inverse, svd
from pseudosim.rng import SplitMix64


def test_unitary_1x1_unit_modulus():
    u = random_unitary(SplitMix64(60), 1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_unitary_orthonormal_columns():
    rng = SplitMix64(61)
    for _ in range(20):
        n = rng.randint(1, 10)
        l = rng.randint(1, n)
        q = random_unitary(rng, n, l)
        assert np.abs(q.conj().T @ q - np.eye(l)).max() < 1e-10
    with pytest.raises(DimensionError):
        random_unitary(rng, 2, 3)


def test_unitary_bit_identical_draws():
    a = random_unitary(SplitMix64(62), 5, 3)
    b = random_unitary(SplitMix64(62), 5, 3)
    assert (a == b).all()


def test_hermitian_with_spectrum_recovery():
    rng = SplitMix64(63)
    for _ in range(10):
        n = rng.randint(1, 10)
        lam = np.sort(rng.normals(n) * 3)
        p = hermitian_with_spectrum(rng, lam)
        assert is_hermitian(p, 1e-12)
        got = classify_real(eigvals_hermitian(p))
        scale = max(1.0, np.abs(lam).max())
        assert np.abs(got - lam).max() <= 1e-9 * scale


def test_hermitian_scalar_spectrum():
    p = hermitian_with_spectrum(SplitMix64(64), [2.5] * 4)
    assert_allclose(p, 2.5 * np.eye(4), atol=1e-12)


def test_hermitian_trace_det():
    p = hermitian_with_spectrum(SplitMix64(65), [1.0, 3.0])
    assert abs(np.trace(p).real - 4.0) < 1e-10
    assert abs(np.trace(p).imag) < 1e-12
    assert abs(np.linalg.det(p).real - 3.0) < 1e-10


def test_hermitian_spectrum_validation():
    with pytest.raises(ContractViolation):
        hermitian_with_spectrum(SplitMix64(66), [])
    with pytest.raises(ContractViolation):
        hermitian_with_spectrum(SplitMix64(66), [1.0, np.inf])


def test_selection_matrix():
    assert_allclose(selection_matrix([0, 1], 3),
                    np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))
    assert_allclose(selection_matrix([2], 3), np.array([[0], [0], [1]], dtype=complex))
    # principal submatrix extraction is exact
    p = SplitMix64(67).complex_normals((4, 4))
    s = selection_matrix([1, 3], 4)
    extracted = s.conj().T @ p @ s
    assert (extracted == p[np.ix_([1, 3], [1, 3])]).all()


def test_selection_matrix_contracts():
    with pytest.raises(ContractViolation):
        selection_matrix([0, 0], 3)
    with pytest.raises(ContractViolation):
        selection_matrix([3], 3)
    with pytest.raises(ContractViolation):
        selection_matrix([], 3)


def test_full_column_rank_basic():
    rng = SplitMix64(68)
    for _ in range(15):
        n = rng.randint(1, 12)
        l = rng.randint(1, n)
        m = random_full_column_rank(rng, n, l, condition_cap=1e3)
        assert numerical_rank(m) == l
        s = svd(m).sigma
        assert s[0] / s[-1] <= 1e3 * (1 + 1e-12)
        assert max(penrose_residuals(m, pseudo_inverse(m))) < 1e-8


def test_full_column_rank_cap_one():
    # equal singular values: column-unitary up to global scale
    m = random_full_column_rank(SplitMix64(69), 6, 3, condition_cap=1.0)
    gram = m.conj().T @ m
    assert np.abs(gram - gram[0, 0] * np.eye(3)).max() < 1e-12


def test_rank_l_shapes():
    rng = SplitMix64(70)
    m = random_rank_l(rng, 2, 5, 1)
    assert m.shape == (2, 5) and numerical_rank(m) == 1
    square = random_rank_l(rng, 4, 3, 3)  # k = l degenerate case
    assert numerical_rank(square) == 3
    for _ in range(10):
        n = rng.randint(2, 8)
        k = rng.randint(n + 1, 20)  # inflation: more columns than rows
        l = rng.randint(1, n)
        m = random_rank_l(rng, n, k, l)
        assert m.shape == (n, k)
        assert numerical_rank(m) == l <= n
    with pytest.raises(DimensionError):
        random_rank_l(rng, 2, 3, 3)


def test_invertible_nonunitary():
    rng = SplitMix64(71)
    for _ in range(15):
        n = rng.randint(2, 8)
        x = random_invertible_nonunitary(rng, n, condition_cap=1e3, nonunitarity_floor=2.0)
        assert abs(np.linalg.det(x)) > 0
        assert np.abs(x.conj().T @ x - np.eye(n)).max() > 0.1
        assert np.abs(np.linalg.inv(x) @ x - np.eye(n)).max() < 1e-10
        s = svd(x).sigma
        ratio = s[0] / s[-1]
        assert 2.0 * (1 - 1e-12) <= ratio <= 1e3 * (1 + 1e-12)


def test_invertible_similarity_preserves_spectrum():
    rng = SplitMix64(72)
    g = rng.complex_normals((5, 5))
    p = (g + g.conj().T) / 2
    x = random_invertible_nonunitary(rng, 5, condition_cap=1e3)
    transformed = np.linalg.solve(x, p @ x)
    dev = match_distance(eigvals_general(transformed),
                         eigvals_hermitian(p))
    assert dev < 1e-6


def test_invertible_nonunitary_contracts():
    rng = SplitMix64(73)
    with pytest.raises(ContractViolation):
        random_invertible_nonunitary(rng, 3, condition_cap=1.5, nonunitarity_floor=2.0)
    with pytest.raises(DimensionError):
        random_invertible_nonunitary(rng, 1)


def test_spectrum_laws():
    rng = SplitMix64(74)
    spec = EnsembleSpec(seed=1, spectrum_law="signed-uniform", spectrum_gap=0.1, spectrum_bound=2.0)
    lam = draw_spectrum(rng, spec, 200)
    assert (np.abs(lam) >= 0.1).all() and (np.abs(lam) <= 2.0).all()
    assert (lam < 0).any() and (lam > 0).any()

    uniform = EnsembleSpec(seed=1, spectrum_law="uniform", spectrum_gap=0.5, spectrum_bound=1.5)
    lam_u = draw_spectrum(rng, uniform, 100)
    assert (lam_u >= 0.5).all() and (lam_u <= 1.5).all()

    fixed = EnsembleSpec(seed=1, spectrum_law="prescribed", spectrum_values=(3.0, -1.0))
    assert_allclose(draw_spectrum(rng, fixed, 2), [3.0, -1.0])
    with pytest.raises(ContractViolation):
        draw_spectrum(rng, fixed, 3)


def test_ensemble_spec_validation():
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, spectrum_law="cauchy")
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, n=2, k=3, l=3)
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, spectrum_law="prescribed")
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, condition_cap=0.5)
    spec = EnsembleSpec(seed=2**65 + 5)
    assert spec.seed == 5  # wrapped to 64 bits


def _haar_reference(a):
    """One QR call for one Gaussian, then the rephasing, as a generator
    computed it per matrix."""
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n, l", [(1, 1), (4, 1), (6, 6), (9, 4), (16, 16)])
@pytest.mark.parametrize("count", [1, 7])
def test_stacked_haar_factor_is_bitwise_per_matrix(n, l, count):
    rng = SplitMix64(1000 * n + l)
    gaussians = [rng.complex_normals((n, l)) for _ in range(count)]
    stacked = _haar_columns(np.stack(gaussians))
    assert stacked.shape == (count, n, l)
    for g, q in zip(gaussians, stacked):
        assert np.array_equal(q, _haar_reference(g))


def test_haar_factors_keep_draw_order_across_shapes():
    rng = SplitMix64(63)
    draws = [draw_unitary(rng, 5, 2), draw_full_column_rank(rng, 5, 2), draw_unitary(rng, 3, 3),
             draw_rank_l(rng, 4, 7, 2), draw_hermitian(rng, [1.0, -2.0, 0.5])]
    factors = haar_factors(draws)
    assert [len(f) for f in factors] == [len(d.gaussians) for d in draws]
    for d, f in zip(draws, factors):
        for g, q in zip(d.gaussians, f):
            assert np.array_equal(q, _haar_reference(g))


def test_generators_are_their_draws_assembled():
    # the public generators and a batch of draws give the same matrices
    def draws(rng):
        return [draw_hermitian(rng, [0.5, -1.0, 2.0, 1.5]), draw_full_column_rank(rng, 6, 3, 1e2),
                draw_rank_l(rng, 5, 8, 2), draw_unitary(rng, 4, 4)]
    batch = draws(SplitMix64(64))
    built = [d.assemble(f) for d, f in zip(batch, haar_factors(batch))]
    rng = SplitMix64(64)
    direct = [hermitian_with_spectrum(rng, [0.5, -1.0, 2.0, 1.5]), random_full_column_rank(rng, 6, 3, 1e2),
              random_rank_l(rng, 5, 8, 2), random_unitary(rng, 4, 4)]
    for a, b in zip(built, direct):
        assert np.array_equal(a, b)


def test_single_draw_group_is_a_view_of_its_words(monkeypatch):
    # a shape that only one draw of the batch has is factored from that
    # draw's own Gaussian, not from a second copy of it
    seen = []
    haar_columns = ensembles._haar_columns

    def recorded(stack):
        seen.append(stack)
        return haar_columns(stack)

    monkeypatch.setattr(ensembles, "_haar_columns", recorded)
    rng = SplitMix64(3)
    alone, first, second = draw_unitary(rng, 5, 2), draw_unitary(rng, 4, 3), draw_unitary(rng, 4, 3)
    haar_factors([alone, first, second])
    assert len(seen) == 2
    assert np.shares_memory(seen[0], alone.gaussians[0])
    assert not any(np.shares_memory(seen[1], d.gaussians[0]) for d in (first, second))
