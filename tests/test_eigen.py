import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudosim.eigen import eigvals_general, eigvals_hermitian, match_distance, sort_eigenvalues
from pseudosim.ensembles import draw_invertible_nonunitary
from pseudosim.errors import ContractViolation, RealnessViolation
from pseudosim.interlace import classify_real
from pseudosim.rng import SplitMix64


def _hermitian(rng, n):
    g = rng.complex_normals((n, n))
    return (g + g.conj().T) / 2


def test_hermitian_examples():
    assert_allclose(classify_real(eigvals_hermitian(np.diag([3.0, 1.0, 2.0]))), [1, 2, 3])
    assert_allclose(classify_real(eigvals_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))),
                    [1, 3], atol=1e-14)
    assert_allclose(classify_real(eigvals_hermitian(np.eye(4))), np.ones(4))


def test_hermitian_rejects_nonhermitian():
    with pytest.raises(ContractViolation):
        eigvals_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_general_examples():
    assert_allclose(eigvals_general(np.array([[0.0, 1.0], [0.0, 0.0]])), [0, 0])
    # rotation eigenvalues tie in the real part, so compare as a multiset
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert match_distance(eigvals_general(rot), [-1j, 1j]) < 1e-14
    assert_allclose(eigvals_general(np.diag([5.0, -2.0])), [-2, 5])
    with pytest.raises(ContractViolation, match=r"need a square matrix or a stack of them, got shape \(2, 3\)"):
        eigvals_general(np.ones((2, 3)))
    with pytest.raises(ContractViolation, match=r"need a square matrix or a stack of them, got shape \(3,\)"):
        eigvals_general(np.ones(3))


def test_sort_order():
    vals = np.array([2 + 1j, 2 - 1j, 1 + 0j])
    assert_allclose(sort_eigenvalues(vals), [1 + 0j, 2 - 1j, 2 + 1j])


def test_spectrum_real_view_guard():
    # a solver's spectrum is a plain array, and the realness verdict takes it as is
    with pytest.raises(RealnessViolation):
        classify_real(eigvals_general(np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert_allclose(classify_real(eigvals_general(np.diag([3.0, 1.0]) + 1e-15j)), [1, 3])


def test_trace_identity():
    rng = SplitMix64(20)
    for _ in range(20):
        n = rng.randint(2, 16)
        m = rng.complex_normals((n, n))
        w = eigvals_general(m)
        assert abs(w.sum() - np.trace(m)) <= 1e-8 * max(1.0, abs(np.trace(m)))


def test_determinant_identity():
    rng = SplitMix64(21)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.complex_normals((n, n))
        det = np.linalg.det(m)
        w = eigvals_general(m)
        assert abs(np.prod(w) - det) <= 1e-6 * max(1.0, abs(det))


def test_hermitian_general_agreement():
    rng = SplitMix64(22)
    for _ in range(20):
        m = _hermitian(rng, rng.randint(2, 12))
        a = classify_real(eigvals_hermitian(m))
        b = np.sort(eigvals_general(m).real)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a - b).max() <= 1e-8 * scale


def test_similarity_invariance():
    rng = SplitMix64(23)
    for _ in range(15):
        n = rng.randint(2, 8)
        m = rng.complex_normals((n, n))
        s = draw_invertible_nonunitary(rng, n, condition_cap=1e3).built()
        transformed = np.linalg.solve(s, m @ s)
        dev = match_distance(eigvals_general(m), eigvals_general(transformed))
        assert dev <= 1e-6 * max(1.0, np.abs(eigvals_general(m)).max())


def test_match_distance():
    assert match_distance([1, 2], [2.0 + 1e-12, 1.0]) < 1e-9
    with pytest.raises(ContractViolation, match=r"multiset sizes differ: \(2,\) vs \(1,\)"):
        match_distance([1, 2], [1])


@pytest.mark.parametrize("n", [1, 3, 6])
def test_stacked_solvers_are_bitwise_per_matrix(n):
    # one LAPACK call over a stack gives each matrix its own spectrum, and
    # the stacked matching gives each pair of rows its own distance, for a
    # stack along one leading axis or several
    rng = SplitMix64(60 + n)
    general = np.array([rng.complex_normals((n, n)) for _ in range(40)])
    hermitian = (general + general.conj().swapaxes(1, 2)) / 2
    spectra = eigvals_general(general)
    assert np.array_equal(spectra, [eigvals_general(m) for m in general])
    assert np.array_equal(eigvals_general(general.reshape(4, 10, n, n)), spectra.reshape(4, 10, n))
    assert np.array_equal(eigvals_hermitian(hermitian), [eigvals_hermitian(m) for m in hermitian])
    perturbed = spectra[::-1] + 1e-9 * spectra
    distances = match_distance(spectra, perturbed)
    assert np.array_equal(distances, [match_distance(a, b) for a, b in zip(spectra, perturbed)])
    assert np.array_equal(match_distance(spectra.reshape(4, 10, n), perturbed.reshape(4, 10, n)),
                          distances.reshape(4, 10))
    assert np.array_equal(sort_eigenvalues(perturbed), [sort_eigenvalues(w) for w in perturbed])
    with pytest.raises(ContractViolation):
        eigvals_hermitian(np.concatenate([hermitian[:3], general[:1]]))


def test_match_distance_keeps_nan():
    # a NaN distance is no match, not a distance of zero
    assert np.isnan(match_distance([1.0, 2.0], [1.0, np.nan]))
    assert np.isnan(match_distance([[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [np.nan, 2.0]])[1])
