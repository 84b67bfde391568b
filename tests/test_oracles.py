import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudosim.eigen import eigvals_general, match_distance, spectral_scale
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.oracles import characteristic_polynomial, polynomial_roots
from pseudosim.rng import SplitMix64


def test_charpoly_known():
    # (z-1)(z-2)(z-3) = z^3 - 6 z^2 + 11 z - 6
    c = characteristic_polynomial(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(c, [1, -6, 11, -6], atol=1e-12)
    c2 = characteristic_polynomial(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(c2, [1, -4, 3], atol=1e-12)  # (z-1)(z-3)


def test_charpoly_companion_consistency():
    coeffs = np.array([1.0, -2.0, -5.0, 6.0])  # roots 1, -2, 3
    companion = np.zeros((3, 3), dtype=np.complex128)
    companion[1:, :2] = np.eye(2)
    companion[:, 2] = -coeffs[:0:-1]
    assert_allclose(characteristic_polynomial(companion.T), coeffs, atol=1e-10)


def test_linear_and_quadratic_roots():
    assert_allclose(polynomial_roots([2.0, -4.0]), [2.0])
    r = np.sort_complex(polynomial_roots([1.0, 0.0, 1.0]))
    assert_allclose(r, [-1j, 1j], atol=1e-14)


def test_quadratic_cancellation_safe():
    # naive formula loses the small root to cancellation
    roots = polynomial_roots([1.0, -1e8 - 1e-8, 1.0])
    small = min(roots, key=abs)
    big = max(roots, key=abs)
    assert abs(small - 1e-8) < 1e-20
    assert abs(big - 1e8) < 1e-4


def test_cubic_quartic_roots():
    r = np.sort(polynomial_roots([1.0, -10.0, 35.0, -50.0, 24.0]).real)
    assert_allclose(r, [1, 2, 3, 4], atol=1e-10)
    r3 = np.sort(polynomial_roots([1.0, -6.0, 11.0, -6.0]).real)
    assert_allclose(r3, [1, 2, 3], atol=1e-10)


def test_repeated_roots():
    # a double root still settles
    r = np.sort(polynomial_roots([1.0, -4.0, 5.0, -2.0]).real)  # (z-1)^2 (z-2)
    assert_allclose(r, [1, 1, 2], atol=1e-6)
    # a triple root hits the rounding floor of the cluster and is surfaced
    # as non-convergence instead of being returned at reduced accuracy
    with pytest.raises(NumericalError):
        polynomial_roots([1.0, -3.0, 3.0, -1.0])


def test_invalid_polynomials():
    with pytest.raises(ContractViolation):
        polynomial_roots([0.0, 1.0, 2.0])  # zero leading coefficient
    with pytest.raises(ContractViolation):
        polynomial_roots([3.0])  # constant


@pytest.mark.parametrize("coeffs", [[1.0, 1e160, 1.0], [1.0, 1e300, 1e300, 1.0], [1e-300, 1e300]],
                         ids=["quadratic", "cubic", "linear"])
def test_roots_that_do_not_come_out_finite_raise(coeffs):
    # b^2 overflows once |b| passes about 1.3e154, though np.roots finds the
    # quadratic's roots, -1e160 and -1e-160; the cubic's Weierstrass products
    # and the linear one's normalisation overflow too.  Each raises the
    # documented NumericalError, with no NaN root returned and no numpy
    # warning let out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            polynomial_roots(coeffs)
        with pytest.raises(NumericalError):  # in a stack, as the runner calls it
            polynomial_roots(np.stack([np.poly(np.arange(1.0, len(coeffs))), coeffs]))


def test_oracle_matches_lapack_small():
    rng = SplitMix64(30)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.complex_normals((n, n))
        oracle = polynomial_roots(characteristic_polynomial(m))
        lapack = eigvals_general(m)
        assert match_distance(lapack, oracle) <= 1e-6 * spectral_scale(oracle)


def test_oracle_matches_hermitian_small():
    rng = SplitMix64(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        g = rng.complex_normals((n, n))
        h = (g + g.conj().T) / 2
        oracle = np.sort(polynomial_roots(characteristic_polynomial(h)).real)
        lapack = np.sort(eigvals_general(h).real)
        assert np.abs(oracle - lapack).max() <= 1e-6 * spectral_scale(lapack)


def _stack(seed, n, count):
    """count n x n matrices: general ones, their Hermitian parts, and a few
    rescaled by powers of ten."""
    rng = SplitMix64(seed)
    mats = []
    for i in range(count):
        g = rng.complex_normals((n, n))
        if i % 2:
            g = (g + g.conj().T) / 2
        if i % 5 == 4:
            g = g * 10.0 ** rng.randint(-3, 3)
        mats.append(g)
    return np.array(mats)


def _faddeev_leverrier_reference(m):
    """Characteristic polynomial of one matrix, the recurrence written out."""
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    nk = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        mk = m @ nk
        coeffs.append(-np.trace(mk) / k)
        nk = mk + coeffs[-1] * np.eye(n)
    return np.array(coeffs)


def _weierstrass_reference(c, max_iter=500):
    """Roots of one monic polynomial of degree >= 3, iterated on their own."""
    n = c.size - 1
    z = (1.0 + float(np.abs(c[1:]).max())) * (0.4 + 0.9j) ** np.arange(1, n + 1)
    off = ~np.eye(n, dtype=bool)
    for _ in range(max_iter):
        p = np.zeros_like(z)
        for coeff in c:
            p = p * z + coeff
        step = p / (z[:, None] - z)[off].reshape(n, n - 1).prod(axis=1)
        z = z - step
        if np.abs(step).max() <= 1e-14 * max(1.0, float(np.abs(z).max())):
            return np.sort_complex(z)
    raise NumericalError("reference iteration did not settle")


@pytest.mark.parametrize("count", [1, 2, 50])
@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_charpoly_and_roots_are_bitwise_per_matrix(n, count):
    # a stack gives each matrix and each polynomial exactly what it gets
    # alone, through the closed forms (n <= 2) and the Weierstrass iteration,
    # and what the one-matrix recurrence and iteration give
    mats = _stack(40 + n, n, count)
    coeffs = characteristic_polynomial(mats)
    assert np.array_equal(coeffs, [characteristic_polynomial(m) for m in mats])
    assert np.array_equal(coeffs, [_faddeev_leverrier_reference(m) for m in mats])
    roots = polynomial_roots(coeffs)
    assert np.array_equal(roots, [polynomial_roots(c) for c in coeffs])
    if n >= 3:
        assert np.array_equal(roots, [_weierstrass_reference(c) for c in coeffs])
    scaled = coeffs * (1.5 - 0.5j)  # not monic: each row is divided by its leading term
    assert np.array_equal(polynomial_roots(scaled), [polynomial_roots(c) for c in scaled])
    if count == 50:  # two leading axes give the same rows as one
        assert np.array_equal(characteristic_polynomial(mats.reshape(5, 10, n, n)),
                              coeffs.reshape(5, 10, n + 1))
        assert np.array_equal(polynomial_roots(coeffs.reshape(5, 10, n + 1)), roots.reshape(5, 10, n))


def test_unsettled_row_fails_its_stack():
    # an unsettled row fails the whole stack; the others settle alone in
    # their usual number of iterations
    coeffs = characteristic_polynomial(_stack(50, 3, 4))
    stuck = np.array([1.0, -3.0, 3.0, -1.0], dtype=np.complex128)  # (z - 1)^3
    with pytest.raises(NumericalError, match="did not settle for degree 3"):
        polynomial_roots(np.vstack([coeffs[:2], stuck, coeffs[2:]]))
    assert np.array_equal(polynomial_roots(coeffs), [polynomial_roots(c) for c in coeffs])


def test_stacked_roots_contract():
    coeffs = characteristic_polynomial(_stack(51, 3, 3))
    for bad in (np.nan, 0.0):
        rows = coeffs.copy()
        rows[1, 0] = bad
        with pytest.raises(ContractViolation):
            polynomial_roots(rows)


def _scalar_quadratic(b, c):
    """Roots of t^2 + b t + c in numpy scalar arithmetic, one pair at a time."""
    s = np.sqrt(complex(b * b - 4.0 * c))
    if abs(b - s) > abs(b + s):
        s = -s
    q = -(b + s) / 2.0
    return [0j, 0j] if q == 0 else [q, c / q]


def test_quadratic_roots_match_scalar_arithmetic():
    # the vectorised closed form rounds as scalar arithmetic does, where
    # numpy's vectorised complex square and absolute value would not
    rng = SplitMix64(52)
    coeffs = np.ones((2000, 3), dtype=np.complex128)
    coeffs[:, 1:] = rng.complex_normals((2000, 2)) * 10.0 ** rng.uniforms(2000)[:, None]
    coeffs[::7, 2] = 0.0  # a zero root
    expected = [np.sort_complex(_scalar_quadratic(b, c)) for _, b, c in coeffs]
    assert np.array_equal(polynomial_roots(coeffs), expected)
