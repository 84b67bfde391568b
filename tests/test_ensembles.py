import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudosim.eigen import eigvals_general, eigvals_hermitian, match_distance
from pseudosim.ensembles import (
    Draw,
    EnsembleSpec,
    build_draws,
    draw_full_column_rank,
    draw_hermitian,
    draw_invertible_nonunitary,
    draw_rank_l,
    draw_spectrum,
    draw_unitary,
    haar_columns,
)
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.interlace import classify_real
from pseudosim.linalg import penrose_residuals, pseudo_inverse, svd
from pseudosim.rng import SplitMix64, derive_seed


def test_unitary_1x1_unit_modulus():
    u = draw_unitary(SplitMix64(60), 1, 1).built()
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_unitary_orthonormal_columns():
    rng = SplitMix64(61)
    for _ in range(20):
        n = rng.randint(1, 10)
        l = rng.randint(1, n)
        q = draw_unitary(rng, n, l).built()
        assert np.abs(q.conj().T @ q - np.eye(l)).max() < 1e-10
    with pytest.raises(ContractViolation, match="need 1 <= l <= n, got n=2 l=3"):
        draw_unitary(rng, 2, 3)
    # a float or a bool dimension is refused, not read as the int it equals
    with pytest.raises(ContractViolation, match="n must be an int"):
        draw_unitary(SplitMix64(1), 3.0, 2).built()
    with pytest.raises(ContractViolation, match="l must be an int"):
        draw_unitary(SplitMix64(1), 3, True).built()


def test_unitary_bit_identical_draws():
    a = draw_unitary(SplitMix64(62), 5, 3).built()
    b = draw_unitary(SplitMix64(62), 5, 3).built()
    assert (a == b).all()


def test_hermitian_with_spectrum_recovery():
    rng = SplitMix64(63)
    for _ in range(10):
        n = rng.randint(1, 10)
        lam = np.sort(rng.normals(n) * 3)
        p = draw_hermitian(rng, lam).built()
        assert np.abs(p - p.conj().T).max() <= 1e-12
        got = classify_real(eigvals_hermitian(p))
        scale = max(1.0, np.abs(lam).max())
        assert np.abs(got - lam).max() <= 1e-9 * scale


def test_hermitian_scalar_spectrum():
    p = draw_hermitian(SplitMix64(64), [2.5] * 4).built()
    assert_allclose(p, 2.5 * np.eye(4), atol=1e-12)


def test_hermitian_trace_det():
    p = draw_hermitian(SplitMix64(65), [1.0, 3.0]).built()
    assert abs(np.trace(p).real - 4.0) < 1e-10
    assert abs(np.trace(p).imag) < 1e-12
    assert abs(np.linalg.det(p).real - 3.0) < 1e-10


def test_hermitian_spectrum_validation():
    with pytest.raises(ContractViolation):
        draw_hermitian(SplitMix64(66), []).built()
    with pytest.raises(ContractViolation):
        draw_hermitian(SplitMix64(66), [1.0, np.inf]).built()


def test_full_column_rank_basic():
    rng = SplitMix64(68)
    for _ in range(15):
        n = rng.randint(1, 12)
        l = rng.randint(1, n)
        m = draw_full_column_rank(rng, n, l, condition_cap=1e3).built()
        assert svd(m).rank == l
        s = svd(m).sigma
        assert s[0] / s[-1] <= 1e3 * (1 + 1e-12)
        assert max(penrose_residuals(m, pseudo_inverse(m))) < 1e-8
    with pytest.raises(ContractViolation, match="l must be an int"):
        draw_full_column_rank(SplitMix64(1), 3, 2.0).built()


def test_full_column_rank_cap_one():
    # equal singular values: column-unitary up to global scale
    m = draw_full_column_rank(SplitMix64(69), 6, 3, condition_cap=1.0).built()
    gram = m.conj().T @ m
    assert np.abs(gram - gram[0, 0] * np.eye(3)).max() < 1e-12


def test_rank_l_shapes():
    rng = SplitMix64(70)
    m = draw_rank_l(rng, 2, 5, 1).built()
    assert m.shape == (2, 5) and svd(m).rank == 1
    square = draw_rank_l(rng, 4, 3, 3).built()  # k = l degenerate case
    assert svd(square).rank == 3
    for _ in range(10):
        n = rng.randint(2, 8)
        k = rng.randint(n + 1, 20)  # inflation: more columns than rows
        l = rng.randint(1, n)
        m = draw_rank_l(rng, n, k, l).built()
        assert m.shape == (n, k)
        assert svd(m).rank == l <= n
    with pytest.raises(ContractViolation, match=r"need 1 <= l <= min\(n, k\), got n=2 k=3 l=3"):
        draw_rank_l(rng, 2, 3, 3)
    with pytest.raises(ContractViolation, match="k must be an int"):
        draw_rank_l(SplitMix64(1), 3, 4.0, 2).built()


def test_invertible_nonunitary():
    rng = SplitMix64(71)
    for _ in range(15):
        n = rng.randint(2, 8)
        x = draw_invertible_nonunitary(rng, n, condition_cap=1e3, nonunitarity_floor=2.0).built()
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
    x = draw_invertible_nonunitary(rng, 5, condition_cap=1e3).built()
    transformed = np.linalg.solve(x, p @ x)
    dev = match_distance(eigvals_general(transformed),
                         eigvals_hermitian(p))
    assert dev < 1e-6


def test_invertible_nonunitary_contracts():
    rng = SplitMix64(73)
    with pytest.raises(ContractViolation):
        draw_invertible_nonunitary(rng, 3, condition_cap=1.5, nonunitarity_floor=2.0).built()
    with pytest.raises(ContractViolation, match="need n >= 2 to separate sigma_max from sigma_min"):
        draw_invertible_nonunitary(rng, 1)
    with pytest.raises(ContractViolation, match="n must be an int"):
        draw_invertible_nonunitary(rng, 3.0).built()


@pytest.mark.parametrize("generate", [
    lambda cap: draw_full_column_rank(SplitMix64(1), 3, 2, cap).built(),
    lambda cap: draw_rank_l(SplitMix64(1), 3, 4, 2, cap).built(),
    lambda cap: draw_invertible_nonunitary(SplitMix64(1), 3, condition_cap=cap).built(),
], ids=["full-column-rank", "rank-l", "invertible-nonunitary"])
@pytest.mark.parametrize("cap", [np.nan, np.inf, 0.5, True, "5"])
def test_generators_reject_unusable_cap(generate, cap):
    # a NaN cap passes a lone `cap < 1` test and gives a NaN matrix; an
    # infinite one reaches log(0) in the singular-value draw
    with pytest.raises(ContractViolation, match="condition_cap"):
        generate(cap)


@pytest.mark.parametrize("floor", [np.nan, np.inf, 1.0, 200.0, "5"])
def test_invertible_nonunitary_rejects_unusable_floor(floor):
    with pytest.raises(ContractViolation, match="nonunitarity_floor"):
        draw_invertible_nonunitary(SplitMix64(1), 3, condition_cap=100.0, nonunitarity_floor=floor).built()


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
    # n is checked by its own name, before any word is drawn: True and 1.0
    # would read as n = 1
    untouched = SplitMix64(75)
    for n, law in itertools.product((2.5, True, 1.0, 0), (spec, fixed)):
        with pytest.raises(ContractViolation, match=f"n must be an int >= 1, got {n}"):
            draw_spectrum(untouched, law, n)
    assert untouched.next_uint64() == SplitMix64(75).next_uint64()


def test_ensemble_spec_validation():
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, spectrum_law="cauchy")
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, spectrum_law="prescribed")
    with pytest.raises(ContractViolation):
        EnsembleSpec(seed=1, condition_cap=0.5)
    for bad in ({"condition_cap": np.nan}, {"condition_cap": np.inf},
                {"condition_cap": True}, {"condition_cap": "5"},
                {"spectrum_bound": np.inf}, {"spectrum_gap": np.inf, "spectrum_bound": np.inf},
                {"spectrum_gap": True}, {"spectrum_bound": True},
                {"spectrum_law": "prescribed", "spectrum_values": (1.0, np.nan, 2.0)},
                {"spectrum_law": "prescribed", "spectrum_values": (True, 2.0)},
                {"nonunitarity_floor": np.nan}, {"nonunitarity_floor": np.inf},
                {"nonunitarity_floor": 1.0}):
        with pytest.raises(ContractViolation, match=next(iter(bad.keys() - {"spectrum_law"}))):
            EnsembleSpec(seed=1, **bad)
    # whether pinned dimensions, or a prescribed spectrum's length, fit is
    # each suite's to decide (tests/test_cli.py), not the spec's
    assert EnsembleSpec(seed=1, n=2, k=3, l=3).l == 3
    assert EnsembleSpec(seed=1, n=5, spectrum_law="prescribed", spectrum_values=(1.0, 2.0)).n == 5
    # the floor only bounds the oblique draw, so it may exceed the cap here
    assert EnsembleSpec(seed=1, condition_cap=1.0).nonunitarity_floor == 2.0
    spec = EnsembleSpec(seed=2**65 + 5)
    assert spec.seed == 5  # wrapped to 64 bits
    # a numpy spectrum is kept as a tuple, as the CLI passes it
    values = EnsembleSpec(seed=1, spectrum_law="prescribed",
                          spectrum_values=np.array([1.0, 2.0])).spectrum_values
    assert type(values) is tuple and values == (1.0, 2.0)


@pytest.mark.parametrize("law", ["uniform", "signed-uniform"])
def test_spectrum_values_need_the_prescribed_law(law):
    # no other law reads them, so they would be silently ignored
    with pytest.raises(ContractViolation, match="spectrum_values needs spectrum_law = prescribed"):
        EnsembleSpec(seed=1, spectrum_law=law, spectrum_values=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("value", [2.5, 2.0, True, 0])
@pytest.mark.parametrize("dim", ["n", "k", "l"])
def test_pinned_dimensions_are_ints(dim, value):
    # a float or a bool would be accepted here and fail later, inside a trial
    with pytest.raises(ContractViolation, match=f"pinned dimension {dim} must be an int"):
        EnsembleSpec(seed=1, **{dim: value})


@pytest.mark.parametrize("seed", [2.7, True, "12", None])
def test_seed_is_an_int(seed):
    # a float, bool or string would be truncated or parsed into another
    # seed's run, by the spec, by a stream or by a split
    for take in (lambda s: EnsembleSpec(seed=s), SplitMix64, lambda s: derive_seed(s, 0)):
        with pytest.raises(ContractViolation, match="seed must be an int"):
            take(seed)


@pytest.mark.parametrize("seed, masked", [(-1, 2**64 - 1), (2**64 + 3, 3)])
def test_seed_wraps_to_64_bits(seed, masked):
    assert EnsembleSpec(seed=seed).seed == masked


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
    stacked = haar_columns(np.stack(gaussians))
    assert stacked.shape == (count, n, l)
    for g, q in zip(gaussians, stacked):
        assert np.array_equal(q, _haar_reference(g))


def test_haar_factors_keep_draw_order_across_shapes():
    rng = SplitMix64(63)
    draws = [draw_unitary(rng, 5, 2), draw_full_column_rank(rng, 5, 2), draw_unitary(rng, 3, 3),
             draw_rank_l(rng, 4, 7, 2), draw_hermitian(rng, [1.0, -2.0, 0.5])]
    gaussians = [g for d in draws for g in d.gaussians]
    factors = build_draws([Draw((g,)) for g in gaussians])
    assert len(factors) == len(gaussians) == 8
    for (start, shape), q in zip(gaussians, factors):
        assert np.array_equal(q, _haar_reference(SplitMix64(start).complex_normals(shape)))


def test_generators_are_their_draws_assembled():
    # each draw built on its own and a batch of draws stacked give the same matrices
    def draws(rng):
        return [draw_hermitian(rng, [0.5, -1.0, 2.0, 1.5]), draw_full_column_rank(rng, 6, 3, 1e2),
                draw_rank_l(rng, 5, 8, 2), draw_unitary(rng, 4, 4),
                draw_invertible_nonunitary(rng, 4, 1e2, 3.0)]
    batch = draws(SplitMix64(64))
    built = build_draws(batch)
    direct = [d.built() for d in draws(SplitMix64(64))]
    assert len(built) == len(direct) == 5
    for a, b in zip(built, direct):
        assert np.array_equal(a, b)


def test_a_failed_build_is_its_draws_error_alone():
    # a build that raises fails its own draw: build_draws keeps the error,
    # without its traceback, beside the others' members, and built raises it
    def fails(u, v):
        raise NumericalError("no member")

    rng = SplitMix64(65)
    ok, broken = draw_full_column_rank(rng, 4, 2), draw_full_column_rank(rng, 4, 2)
    broken = Draw(broken.gaussians, fails)
    member, error = build_draws([ok, broken])
    assert np.array_equal(member, ok.built())
    assert isinstance(error, NumericalError) and error.__traceback__ is None
    with pytest.raises(NumericalError, match="no member"):
        broken.built()


def test_lone_gaussian_stack_is_its_complex_normals():
    # a shape that only one draw of the batch has is made as a stack of one:
    # the Gaussian that complex_normals draws from the same start state
    seen = []

    def recorded(stack):
        seen.append(stack)
        return haar_columns(stack)

    alone = draw_unitary(SplitMix64(3), 5, 2)
    (start, shape), = alone.gaussians
    build_draws([Draw(alone.gaussians, stage=recorded)])
    assert len(seen) == 1 and seen[0].shape == (1, 5, 2)
    assert np.array_equal(seen[0][0], SplitMix64(start).complex_normals(shape))
