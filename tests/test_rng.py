import itertools

import numpy as np
import pytest

from pseudosim.errors import ContractViolation
from pseudosim.rng import GOLDEN, SplitMix64, complex_normal_stack, derive_seed, mix64


# Reference outputs of the standard splitmix64 stream, cross-checked against
# the original C implementation.  These pin the exact bit stream; any change
# to the constants or mixing breaks cross-platform reproducibility.
REFERENCE = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    0x123456789ABCDEF: [0x157A3807A48FAA9D, 0xD573529B34A1D093],
}


@pytest.mark.parametrize("seed,expected", sorted(REFERENCE.items()))
def test_reference_stream(seed, expected):
    g = SplitMix64(seed)
    assert [g.next_uint64() for _ in expected] == expected


def test_vectorized_matches_scalar():
    a = SplitMix64(987654321).uint64s(257)
    g = SplitMix64(987654321)
    b = [g.next_uint64() for _ in range(257)]
    assert list(a) == b
    assert SplitMix64(987654321).state == 987654321
    for count in (2.5, True, -1):
        with pytest.raises(ContractViolation, match="count must be an int >= 0"):
            g.uint64s(count)


def test_state_advances_identically():
    g1, g2 = SplitMix64(5), SplitMix64(5)
    g1.uint64s(10)
    for _ in range(10):
        g2.next_uint64()
    assert g1.state == g2.state
    assert g1.next_uint64() == g2.next_uint64()


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 3).state == SplitMix64(3).state


def test_uniforms_in_unit_interval():
    u = SplitMix64(11).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = SplitMix64(12).normals(40_000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    assert np.isfinite(z).all()


def test_normals_odd_count():
    g = SplitMix64(13)
    z = g.normals(7)
    assert z.shape == (7,)
    # the count is checked as given, not as the word count it doubles to
    for count in (2.5, True, -1):
        with pytest.raises(ContractViolation, match=f"count must be an int >= 0, got {count!r}$"):
            g.normals(count)


def test_complex_normals_layout():
    # real parts are drawn as one batch, imaginary parts as the next, so the
    # matrix shape cannot change which words feed which component
    g = SplitMix64(14)
    z = g.complex_normals((2, 3))
    ref = SplitMix64(14)
    assert np.array_equal(z.real.ravel(), ref.normals(6))
    assert np.array_equal(z.imag.ravel(), ref.normals(6))
    assert g.state == ref.state == (14 + 4 * 6 * GOLDEN) & 0xFFFFFFFFFFFFFFFF
    assert z.dtype == np.complex128
    var = np.var(SplitMix64(15).complex_normals((200, 200)))
    assert abs(var - 2.0) < 0.1  # unit variance per component
    # each entry of the shape is checked as given, not the word count it gives
    for shape, entry in (((2.0, 2), 2.0), ((2, -1), -1), ((True, 2), True)):
        with pytest.raises(ContractViolation, match=f"shape entry must be an int >= 0, got {entry!r}$"):
            g.complex_normals(shape)


# Derived draws at one seed, pinned bit for bit: a change to how words become
# uniforms or normals (or to the complex layout) must show here.
GOLDEN_SEED = 20251018
GOLDEN_UNIFORMS = [0.4503443122278289, 0.8859061253801158, 0.8902394394990621]
GOLDEN_NORMALS = [-1.466818781093146, -1.0864671793643663, -0.6353955146082287]
GOLDEN_COMPLEX = [
    -0.6828958331640548 - 1.2778131490425912j, 2.0832059060241512 - 0.2708383545263217j,
    0.9057528606712384 + 1.973680649359811j, -1.0167964752842025 + 0.5493893280905643j,
]


def test_golden_derived_draws():
    g = SplitMix64(GOLDEN_SEED)
    assert g.uniforms(3).tolist() == GOLDEN_UNIFORMS
    assert g.normals(3).tolist() == GOLDEN_NORMALS
    assert g.complex_normals((2, 2)).ravel().tolist() == GOLDEN_COMPLEX
    assert g.state == 0x736AE31D6F7B1F97


def test_determinism_across_instances():
    a = SplitMix64(777).complex_normals((4, 5))
    b = SplitMix64(777).complex_normals((4, 5))
    assert (a == b).all()


def test_randint_bounds():
    g = SplitMix64(16)
    draws = {g.randint(3, 7) for _ in range(500)}
    assert draws == {3, 4, 5, 6, 7}
    with pytest.raises(ContractViolation, match=r"empty integer range \[5, 4\]"):
        g.randint(5, 4)
    # a float bound would give a float "integer", and True would read as 1
    for lo, hi in ((1.5, 3), (True, 3), (1, 3.0)):
        with pytest.raises(ContractViolation, match="must be an int"):
            g.randint(lo, hi)


def test_choose_distinct():
    g = SplitMix64(17)
    for _ in range(50):
        sel = g.choose_distinct(4, 9)
        assert len(set(sel)) == 4
        assert all(0 <= i < 9 for i in sel)
    assert sorted(g.choose_distinct(5, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(ContractViolation, match="cannot choose 6 distinct indices from 5"):
        g.choose_distinct(6, 5)
    for count, n in ((2.0, 3), (2, 3.0), (-1, 3)):
        with pytest.raises(ContractViolation, match="must be an int"):
            g.choose_distinct(count, n)


def test_derive_seed_splits_streams():
    s0 = derive_seed(42, 0)
    s1 = derive_seed(42, 1)
    assert s0 != s1
    assert derive_seed(42, 0) == s0
    # derived streams do not trivially overlap the parent stream
    parent = SplitMix64(42).uint64s(64)
    child = SplitMix64(s0).uint64s(64)
    assert not set(parent.tolist()) & set(child.tolist())
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_mix64_is_the_stream_step():
    assert mix64((5 + GOLDEN) & 0xFFFFFFFFFFFFFFFF) == SplitMix64(5).next_uint64()


def test_interleaved_draws_follow_the_stream():
    # each draw, whatever its kind or size, takes the next words of the
    # splitmix64 stream and leaves the state just past them
    seed = 0x5EED
    consumed = 0

    def words(count):
        nonlocal consumed
        out = [mix64((seed + (consumed + i + 1) * GOLDEN) & 0xFFFFFFFFFFFFFFFF) for i in range(count)]
        consumed += count
        return out

    g = SplitMix64(seed)
    calls = [
        lambda: g.randint(3, 17) == 3 + words(1)[0] % 15,
        lambda: g.uniforms(3).tolist() == [(w >> 11) / 2.0**53 for w in words(3)],
        lambda: g.uint64s(0).size == 0,
        lambda: g.uniforms(1).tolist() == [(w >> 11) / 2.0**53 for w in words(1)],
        lambda: np.array_equal(g.complex_normals((3, 2)), _complex_reference(words(24), (3, 2))),
        lambda: g.choose_distinct(3, 8) == _fisher_yates(words(3), 3, 8),
        lambda: g.uint64s(5000).tolist() == words(5000),
        lambda: g.randint(0, 2**40) == words(1)[0] % (2**40 + 1),
        lambda: g.uniforms(5).tolist() == [(w >> 11) / 2.0**53 for w in words(5)],
        lambda: g.next_uint64() == words(1)[0],
    ]
    for i, call in enumerate(calls):
        assert call(), i
        assert g.state == (seed + consumed * GOLDEN) & 0xFFFFFFFFFFFFFFFF, i


def _complex_reference(words, shape):
    """Box-Muller on the given words: real parts first, then imaginary."""
    bits = np.array(words, dtype=np.uint64) >> np.uint64(11)
    u1 = (bits[0::2].astype(np.float64) + 1.0) / 2.0**53
    u2 = bits[1::2].astype(np.float64) / 2.0**53
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    count = len(words) // 4
    return (normals[:count] + 1j * normals[count:]).reshape(shape)


def _fisher_yates(words, count, n):
    pool = list(range(n))
    for i, w in zip(range(count), words):
        j = i + w % (n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:count]


def _plain_words(seed):
    """The splitmix64 stream as the reference C loop writes it: add GOLDEN
    to the state, output mix64 of it."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + GOLDEN) & 0xFFFFFFFFFFFFFFFF
        yield mix64(state)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x5EED])
def test_scalar_draws_follow_a_plain_loop_across_block_edges(seed):
    # draws that end on, or straddle, the 1024th and 1025th word (where a
    # look-ahead block of 1024 words once ended) take exactly the words of a
    # plain mix64 loop
    stream = _plain_words(seed)

    def words(count):
        return list(itertools.islice(stream, count))

    g = SplitMix64(seed)
    calls = [
        lambda: g.uint64s(1023).tolist() == words(1023),
        lambda: g.next_uint64() == words(1)[0],
        lambda: g.randint(0, 9) == words(1)[0] % 10,
        lambda: g.uniforms(1022).tolist() == [(w >> 11) / 2.0**53 for w in words(1022)],
        lambda: g.uint64s(1025).tolist() == words(1025),
        lambda: g.randint(-5, 5) == -5 + words(1)[0] % 11,
        lambda: g.uniforms(1024).tolist() == [(w >> 11) / 2.0**53 for w in words(1024)],
        lambda: g.next_uint64() == words(1)[0],
        lambda: g.uint64s(1).tolist() == words(1),
    ]
    for i, call in enumerate(calls):
        assert call(), i
    assert g.next_uint64() == words(1)[0]


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 2), (16, 16), (128, 48)])
def test_stack_is_complex_normals_one_at_a_time(shape):
    # start states at both ends of the state space and after scalar draws
    # of odd length; each entry of the stack is, bit for bit, the Gaussian
    # complex_normals draws from its start state, and the words of a plain
    # mix64 loop through Box-Muller, real parts first
    g = SplitMix64(0x5EED)
    states = [0, 2**64 - 1]
    for draw in (g.next_uint64, lambda: g.uint64s(3), lambda: g.uniforms(7), lambda: g.randint(1, 6)):
        draw()
        states.append(g.state)
        g.complex_normals(shape)
    stack = complex_normal_stack(states, shape)
    assert stack.shape == (len(states), *shape) and stack.dtype == np.complex128
    count = 4 * int(np.prod(shape))
    for state, z in zip(states, stack):
        alone = SplitMix64(state)
        assert z.tobytes() == alone.complex_normals(shape).tobytes()
        assert alone.state == (state + count * GOLDEN) & 0xFFFFFFFFFFFFFFFF
        reference = _complex_reference(list(itertools.islice(_plain_words(state), count)), shape)
        assert z.tobytes() == reference.tobytes()
