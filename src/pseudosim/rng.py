"""Deterministic random number generation for reproducible experiments.

The generator is pinned to the bit so that any matrix drawn during a run can
be regenerated later from its recorded 64-bit seed, on any machine and in any
language.  Nothing here depends on a platform RNG.

Bit stream (splitmix64)
    The state advances by the 64-bit constant ``0x9E3779B97F4A7C15`` and each
    output is the new state passed through two xorshift/multiply rounds::

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    All arithmetic is modulo 2**64.

Derived values
    * uniform on [0, 1):   ``(word >> 11) * 2**-53``
    * uniform on (0, 1]:   ``((word >> 11) + 1) * 2**-53``
    * standard normal:     Box-Muller cosine branch,
      ``sqrt(-2 ln u1) * cos(2 pi u2)`` with ``u1`` on (0, 1] and ``u2`` on
      [0, 1).  One normal consumes exactly two words, ``u1`` first.
    * complex standard normal array of ``count`` entries: one pass over the
      next ``4 * count`` words, which give ``2 * count`` normals; the first
      ``count`` are the real parts in row-major order, the rest the
      imaginary parts.  Real and imaginary parts are independent standard
      normals.
    * integer on [lo, hi]: ``lo + word % (hi - lo + 1)``
    * distinct index draws: partial Fisher-Yates over ``range(n)``, one
      integer draw per selected index.

Look-ahead block
    A stream computes its words ahead, a block at a time, from its logical
    state with the vectorized recurrence, and serves each draw from that
    block.  This leaves the stream unchanged: every word is the one the
    recurrence gives at its position, and ``state`` is always the state after
    the last word handed out.  A draw that does not fit in what is left of
    the block starts a new block, of its own words plus ``BLOCK_WORDS`` more.

Stream splitting
    ``derive_seed(seed, index)`` equals the ``index``-th splitmix64 output
    for ``seed``, computed in O(1) as ``mix(seed + (index + 1) * GOLDEN)``.
    Experiment runners use it to give every suite and every trial its own
    independent, individually re-creatable stream.
"""
from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53 = float(2**53)

# uint64 constants, built once rather than on every draw.  uint64 *array*
# arithmetic wraps modulo 2**64 without a warning, so no np.errstate is needed.
_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(shift) for shift in (11, 27, 30, 31))

#: words a stream computes ahead of its draws; a trial of the default suites
#: draws a few hundred to a few thousand words
BLOCK_WORDS = 1024
_NO_WORDS = np.empty(0, dtype=np.uint64)


def _words(state: int, count: int) -> np.ndarray:
    """The `count` splitmix64 outputs that follow `state` (vectorized scalar
    recurrence)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.uint64(state)
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def _box_muller(words: np.ndarray) -> np.ndarray:
    """One standard normal per consecutive word pair, ``u1`` first."""
    bits = words >> _U11
    u1 = (bits[0::2].astype(np.float64) + 1.0) / _TWO53
    u2 = bits[1::2].astype(np.float64) / _TWO53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def mix64(z: int) -> int:
    """The splitmix64 output function on a single 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for child stream `index`, the index-th splitmix64 output of `seed`."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return mix64((seed + (index + 1) * GOLDEN) & _MASK64)


class SplitMix64:
    """splitmix64 stream with vectorized uniform/normal/complex draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64
        self._block = _NO_WORDS   # the words after self._state, from self._pos on
        self._pos = 0

    @property
    def state(self) -> int:
        return self._state

    def _take(self, count: int) -> np.ndarray:
        """The next `count` words, as a view of the look-ahead block."""
        if count > self._block.size - self._pos:
            self._block = _words(self._state, count + BLOCK_WORDS)
            self._pos = 0
        start = self._pos
        self._pos += count
        self._state = (self._state + count * GOLDEN) & _MASK64
        return self._block[start:self._pos]

    def next_uint64(self) -> int:
        return self._take(1).item()

    def uint64s(self, count: int) -> np.ndarray:
        """Next `count` outputs as a uint64 array (a view of the look-ahead
        block; writing to it changes no later draw)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._take(count)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform on [0, 1)."""
        return (self.uint64s(count) >> _U11).astype(np.float64) / _TWO53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals (Box-Muller cosine branch, two words each)."""
        return _box_muller(self.uint64s(2 * count))

    def complex_normals(self, shape) -> np.ndarray:
        """Complex array of the tuple ``shape``, with independent standard
        normal real and imaginary parts.

        One pass over the next ``4 * count`` words: the same words, in the same
        order, as ``count`` real-part normals followed by ``count``
        imaginary-part normals.
        """
        count = math.prod(shape)
        z = _box_muller(self.uint64s(4 * count))
        return (z[:count] + 1j * z[count:]).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Integer uniform on the inclusive range [lo, hi] (modulo method)."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_uint64() % (hi - lo + 1)

    def choose_distinct(self, count: int, n: int) -> list[int]:
        """`count` distinct indices from range(n), partial Fisher-Yates order."""
        if not 0 <= count <= n:
            raise ValueError(f"cannot choose {count} distinct indices from {n}")
        pool = list(range(n))
        for i in range(count):
            j = self.randint(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]
