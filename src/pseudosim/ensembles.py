"""Seeded random ensembles for the verification suites.

Every generator takes an explicit :class:`~pseudosim.rng.SplitMix64` so runs
are bit-reproducible across platforms; none of them touch numpy's global
state.  Structural properties (orthonormality, rank, spectrum, conditioning)
are part of each generator's contract and are re-checked by the test suite on
every draw.

A generator that needs Haar-like unitaries runs in three steps.  Its
``draw_*`` function takes every random number from the stream, in a fixed
order, and returns a :class:`Draw` that holds the complex Gaussian matrices
it drew; :func:`haar_factors` turns those Gaussians into orthonormal columns,
for many draws at once with one QR call per matrix shape;
:meth:`Draw.assemble` builds the member from them.
``random_*`` and :func:`hermitian_with_spectrum` run the three steps for one
draw.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ContractViolation, DimensionError
from .rng import SplitMix64
from .transforms import build_rank_deficient

#: dimension ranges used when an EnsembleSpec leaves n/k/l unset
DEFAULT_N_RANGE = (2, 16)
DEFAULT_CONDITION_CAP = 1e3
DEFAULT_SPECTRUM_GAP = 0.1
DEFAULT_SPECTRUM_BOUND = 2.0
DEFAULT_NONUNITARITY_FLOOR = 2.0

SPECTRUM_LAWS = ("prescribed", "uniform", "signed-uniform")


@dataclass
class EnsembleSpec:
    """Everything needed to regenerate an ensemble bit for bit.

    ``n``, ``k`` and ``l`` may be left as None, in which case each trial
    draws them from the default ranges above (subject to the structural
    constraints of the consuming suite).  ``spectrum_law`` selects how eigenvalues of
    the Hermitian input are drawn:

    * ``prescribed``: use ``spectrum_values`` verbatim (length must be n),
    * ``uniform``: uniform in [spectrum_gap, spectrum_bound],
    * ``signed-uniform``: uniform magnitude in [spectrum_gap,
      spectrum_bound] with a random sign, so the open interval
      (-gap, +gap) around zero stays empty and structural zeros remain
      separable from genuine eigenvalues.
    """

    seed: int
    n: int | None = None
    k: int | None = None
    l: int | None = None
    spectrum_law: str = "signed-uniform"
    spectrum_gap: float = DEFAULT_SPECTRUM_GAP
    spectrum_bound: float = DEFAULT_SPECTRUM_BOUND
    spectrum_values: tuple[float, ...] | None = None
    condition_cap: float = DEFAULT_CONDITION_CAP
    nonunitarity_floor: float = DEFAULT_NONUNITARITY_FLOOR

    def __post_init__(self):
        self.seed = int(self.seed) & 0xFFFFFFFFFFFFFFFF
        if self.spectrum_law not in SPECTRUM_LAWS:
            raise ContractViolation(
                f"unknown spectrum_law {self.spectrum_law!r}, expected one of {SPECTRUM_LAWS}"
            )
        if self.spectrum_law == "prescribed":
            if not self.spectrum_values:
                raise ContractViolation("prescribed law requires spectrum_values")
            if self.n is not None and len(self.spectrum_values) != self.n:
                raise ContractViolation(
                    f"prescribed spectrum has length {len(self.spectrum_values)}, n = {self.n}"
                )
        if not (0.0 < self.spectrum_gap <= self.spectrum_bound):
            raise ContractViolation("need 0 < spectrum_gap <= spectrum_bound")
        if self.condition_cap < 1.0:
            raise ContractViolation("condition_cap must be >= 1")
        dims = (self.n, self.k, self.l)
        if any(d is not None and d < 1 for d in dims):
            raise ContractViolation(
                f"pinned dimensions must be >= 1, got n={self.n} k={self.k} l={self.l}"
            )
        if all(d is not None for d in dims):
            if not 1 <= self.l <= min(self.n, self.k):
                raise ContractViolation(
                    f"need 1 <= l <= min(n, k), got n={self.n} k={self.k} l={self.l}"
                )


def draw_spectrum(rng: SplitMix64, spec: EnsembleSpec, n: int) -> np.ndarray:
    """Real eigenvalue sample of length n under ``spec.spectrum_law``."""
    if spec.spectrum_law == "prescribed":
        values = np.asarray(spec.spectrum_values, dtype=np.float64)
        if len(values) != n:
            raise ContractViolation(f"prescribed spectrum has length {len(values)}, need {n}")
        return values
    lo, hi = spec.spectrum_gap, spec.spectrum_bound
    magnitudes = lo + (hi - lo) * rng.uniforms(n)
    if spec.spectrum_law == "uniform":
        return magnitudes
    signs = np.where(rng.uniforms(n) < 0.5, -1.0, 1.0)
    return signs * magnitudes


@dataclass(frozen=True, eq=False)
class Draw:
    """An ensemble member whose random numbers are drawn but which is not
    built yet.

    ``gaussians`` holds the complex standard normal matrices whose Haar-like
    factors the member needs; ``build`` makes the member from those factors,
    taken in the same order.  :func:`haar_factors` serves many draws at once,
    with one QR call per matrix shape.
    """

    gaussians: tuple[np.ndarray, ...]
    build: Callable[..., np.ndarray]

    def assemble(self, unitaries) -> np.ndarray:
        """The member, from the Haar factors of its Gaussians."""
        return self.build(*unitaries)


def _gaussians(rng: SplitMix64, *shapes) -> tuple[np.ndarray, ...]:
    """Complex Gaussians of ``shapes``, drawn in order."""
    return tuple(rng.complex_normals(shape) for shape in shapes)


def _haar_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns of each matrix of the stack ``a``, Haar-like.

    QR of each i.i.d. complex standard normal matrix, with the Q columns
    rephased so the R diagonal is real and positive.  Without that fix the
    distribution would depend on the QR routine's sign conventions.  A
    stacked QR gives each matrix the same factors as a call of its own.
    """
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., np.newaxis, :]


def haar_factors(draws) -> list[tuple[np.ndarray, ...]]:
    """The Haar factors of each draw's Gaussians: one stack of Gaussians and
    one stacked QR per shape."""
    gaussians = [g for d in draws for g in d.gaussians]
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(gaussians):
        by_shape.setdefault(g.shape, []).append(i)
    factors = [None] * len(gaussians)
    for indices in by_shape.values():
        # a group of one factors the draw's own array, not a copy of it
        stack = (np.stack([gaussians[i] for i in indices]) if len(indices) > 1
                 else gaussians[indices[0]][np.newaxis])
        for i, q in zip(indices, _haar_columns(stack)):
            factors[i] = q
    in_order = iter(factors)
    return [tuple(islice(in_order, len(d.gaussians))) for d in draws]


def _built(draw: Draw) -> np.ndarray:
    return draw.assemble(haar_factors([draw])[0])


def draw_unitary(rng: SplitMix64, n: int, l: int) -> Draw:
    """The draw of :func:`random_unitary`."""
    if not 1 <= l <= n:
        raise DimensionError(f"need 1 <= l <= n, got n={n} l={l}")
    return Draw(_gaussians(rng, (n, l)), lambda u: u)


def random_unitary(rng: SplitMix64, n: int, l: int) -> np.ndarray:
    """n x l with orthonormal columns, Haar-like: the rephased QR factor of
    an i.i.d. complex standard normal matrix."""
    return _built(draw_unitary(rng, n, l))


def draw_hermitian(rng: SplitMix64, lam) -> Draw:
    """The draw of :func:`hermitian_with_spectrum`."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ContractViolation("spectrum must be a nonempty finite real vector")

    def build(u):
        p = (u * lam) @ u.conj().T
        return (p + p.conj().T) / 2.0

    return Draw(_gaussians(rng, (lam.size, lam.size)), build)


def hermitian_with_spectrum(rng: SplitMix64, lam) -> np.ndarray:
    """U diag(lam) U^H for a Haar-like U; exactly Hermitian by symmetrization."""
    return _built(draw_hermitian(rng, lam))


def selection_matrix(indices, n: int) -> np.ndarray:
    """n x L 0/1 matrix whose columns are the standard basis vectors at
    ``indices`` (0-based, distinct)."""
    sel = [int(i) for i in indices]
    if not sel:
        raise ContractViolation("selection must not be empty")
    if len(set(sel)) != len(sel):
        raise ContractViolation(f"selection indices must be distinct: {sel}")
    if any(i < 0 or i >= n for i in sel):
        raise ContractViolation(f"selection indices out of range(0, {n}): {sel}")
    m = np.zeros((n, len(sel)), dtype=np.complex128)
    for col, row in enumerate(sel):
        m[row, col] = 1.0
    return m


def _log_uniform(rng: SplitMix64, count: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * rng.uniforms(count))


def draw_full_column_rank(rng: SplitMix64, n: int, l: int,
                          condition_cap: float = DEFAULT_CONDITION_CAP) -> Draw:
    """The draw of :func:`random_full_column_rank`."""
    if not 1 <= l <= n:
        raise DimensionError(f"need 1 <= l <= n, got n={n} l={l}")
    if condition_cap < 1.0:
        raise ContractViolation("condition_cap must be >= 1")
    gaussians = _gaussians(rng, (n, l), (l, l))
    s = np.empty(l)
    s[0] = 1.0
    if l > 1:
        s[1:] = _log_uniform(rng, l - 1, 1.0 / condition_cap, 1.0)
    return Draw(gaussians, lambda u, v: (u * s) @ v.conj().T)


def random_full_column_rank(rng: SplitMix64, n: int, l: int,
                            condition_cap: float = DEFAULT_CONDITION_CAP) -> np.ndarray:
    """n x l of full column rank with sigma_max/sigma_min <= condition_cap.

    U diag(s) V^H with fixed sigma_max = 1 and the remaining singular values
    log-uniform in [1/condition_cap, 1].
    """
    return _built(draw_full_column_rank(rng, n, l, condition_cap))


def draw_rank_l(rng: SplitMix64, n: int, k: int, l: int,
                condition_cap: float = DEFAULT_CONDITION_CAP) -> Draw:
    """The draw of :func:`random_rank_l`."""
    if not 1 <= l <= min(n, k):
        raise DimensionError(f"need 1 <= l <= min(n, k), got n={n} k={k} l={l}")
    core = draw_full_column_rank(rng, n, l, condition_cap)
    build_core = core.build  # not core, whose Gaussians the build must not hold
    return Draw(core.gaussians + _gaussians(rng, (k, l)),
                lambda u, w, v: build_rank_deficient(build_core(u, w), v))


def random_rank_l(rng: SplitMix64, n: int, k: int, l: int,
                  condition_cap: float = DEFAULT_CONDITION_CAP) -> np.ndarray:
    """n x k of numerical rank exactly l, where k may exceed n (inflation)."""
    return _built(draw_rank_l(rng, n, k, l, condition_cap))


def draw_invertible_nonunitary(rng: SplitMix64, n: int,
                               condition_cap: float = DEFAULT_CONDITION_CAP,
                               nonunitarity_floor: float = DEFAULT_NONUNITARITY_FLOOR,
                               ) -> Draw:
    """The draw of :func:`random_invertible_nonunitary`."""
    if n < 2:
        raise DimensionError("need n >= 2 to separate sigma_max from sigma_min")
    if not (1.0 < nonunitarity_floor <= condition_cap):
        raise ContractViolation(
            f"need 1 < nonunitarity_floor <= condition_cap, got {nonunitarity_floor}, {condition_cap}"
        )
    ratio = _log_uniform(rng, 1, nonunitarity_floor, condition_cap)[0]
    s = np.empty(n)
    s[0] = 1.0
    s[n - 1] = 1.0 / ratio
    if n > 2:
        s[1:n - 1] = _log_uniform(rng, n - 2, 1.0 / ratio, 1.0)
    return Draw(_gaussians(rng, (n, n), (n, n)), lambda u, v: (u * s) @ v.conj().T)


def random_invertible_nonunitary(rng: SplitMix64, n: int,
                                 condition_cap: float = DEFAULT_CONDITION_CAP,
                                 nonunitarity_floor: float = DEFAULT_NONUNITARITY_FLOOR,
                                 ) -> np.ndarray:
    """Invertible n x n with sigma_max/sigma_min in [floor, cap], floor > 1.

    The floor keeps every draw measurably non-unitary, so this ensemble
    never degenerates into the control arm of the oblique experiments.
    """
    return _built(draw_invertible_nonunitary(rng, n, condition_cap, nonunitarity_floor))
