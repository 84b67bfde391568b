"""Seeded random ensembles for the verification suites.

Every generator takes an explicit :class:`~pseudosim.rng.SplitMix64` so runs
are bit-reproducible across platforms; none of them touch numpy's global
state.  Structural properties (orthonormality, rank, spectrum, conditioning)
are part of each generator's contract and are re-checked by the test suite on
every draw.

A generator that needs Haar-like unitaries runs in two steps.  Its
``draw_*`` function takes every random number from the stream, in a fixed
order, and returns a :class:`Draw` that records where each of its complex
Gaussians starts in the stream and its shape, not the Gaussian itself.
:func:`build_draws`, the one code that builds draws, makes the Gaussians of
any list of draws one stack per (stage, shape), runs each stack through its
draws' stage, :func:`haar_columns` unless they name another, and keeps each
draw's error to that draw.  :meth:`Draw.built` and the runner both call it.
:func:`_kept` alone catches a trial's error, here and in the runner, and
keeps it without its traceback, so it holds no frame and none of its chunk.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError, require_number
from .rng import SplitMix64, complex_normal_stack

#: defaults of the EnsembleSpec fields of the same names
DEFAULT_CONDITION_CAP = 1e3
DEFAULT_SPECTRUM_GAP = 0.1
DEFAULT_SPECTRUM_BOUND = 2.0
DEFAULT_NONUNITARITY_FLOOR = 2.0

SPECTRUM_LAWS = ("prescribed", "uniform", "signed-uniform")

#: exceptions a trial may raise without halting the suite: _kept catches them
TRIAL_ERRORS = (ContractViolation, NumericalError, np.linalg.LinAlgError, FloatingPointError)


def _kept(call, *args):
    """``call(*args)``, or the TRIAL_ERRORS error it raised, without the
    traceback, whose frames would hold what they held: a chunk's members."""
    try:
        return call(*args)
    except TRIAL_ERRORS as exc:
        return exc.with_traceback(None)


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to regenerate an ensemble bit for bit.

    ``n``, ``k`` and ``l`` may be left as None, in which case each trial
    draws them from the ranges of its suite's dimension rule.  Whether
    pinned dimensions and a prescribed spectrum's length fit is that rule's
    to decide too (see :mod:`pseudosim.experiments`).  ``spectrum_law``
    selects how eigenvalues of the Hermitian input are drawn:

    * ``prescribed``: use ``spectrum_values`` verbatim (their count must be
      the n of every suite that draws a spectrum; no other law takes
      ``spectrum_values``),
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
        object.__setattr__(self, "seed", require_number(self.seed, "seed", integer=True) & 0xFFFFFFFFFFFFFFFF)
        for name in ("n", "k", "l"):
            value = getattr(self, name)
            if value is not None:
                require_number(value, f"pinned dimension {name}", 1, integer=True)
        if self.spectrum_law not in SPECTRUM_LAWS:
            raise ContractViolation(
                f"unknown spectrum_law {self.spectrum_law!r}, expected one of {SPECTRUM_LAWS}"
            )
        if self.spectrum_values is not None:  # kept as a tuple, like ExperimentConfig.suites
            object.__setattr__(self, "spectrum_values", tuple(self.spectrum_values))
        if self.spectrum_law == "prescribed":
            if not self.spectrum_values:
                raise ContractViolation("prescribed law requires spectrum_values")
            for value in self.spectrum_values:
                require_number(value, "spectrum_values")
        elif self.spectrum_values is not None:  # no other law reads them
            raise ContractViolation(f"spectrum_values needs spectrum_law = prescribed, "
                                    f"got {self.spectrum_law!r}")
        try:
            require_number(self.spectrum_gap, "spectrum_gap", 0.0, above=True)
            require_number(self.spectrum_bound, "spectrum_bound", self.spectrum_gap)
        except ContractViolation as exc:  # the pair's message names both fields
            raise ContractViolation("need 0 < spectrum_gap <= spectrum_bound < inf, got "
                                    f"{self.spectrum_gap}, {self.spectrum_bound}") from exc
        require_number(self.condition_cap, "condition_cap", 1.0)
        require_number(self.nonunitarity_floor, "nonunitarity_floor", 1.0, above=True)


def draw_spectrum(rng: SplitMix64, spec: EnsembleSpec, n: int) -> np.ndarray:
    """Real eigenvalue sample of length n under ``spec.spectrum_law``."""
    require_number(n, "n", 1, integer=True)
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
    built yet; :func:`build_draws` builds it.  It holds no Gaussian array.

    ``gaussians`` holds a (start state, shape) pair per complex Gaussian, in
    draw order.  ``stage`` takes a stack of Gaussians to one value per
    matrix, :func:`haar_columns` when None; ``build`` makes the member from
    the staged values, in order, and by default takes a lone one as it is.
    """

    gaussians: tuple[tuple[int, tuple[int, ...]], ...]
    build: Callable[..., object] = lambda staged: staged
    stage: Callable[[np.ndarray], object] | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of the draw's Gaussians, once made."""
        return sum(16 * math.prod(shape) for _, shape in self.gaussians)

    def built(self):
        """The member, or the error its stage or build raised, raised."""
        member, = build_draws([self])
        if isinstance(member, Exception):
            raise member
        return member


def build_draws(draws) -> list:
    """Each draw's member, in order, or the error its stage or build raised.

    The Gaussians of one stage and shape are made as one stack by
    :func:`~pseudosim.rng.complex_normal_stack` and go through that stage,
    :func:`haar_columns` when None (looked up per call), run by :func:`_kept`
    like each build; a stack that raises is redone a Gaussian at a time once
    its call has returned, so no error holds another as its ``__context__``.
    Each draw takes its staged values, in draw order, from one iterator per stack."""
    staged: dict[tuple, object] = {}  # (stage, shape) -> its start states, then its values
    for d in draws:
        for start, shape in d.gaussians:
            staged.setdefault((d.stage or haar_columns, shape), []).append(start)
    for (stage, shape), starts in staged.items():
        stack = complex_normal_stack(starts, shape)
        values = _kept(stage, stack)
        if isinstance(values, Exception):
            values = [_kept(lambda g: stage(g[np.newaxis])[0], g) for g in stack]
        staged[stage, shape] = iter(values)
    members = []
    for d in draws:
        mine = [next(staged[d.stage or haar_columns, shape]) for _, shape in d.gaussians]
        error = next((v for v in mine if isinstance(v, Exception)), None)
        members.append(_kept(d.build, *mine) if error is None else error)
    return members


def _require_dims(**dims: int) -> None:
    for name, value in dims.items():
        require_number(value, name, integer=True)


def _gaussians(rng: SplitMix64, *shapes) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(start state, shape) of complex Gaussians of ``shapes``, drawn in order."""
    return tuple((rng._gaussian_start(shape), shape) for shape in shapes)


def haar_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns of the matrix ``a``, or of each matrix of the
    stack ``a``, Haar-like.

    QR of each i.i.d. complex standard normal matrix, with the Q columns
    rephased so the R diagonal is real and positive.  Without that fix the
    distribution would depend on the QR routine's sign conventions.  A
    stacked QR gives each matrix the same factors as a call of its own.
    """
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., np.newaxis, :]


def draw_unitary(rng: SplitMix64, n: int, l: int) -> Draw:
    """n x l with orthonormal columns, Haar-like: the rephased QR factor of
    an i.i.d. complex standard normal matrix, copied out of its stack so the
    member owns its array."""
    _require_dims(n=n, l=l)
    if not 1 <= l <= n:
        raise ContractViolation(f"need 1 <= l <= n, got n={n} l={l}")
    return Draw(_gaussians(rng, (n, l)), np.copy)


def draw_hermitian(rng: SplitMix64, lam) -> Draw:
    """U diag(lam) U^H for a Haar-like U; exactly Hermitian by symmetrization."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ContractViolation("spectrum must be a nonempty finite real vector")

    def build(u):
        p = (u * lam) @ u.conj().T
        return (p + p.conj().T) / 2.0

    return Draw(_gaussians(rng, (lam.size, lam.size)), build)


def _log_uniform(rng: SplitMix64, count: int, lo: float, hi: float) -> np.ndarray:
    return np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * rng.uniforms(count))


def draw_full_column_rank(rng: SplitMix64, n: int, l: int,
                          condition_cap: float = DEFAULT_CONDITION_CAP) -> Draw:
    """n x l of full column rank with sigma_max/sigma_min <= condition_cap.

    U diag(s) V^H with fixed sigma_max = 1 and the remaining singular values
    log-uniform in [1/condition_cap, 1].  Full column rank holds only while
    condition_cap is well below 1/(n * eps): past that the smallest singular
    values fall under the rank-detection threshold.
    """
    _require_dims(n=n, l=l)
    if not 1 <= l <= n:
        raise ContractViolation(f"need 1 <= l <= n, got n={n} l={l}")
    require_number(condition_cap, "condition_cap", 1.0)
    gaussians = _gaussians(rng, (n, l), (l, l))
    s = np.empty(l)
    s[0] = 1.0
    if l > 1:
        s[1:] = _log_uniform(rng, l - 1, 1.0 / condition_cap, 1.0)
    return Draw(gaussians, lambda u, v: (u * s) @ v.conj().T)


def draw_rank_l(rng: SplitMix64, n: int, k: int, l: int,
                condition_cap: float = DEFAULT_CONDITION_CAP) -> Draw:
    """n x k of numerical rank exactly l, where k may exceed n (inflation):
    :func:`draw_full_column_rank`'s n x l times the adjoint of k x l
    orthonormal columns.  Rank l holds only while condition_cap is well
    below 1/(max(n, k) * eps); past that it comes out below l, unchecked.
    """
    _require_dims(n=n, k=k, l=l)
    if not 1 <= l <= min(n, k):
        raise ContractViolation(f"need 1 <= l <= min(n, k), got n={n} k={k} l={l}")
    core = draw_full_column_rank(rng, n, l, condition_cap)
    return Draw(core.gaussians + _gaussians(rng, (k, l)),
                lambda u, w, v: core.build(u, w) @ v.conj().T)


def draw_invertible_nonunitary(rng: SplitMix64, n: int,
                               condition_cap: float = DEFAULT_CONDITION_CAP,
                               nonunitarity_floor: float = DEFAULT_NONUNITARITY_FLOOR,
                               ) -> Draw:
    """Invertible n x n with sigma_max/sigma_min in [floor, cap], floor > 1.

    The floor keeps every draw measurably non-unitary, so this ensemble
    never degenerates into the control arm of the oblique experiments.
    """
    _require_dims(n=n)
    if n < 2:
        raise ContractViolation("need n >= 2 to separate sigma_max from sigma_min")
    require_number(condition_cap, "condition_cap", 1.0)
    require_number(nonunitarity_floor, "nonunitarity_floor")
    if not 1.0 < nonunitarity_floor <= condition_cap:
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
