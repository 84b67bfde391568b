"""Seeded random ensembles for the verification suites.

Every generator takes an explicit :class:`~pseudosim.rng.SplitMix64` so runs
are bit-reproducible across platforms; none of them touch numpy's global
state.  Structural properties (orthonormality, rank, spectrum, conditioning)
are part of each generator's contract and are re-checked by the test suite on
every draw.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def random_unitary(rng: SplitMix64, n: int, l: int) -> np.ndarray:
    """n x l with orthonormal columns, Haar-like.

    QR of an i.i.d. complex standard normal matrix, with the Q columns
    rephased so the R diagonal is real and positive.  Without that fix the
    distribution would depend on the QR routine's sign conventions.
    """
    if not 1 <= l <= n:
        raise DimensionError(f"need 1 <= l <= n, got n={n} l={l}")
    a = rng.complex_normals((n, l))
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def hermitian_with_spectrum(rng: SplitMix64, lam) -> np.ndarray:
    """U diag(lam) U^H for a Haar-like U; exactly Hermitian by symmetrization."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ContractViolation("spectrum must be a nonempty finite real vector")
    u = random_unitary(rng, lam.size, lam.size)
    p = (u * lam) @ u.conj().T
    return (p + p.conj().T) / 2.0


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


def random_full_column_rank(rng: SplitMix64, n: int, l: int,
                            condition_cap: float = DEFAULT_CONDITION_CAP) -> np.ndarray:
    """n x l of full column rank with sigma_max/sigma_min <= condition_cap.

    U diag(s) V^H with fixed sigma_max = 1 and the remaining singular values
    log-uniform in [1/condition_cap, 1].
    """
    if not 1 <= l <= n:
        raise DimensionError(f"need 1 <= l <= n, got n={n} l={l}")
    if condition_cap < 1.0:
        raise ContractViolation("condition_cap must be >= 1")
    u = random_unitary(rng, n, l)
    v = random_unitary(rng, l, l)
    s = np.empty(l)
    s[0] = 1.0
    if l > 1:
        s[1:] = _log_uniform(rng, l - 1, 1.0 / condition_cap, 1.0)
    return (u * s) @ v.conj().T


def random_rank_l(rng: SplitMix64, n: int, k: int, l: int,
                  condition_cap: float = DEFAULT_CONDITION_CAP) -> np.ndarray:
    """n x k of numerical rank exactly l, where k may exceed n (inflation)."""
    if not 1 <= l <= min(n, k):
        raise DimensionError(f"need 1 <= l <= min(n, k), got n={n} k={k} l={l}")
    core = random_full_column_rank(rng, n, l, condition_cap)
    v = random_unitary(rng, k, l)
    return build_rank_deficient(core, v)


def random_invertible_nonunitary(rng: SplitMix64, n: int,
                                 condition_cap: float = DEFAULT_CONDITION_CAP,
                                 nonunitarity_floor: float = DEFAULT_NONUNITARITY_FLOOR,
                                 ) -> np.ndarray:
    """Invertible n x n with sigma_max/sigma_min in [floor, cap], floor > 1.

    The floor keeps every draw measurably non-unitary, so this ensemble
    never degenerates into the control arm of the oblique experiments.
    """
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
    u = random_unitary(rng, n, n)
    v = random_unitary(rng, n, n)
    return (u * s) @ v.conj().T
