"""Interlacing verification and structural-zero bookkeeping.

Given the sorted spectrum ``lam`` of the reference Hermitian matrix (length
N) and the sorted compressed values ``eta`` (length L <= N), the interlacing
property bounds every compressed value by
``lam[l] <= eta[l] <= lam[N - L + l]``.  :func:`check_interlacing` keeps
the margins of those inequalities as two arrays, ``eta - lam[:L]`` and
``lam[N - L:] - eta``; a margin below minus the tolerance is a violation.
Each function takes one spectrum, a plain 1-D array as the
:mod:`pseudosim.eigen` solvers return it for one matrix; a stack of spectra
is refused.  Each validates its arguments.  Only :func:`check_interlacing`'s
guard passes over an array, to see both spectra are sorted, so it alone has
a private body, :func:`_check_interlacing`, which the runner calls directly
on spectra it sorted itself and with a tolerance it validated; it keeps the
gates of :func:`classify_real` and :func:`extract_nonzero`,
:func:`_realness` and :func:`_zero_split`, as rows.  A NaN fails every gate.
Rank-deficient transforms carry additional forced zeros in their spectra;
:func:`extract_nonzero` separates those from the genuinely interlaced values
by count, not by threshold alone, and refuses to guess when it is ambiguous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import relative_imag
from .errors import ClassificationError, ContractViolation, Gate, RealnessViolation, _held, require_number
from .linalg import spectral_scale

#: default relative tolerance for classifying a spectrum as real
REALNESS_TOL = 1e-10

#: relative factor for the default interlacing tolerance (times max(1, |lam|))
INTERLACE_REL_TOL = 1e-7

#: default relative threshold below which a counted zero is accepted as structural
ZERO_REL_TOL = 1e-7


@dataclass
class InterlacingReport:
    lower_margins: np.ndarray  # eta - lam[:l], one per index
    upper_margins: np.ndarray  # lam[n - l:] - eta, one per index
    passed: bool
    tol_used: float

    @property
    def vacuous(self) -> bool:  # eta was empty: nothing to interlace
        return self.lower_margins.size == 0

    def min_margins(self) -> tuple[float, float]:
        """Smallest (lower, upper) margins over all indices; +inf when vacuous."""
        if self.vacuous:
            return float("inf"), float("inf")
        return float(self.lower_margins.min()), float(self.upper_margins.min())


def _one_spectrum(values, name, dtype=np.float64) -> np.ndarray:
    """``values`` as one flat spectrum; a stack of spectra, which the
    eigensolvers return one row per matrix, is refused, not flattened."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim > 1:
        raise ContractViolation(f"{name} must be one spectrum, 1-D; got shape {values.shape}")
    return values.ravel()


def _require_sorted(values, name):
    values = _one_spectrum(values, name)
    if values.size > 1 and np.any(np.diff(values) < 0):
        raise ContractViolation(f"{name} must be sorted non-decreasing")
    return values


def check_interlacing(lam, eta, tol: float | None = None) -> InterlacingReport:
    """Verify lam[l] - tol <= eta[l] <= lam[N-L+l] + tol for every index.

    Both inputs must be sorted non-decreasing.  An empty ``eta`` passes
    vacuously, flagged as such in the report.  The default tolerance is
    additive and scale-relative: 1e-7 * max(1, max |lam|).
    """
    lam = _require_sorted(lam, "lam")
    eta = _require_sorted(eta, "eta")
    n, l = lam.size, eta.size
    if l > n:
        raise ContractViolation(f"compressed spectrum longer than reference: {l} > {n}")
    tol = INTERLACE_REL_TOL * spectral_scale(lam) if tol is None else require_number(tol, "tol", 0.0)
    return _check_interlacing(lam, eta, tol)


def _check_interlacing(lam: np.ndarray, eta: np.ndarray, tol: float) -> InterlacingReport:
    """:func:`check_interlacing` of sorted float spectra, ``eta`` no longer
    than ``lam``, at a tolerance >= 0."""
    n, l = lam.size, eta.size
    lower, upper = eta - lam[:l], lam[n - l:] - eta
    passed = bool((lower >= -tol).all() and (upper >= -tol).all())  # a NaN margin fails
    return InterlacingReport(lower_margins=lower, upper_margins=upper, passed=passed,
                             tol_used=float(tol))


def classify_real(spectrum, realness_tol: float = REALNESS_TOL) -> np.ndarray:
    """Real parts, sorted non-decreasing, of a spectrum that must be real.

    Raises :class:`RealnessViolation` listing the offending eigenvalues when
    any imaginary part exceeds ``realness_tol * max(1, max |value|)``: the
    failure of :func:`_realness`, the one place that decides realness.
    """
    require_number(realness_tol, "realness_tol", 0.0)
    return _held(*_realness(_one_spectrum(spectrum, "spectrum", np.complex128), realness_tol))


def _realness(values: np.ndarray, realness_tol: float) -> tuple[np.ndarray, Gate]:
    """:func:`classify_real`'s sorted real parts, and its realness gate."""
    tol = realness_tol * spectral_scale(values)
    imag = np.abs(values.imag)
    bad = ~(imag <= tol)  # a NaN part is not real
    failure = RealnessViolation(f"{int(bad.sum())} eigenvalue(s) exceed realness tolerance {tol:.3e} "
                                f"(max |imag| / scale {relative_imag(values):.3e}): {values[bad]}",
                                offenders=values[bad]) if bad.any() else None
    return np.sort(values.real), Gate("realness", float(imag.max(initial=0.0)), tol, failure)


def extract_nonzero(spectrum, expected_l: int, zero_tol: float = ZERO_REL_TOL):
    """Split K real eigenvalues into L nonzero values and K - L structural zeros.

    The K - L values of smallest magnitude are taken as the structural zeros;
    each must then actually lie below ``zero_tol`` times the spectral scale or
    a :class:`ClassificationError` is raised (wrong rank, or a genuine
    eigenvalue too close to zero to separate; surfaced rather than decided
    here).  Returns ``(nonzero sorted non-decreasing, zero count)``.  A
    complex spectrum is refused: :func:`classify_real` decides its realness.
    """
    if np.iscomplexobj(spectrum):
        raise ContractViolation("extract_nonzero takes real values; pass the spectrum through classify_real")
    require_number(zero_tol, "zero_tol", 0.0)
    values = _one_spectrum(spectrum, "spectrum")
    if not 0 <= require_number(expected_l, "expected_l", integer=True) <= values.size:
        raise ContractViolation(f"expected rank {expected_l} outside [0, {values.size}]")
    return _held(*_zero_split(values, expected_l, zero_tol))


def _zero_split(values: np.ndarray, expected_l: int, zero_tol: float):
    """:func:`extract_nonzero`'s split, and its zero-split gate."""
    n_zero = values.size - expected_l
    order = np.argsort(np.abs(values), kind="stable")
    zeros, nonzero = values[order[:n_zero]], values[order[n_zero:]]
    threshold = zero_tol * spectral_scale(values)
    largest = float(np.abs(zeros).max(initial=0.0))
    failure = ClassificationError(f"counted structural zeros are not below {threshold:.3e}: "
                                  f"{np.sort(zeros)}") if zeros.size and not largest <= threshold else None
    return (np.sort(nonzero), int(n_zero)), Gate("zero", largest, threshold, failure)
