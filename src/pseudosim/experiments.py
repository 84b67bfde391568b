"""Seeded verification suites over random ensembles.

Each suite draws (matrix, transform) instances from an :class:`EnsembleSpec`
and checks one property end to end: interlacing of the compressed spectrum,
agreement of independent computation routes, the Moore-Penrose axioms,
eigensolver output against characteristic-polynomial oracles, or (the one
negative result) that oblique compressions do violate interlacing.

A suite is one entry of ``_SUITE_TABLE``: a dimension rule, a draw and a
check.  Trials run in chunks: each trial of a chunk is drawn from its own
stream, then the Haar factors of all the chunk's draws come from one stacked
QR per matrix shape, then each trial builds its matrices and the suite's
check takes the chunk's trials at once.  Most checks take them one at a time;
solver-oracle runs each of its stages on one stack per matrix size.
:func:`run_suite` runs a suite's trials in chunks that close once their
draws reach ``CHUNK_BYTES``, each checked before the next draw, cut into one
contiguous slice of trials per usable CPU: slice 0 runs in the calling
process, each other slice in a forked child that sends its records back
through a pipe;
:func:`run_trial` runs one trial as a chunk of one and returns its
:class:`TrialOutcome`, so the runner, replay and the acceptance tests share
one path.  So does :func:`counterexample_search`: it runs the oblique
suite's trials one at a time and stops at the first re-verified violation.

Seed discipline: each suite gets ``derive_seed(master, suite_position)``
where the position is fixed by the canonical SUITES order, and each trial
gets ``derive_seed(suite_seed, trial_index)``.  A trial is therefore fully
reproducible from the (suite, trial_index, master seed) triple its record
carries, independent of which other suites ran, of how its suite's trials are
chunked and of which slice, in which process, ran it.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .ensembles import (
    DEFAULT_N_RANGE,
    Draw,
    EnsembleSpec,
    draw_full_column_rank,
    draw_hermitian,
    draw_invertible_nonunitary,
    draw_rank_l,
    draw_spectrum,
    draw_unitary,
    haar_factors,
)
from .eigen import eigvals_general, eigvals_hermitian, match_distance, relative_imag, spectral_scale
from .errors import ContractViolation, NumericalError, RealnessViolation
from .interlace import INTERLACE_REL_TOL, ZERO_REL_TOL, check_interlacing, classify_real, extract_nonzero
from .linalg import _adjoint, adjoint, penrose_residuals, svd
from .oracles import characteristic_polynomial, charpoly_eigenvalues, polynomial_roots
from .rng import SplitMix64, derive_seed
from .transforms import inflate_transform, oblique_transform, pseudo_similarity, unitary_compression

OBLIQUE_DEFAULT_N = 3
OBLIQUE_DEFAULT_SEED = 7
OBLIQUE_DEFAULT_CAP = 100.0
OBLIQUE_DEFAULT_BUDGET = 1000
WITNESS_TIGHTEN = 10.0            # re-verification factor for oblique witnesses


@dataclass(frozen=True)
class Tolerances:
    """The runner's tolerance table.

    All values are relative factors multiplied by the spectral or entry
    scale of the quantity under test, except ``rank``, which replaces the
    rank-detection threshold factor directly; None keeps the per-matrix
    default, max(rows, cols) * eps.  Every value is finite and positive: a
    NaN or infinite gate would pass anything, a non-positive one nothing.
    """

    interlace: float = INTERLACE_REL_TOL
    rank: float | None = None
    zero: float = ZERO_REL_TOL
    realness: float = 1e-8            # max |imag| per spectral scale, interlace suites
    mp: float = 1e-8                  # Penrose residuals
    unitary_pinv: float = 1e-10       # pinv(Q) vs Q^H, subsumption
    route: float = 1e-9               # compression route agreement, subsumption
    oracle: float = 1e-6              # solver vs charpoly roots, trace/det; oblique witnesses

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.name == "rank"
                    or isinstance(value, (int, float)) and 0.0 < value < math.inf):
                raise ContractViolation(f"tolerance {f.name} must be finite and > 0, got {value!r}")


@dataclass
class ExperimentConfig:
    suites: tuple[str, ...]
    ensemble: EnsembleSpec
    trials: int = 200
    tolerances: Tolerances = field(default_factory=Tolerances)
    out: str | None = None
    format: str = "table"

    def __post_init__(self):
        from .reports import FORMATS  # reports imports this module

        self.suites = tuple(self.suites)
        if not self.suites:
            raise ContractViolation("at least one suite must be selected")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ContractViolation(f"unknown suite tag(s) {unknown}; valid: {list(SUITES)}")
        if self.trials < 1:
            raise ContractViolation(f"trials must be >= 1, got {self.trials}")
        if self.format not in FORMATS:
            raise ContractViolation(f"unknown format {self.format!r}")


@dataclass
class TrialRecord:
    """One verification trial, flat so csv and json-lines share field names.

    A failed record carries (suite, trial_index, seed, n, k, l), which is
    everything needed to regenerate the trial standalone.
    """

    suite: str
    trial_index: int
    seed: int
    n: int
    k: int
    l: int
    passed: bool
    min_lower_margin: float
    min_upper_margin: float
    worst_residual: float
    notes: str = ""


RECORD_FIELDS = tuple(f.name for f in fields(TrialRecord))


@dataclass
class TrialOutcome:
    """Everything one trial found.

    The fields up to ``notes`` are the verdict columns of the trial's
    :class:`TrialRecord`.  The rest are interlacing diagnostics; suites that
    do not measure them, and trials that raised, leave the defaults.
    """

    n: int
    k: int
    l: int
    passed: bool
    min_lower_margin: float = 0.0
    min_upper_margin: float = 0.0
    worst_residual: float = 0.0
    notes: str = ""
    rel_imag: float = float("nan")    # max |imag| / spectral scale of the transform's spectrum
    route_dev: float = 0.0            # deviation between the two inflation routes
    zeros: int = 0                    # structural zeros split off the spectrum
    hermitian: bool = False           # transform Hermitian within tolerance
    cond_h: float = float("nan")      # sigma_max / sigma_min of the map

    def record(self, suite: str, trial_index: int, seed: int) -> TrialRecord:
        """The trial's record, given the three columns an outcome does not hold."""
        return TrialRecord(suite, trial_index, seed,
                           **{name: getattr(self, name) for name in RECORD_FIELDS[3:]})


#: exceptions a trial may raise without halting the suite
_TRIAL_ERRORS = (ContractViolation, NumericalError, np.linalg.LinAlgError, FloatingPointError)


def _finite(x) -> float:
    x = float(x)
    return x if np.isfinite(x) else 0.0


def _pick(pinned: int | None, rng: SplitMix64, lo: int, hi: int) -> int:
    """A pinned ensemble dimension, or a fresh draw from [lo, hi]."""
    return pinned if pinned is not None else rng.randint(lo, hi)


def _prescribed_fits(spec: EnsembleSpec, suite: str, n: int | None):
    """Raise unless a prescribed spectrum fits the n the suite uses, where
    None stands for an n drawn per trial."""
    if spec.spectrum_law == "prescribed" and n != len(spec.spectrum_values):
        uses = "draws n per trial" if n is None else f"uses n = {n}"
        raise ContractViolation(f"{suite} {uses}; a prescribed spectrum of length "
                                f"{len(spec.spectrum_values)} needs n = {len(spec.spectrum_values)}")


def _compression_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, suite: str):
    """K = L <= N, for full-rank and subsumption trials.  A pinned k must
    equal a pinned l."""
    _prescribed_fits(spec, suite, spec.n)
    if spec.k is not None and spec.k != spec.l:
        raise ContractViolation(f"{suite} has k = l, so a pinned k needs the same l pinned; "
                                f"got k = {spec.k}, l = {spec.l}")
    n = _pick(spec.n, rng, *DEFAULT_N_RANGE)
    if spec.l is not None and spec.l > n:
        raise ContractViolation(f"{suite} needs l <= n; got n = {n}, l = {spec.l}")
    l = _pick(spec.l, rng, 1, n)
    return n, l, l


def _deficient_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, suite: str):
    """L < min(N, K), with K <= N, or K > N on interlace-inflated.

    A pinned dimension that leaves a draw range empty, or that gives the
    suite a shape other than its own (K > N inflated, K <= N and L < K
    rank-deficient, L <= N both), is a configuration error, not a failed
    trial.
    """
    inflated = suite == "interlace-inflated"
    _prescribed_fits(spec, suite, spec.n)
    n = _pick(spec.n, rng, max(2, DEFAULT_N_RANGE[0]), 12)
    k_lo, k_hi = (n + 1, 24) if inflated else (2, n)
    if spec.k is None and k_lo > k_hi:
        raise ContractViolation(f"{suite} draws k from [{k_lo}, {k_hi}], "
                                f"so it needs {'n <= 23' if inflated else 'n >= 2'}; got n = {n}")
    if spec.k is not None and (spec.k <= n) == inflated:
        raise ContractViolation(f"{suite} needs {'k > n' if inflated else 'k <= n'}; "
                                f"got n = {n}, k = {spec.k}")
    k = _pick(spec.k, rng, k_lo, k_hi)
    if spec.l is None and min(n, k) < 2:
        raise ContractViolation(f"{suite} draws 1 <= l < min(n, k), so it needs n >= 2 and k >= 2; "
                                f"got n = {n}, k = {k}")
    if spec.l is not None and spec.l > (n if inflated else k - 1):
        raise ContractViolation(f"{suite} needs {'l <= n' if inflated else 'l < k'}; "
                                f"got n = {n}, k = {k}, l = {spec.l}")
    l = _pick(spec.l, rng, 1, min(n, k) - 1)
    return n, k, l


def _interlace_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims, inflate: bool):
    n, k, l = dims
    lam = np.sort(draw_spectrum(rng, spec, n))
    return (lam, draw_hermitian(rng, lam), draw_full_column_rank(rng, n, l, spec.condition_cap),
            draw_unitary(rng, k, l) if inflate else None)


def _interlace_check(spec: EnsembleSpec, trial_index: int, dims, drawn, tols: Tolerances) -> TrialOutcome:
    n, k, l = dims
    lam, p, h, v = drawn
    if v is not None:
        result = inflate_transform(p, h, v, tols.rank)
    else:
        result = pseudo_similarity(p, h, tols.rank)

    spectrum = eigvals_general(result.transformed)
    rel_imag = relative_imag(spectrum)
    real_values = classify_real(spectrum, tols.realness)
    eta, zero_count = extract_nonzero(real_values, result.input_rank, tols.zero)
    report = check_interlacing(lam, eta, tols.interlace * spectral_scale(lam))

    lo, hi = report.min_margins()
    route_dev = result.route_deviation or 0.0
    notes = []
    if result.input_rank != l:
        notes.append(f"rank {result.input_rank} != target {l} ({zero_count} zeros)")
    if not report.passed:
        notes.append(f"interlacing violated (tol {report.tol_used:.3e})")
    sigma = result.sigma
    return TrialOutcome(n, k, l, passed=report.passed and not notes,
                        min_lower_margin=_finite(lo), min_upper_margin=_finite(hi),
                        worst_residual=max(rel_imag, route_dev), notes="; ".join(notes),
                        rel_imag=rel_imag, route_dev=route_dev, zeros=zero_count,
                        hermitian=result.hermitian,
                        cond_h=float(sigma[0] / sigma[-1]) if sigma.size else float("inf"))


def _subsumption_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    n, k, l = dims
    lam = np.sort(draw_spectrum(rng, spec, n))
    return draw_hermitian(rng, lam), draw_unitary(rng, n, l)


def _subsumption_check(spec: EnsembleSpec, trial_index: int, dims, drawn,
                       tols: Tolerances) -> TrialOutcome:
    n, k, l = dims
    p, q = drawn

    classical = unitary_compression(p, q)
    general = pseudo_similarity(p, q, tols.rank)
    pinv_dev = float(np.abs(general.pinv - adjoint(q)).max())
    route_dev = float(np.abs(classical.transformed - general.transformed).max())

    notes = []
    if pinv_dev > tols.unitary_pinv:
        notes.append(f"pinv(q) deviates from adjoint by {pinv_dev:.3e}")
    if route_dev > tols.route:
        notes.append(f"compression routes deviate by {route_dev:.3e}")
    return TrialOutcome(n, k, l, passed=not notes, worst_residual=max(pinv_dev, route_dev),
                        notes="; ".join(notes))


def _oblique_dims(rng: SplitMix64 | None, spec: EnsembleSpec, trial_index: int):
    """Side n of P and X, OBLIQUE_DEFAULT_N unless pinned.  The selection
    size is the draw's: the check reports it."""
    n = spec.n if spec.n is not None else OBLIQUE_DEFAULT_N
    _prescribed_fits(spec, "oblique-counterexample", n)
    if n < 2:
        raise ContractViolation(f"oblique-counterexample draws 1 <= l <= n - 1, so it needs n >= 2; "
                                f"got n = {n}")
    return n, 0, 0


def _oblique_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims,
                  control: str | None = None):
    """P, the frame X and the selection.  X is invertible and non-unitary,
    or on a control arm unitary or the identity."""
    n = dims[0]
    lam = np.sort(draw_spectrum(rng, spec, n))
    p = draw_hermitian(rng, lam)  # its Gaussians come before X's
    if control == "identity":
        x = np.eye(n, dtype=np.complex128)
    elif control == "unitary":
        x = draw_unitary(rng, n, n)
    else:
        x = draw_invertible_nonunitary(rng, n, spec.condition_cap, spec.nonunitarity_floor)
    l = rng.randint(1, n - 1)
    return lam, p, x, sorted(rng.choose_distinct(l, n))


def _oblique_check(spec: EnsembleSpec, trial_index: int, dims, drawn,
                   tols: Tolerances) -> TrialOutcome:
    """How far one oblique compression lands past interlacing, as
    ``worst_residual``: positive when its spectrum is complex or breaches a
    margin, zero otherwise.  A breach of a block with at most 6 rows counts
    only if the characteristic-polynomial roots confirm its spectrum.  The
    outcome passes either way: a breach is what the search looks for."""
    lam, p, x, sel = drawn
    t = oblique_transform(p, x, sel).transformed
    spectrum, scale = eigvals_general(t), spectral_scale(lam)
    try:
        eta = classify_real(spectrum, tols.realness)
    except RealnessViolation:
        magnitude = relative_imag(spectrum)
        lo, hi, note = -magnitude, 0.0, f"complex spectrum (max rel imag {magnitude:.3e})"
    else:
        report = check_interlacing(lam, eta, tols.interlace * scale)
        lo, hi = report.min_margins()
        magnitude = 0.0 if report.passed else max(-lo, -hi) / scale
        note = "" if report.passed else f"interlacing violated (worst margin {min(lo, hi):.3e})"
    if magnitude > 0.0 and t.shape[0] <= 6:
        oracle_dev = match_distance(spectrum, charpoly_eigenvalues(t))
        if oracle_dev > tols.oracle * scale:
            magnitude, note = 0.0, f"{note}; charpoly roots deviate by {oracle_dev:.3e}"
    return TrialOutcome(lam.size, len(sel), len(sel), passed=True, min_lower_margin=_finite(lo),
                        min_upper_margin=_finite(hi), worst_residual=magnitude, notes=note)


_MP_SHAPES = ("tall-full", "wide-full", "square-full", "tall-deficient",
              "wide-deficient", "square-deficient")


def _mp_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int):
    """(rows, cols, target rank); shapes cycle deterministically so every run
    covers full-rank, rank-deficient, tall, wide, and square."""
    shape_kind = _MP_SHAPES[trial_index % len(_MP_SHAPES)]
    rows = _pick(spec.n, rng, max(2, DEFAULT_N_RANGE[0]), DEFAULT_N_RANGE[1])
    if rows > 24:
        raise ContractViolation(f"mp-axioms draws wide shapes with n <= cols <= 24, "
                                f"so it needs n <= 24; got n = {rows}")
    if shape_kind.startswith("tall"):
        cols = rng.randint(1, rows)
    elif shape_kind.startswith("wide"):
        cols = rng.randint(rows, 24)
    else:
        cols = rows
    if shape_kind.endswith("full"):
        return rows, cols, min(rows, cols)
    return rows, cols, rng.randint(1, max(1, min(rows, cols) - 1))


def _mp_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    """One matrix of the drawn shape and rank; a wide full-rank one is drawn
    as its tall adjoint."""
    rows, cols, rank_target = dims
    if not _MP_SHAPES[trial_index % len(_MP_SHAPES)].endswith("full"):
        return (draw_rank_l(rng, rows, cols, rank_target, spec.condition_cap),)
    return (draw_full_column_rank(rng, max(rows, cols), min(rows, cols), spec.condition_cap),)


def _mp_check(spec: EnsembleSpec, trial_index: int, dims, drawn, tols: Tolerances) -> TrialOutcome:
    """Penrose conditions on one matrix of the drawn shape and rank."""
    rows, cols, rank_target = dims
    m, = drawn
    if m.shape != (rows, cols):
        m = adjoint(m)

    factors = svd(m, tols.rank)
    residuals = penrose_residuals(m, factors.pseudo_inverse())
    worst = max(residuals)
    notes = []
    if factors.rank != rank_target:
        notes.append(f"rank {factors.rank} != target {rank_target}")
    if worst > tols.mp:
        labels = ("m p m = m", "p m p = p", "(m p)^H = m p", "(p m)^H = p m")
        bad = [lab for lab, r in zip(labels, residuals) if r > tols.mp]
        notes.append(f"Penrose residual {worst:.3e} > {tols.mp:.1e} ({'; '.join(bad)})")
    return TrialOutcome(rows, cols, rank_target, passed=not notes, worst_residual=worst,
                        notes="; ".join(notes))


def _oracle_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int):
    """Side n of the charpoly-checked matrices.  The side k of the
    trace/determinant matrix is the draw's, so it stays 0 until the check
    reports it, and on a trial whose draw raised."""
    n = rng.randint(2, 4)
    return n, 0, n


def _oracle_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    n = dims[0]
    g = rng.complex_normals((n, n))
    n_td = rng.randint(2, 6)
    return g, rng.complex_normals((n_td, n_td))


def _oracle_check(spec: EnsembleSpec, trials, tols: Tolerances) -> list[TrialOutcome]:
    """LAPACK-backed solvers against the characteristic-polynomial oracle
    (n <= 4) plus trace/determinant identities (n <= 6), for a chunk of
    trials at once.

    Each part runs on one stack per matrix size; a trial that raises fails
    alone.  Every outcome, a failed one too, carries the side of its
    trace/determinant matrix as k.
    """
    charpoly = _per_size(_charpoly_deviations, [trial.drawn[0] for trial in trials])
    trace_det = _per_size(_trace_det_deviations, [trial.drawn[1] for trial in trials])
    outcomes = []
    for trial, devs, identities in zip(trials, charpoly, trace_det):
        n = trial.dims[0]
        dims = (n, trial.drawn[1].shape[0], n)
        error = next((part for part in (devs, identities) if isinstance(part, Exception)), None)
        if error is not None:
            outcomes.append(_failed(dims, error))
            continue
        trace_dev, det_dev = identities
        worst = 0.0
        notes = []
        for solver, dev in zip(("eigvals_general", "eigvals_hermitian"), devs):
            worst = max(worst, dev)
            if dev > tols.oracle:
                notes.append(f"{solver} deviates from charpoly roots by {dev:.3e}")
        worst = max(worst, trace_dev, det_dev)
        if trace_dev > tols.oracle:
            notes.append(f"trace identity off by {trace_dev:.3e}")
        if det_dev > tols.oracle:
            notes.append(f"determinant identity off by {det_dev:.3e}")
        outcomes.append(TrialOutcome(*dims, passed=not notes, worst_residual=worst,
                                     notes="; ".join(notes)))
    return outcomes


def _charpoly_deviations(g: np.ndarray) -> np.ndarray:
    """Per matrix of the stack g, a row: how far LAPACK's spectra of it and
    of its Hermitian part lie from their characteristic-polynomial roots, per
    the roots' spectral scale."""
    general = eigvals_general(g), polynomial_roots(characteristic_polynomial(g))
    hm = (g + _adjoint(g)) / 2.0
    hermitian = eigvals_hermitian(hm), polynomial_roots(characteristic_polynomial(hm))
    return np.stack([match_distance(w, roots) / np.maximum(1.0, np.abs(roots).max(axis=1))
                     for w, roots in (general, hermitian)], axis=1)


def _trace_det_deviations(g6: np.ndarray) -> list[tuple[float, float]]:
    """Per matrix of the stack g6: how far the sum and the product of its
    eigenvalues lie from its trace and its determinant."""
    w = eigvals_general(g6)
    traces, dets = np.trace(g6, axis1=1, axis2=2), np.linalg.det(g6)
    return [(abs(total - trace) / max(1.0, abs(trace)), abs(prod - det) / max(1.0, abs(det)))
            for total, trace, prod, det in zip(w.sum(axis=1), traces, w.prod(axis=1), dets)]


def _per_size(part, matrices) -> list:
    """``part`` of each square matrix, run on one stack per size.  A stack
    that raises is redone a matrix at a time, and a matrix that raises alone
    gets its error in place of its result."""
    results: list = [None] * len(matrices)
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(matrices):
        by_size.setdefault(m.shape[0], []).append(i)
    for rows in by_size.values():
        stack = np.stack([matrices[i] for i in rows])
        try:
            values = part(stack)
        except _TRIAL_ERRORS:
            values = []
            for i in range(len(rows)):
                try:
                    values.extend(part(stack[i:i + 1]))
                except _TRIAL_ERRORS as exc:
                    values.append(exc)
        for i, value in zip(rows, values):
            results[i] = value
    return results


def _each_trial(check, spec: EnsembleSpec, trials, tols: Tolerances) -> list[TrialOutcome]:
    """A chunk check made of a per-trial one: ``check``'s outcome for each
    trial, or a failed outcome for a trial that raises."""
    outcomes = []
    for trial in trials:
        try:
            outcomes.append(check(spec, trial.trial_index, trial.dims, trial.drawn, tols))
        except _TRIAL_ERRORS as exc:
            outcomes.append(_failed(trial.dims, exc))
    return outcomes


#: suite -> (dimension rule, draw, check), in canonical order: a suite's
#: position indexes its seed derivation.  The draw takes every random number
#: of a trial and returns its drawn values; a :class:`Draw` among them reaches
#: the check as the matrix it builds.  The check takes a chunk's trials and
#: returns their outcomes, in order.  The oblique search's trials reduce to
#: one record: see :func:`counterexample_search`.
_SUITE_TABLE = {
    "interlace-full-rank": (partial(_compression_dims, suite="interlace-full-rank"),
                            partial(_interlace_draw, inflate=False),
                            partial(_each_trial, _interlace_check)),
    "interlace-rank-deficient": (partial(_deficient_dims, suite="interlace-rank-deficient"),
                                 partial(_interlace_draw, inflate=True),
                                 partial(_each_trial, _interlace_check)),
    "interlace-inflated": (partial(_deficient_dims, suite="interlace-inflated"),
                           partial(_interlace_draw, inflate=True),
                           partial(_each_trial, _interlace_check)),
    "subsumption": (partial(_compression_dims, suite="subsumption"), _subsumption_draw,
                    partial(_each_trial, _subsumption_check)),
    "oblique-counterexample": (_oblique_dims, _oblique_draw, partial(_each_trial, _oblique_check)),
    "mp-axioms": (_mp_dims, _mp_draw, partial(_each_trial, _mp_check)),
    "solver-oracle": (_oracle_dims, _oracle_draw, _oracle_check),
}

#: canonical suite order; positions index the per-suite seed derivation
SUITES = tuple(_SUITE_TABLE)

#: suites whose failures flip the process exit status: all but the oblique
#: search, which reports not-found as a warning instead
THEOREM_SUITES = frozenset(SUITES) - {"oblique-counterexample"}

#: a chunk of trials closes, and is checked before the next trial is drawn,
#: as soon as the arrays its trials drew reach this many bytes; a trial that
#: draws this much runs as a chunk of its own
CHUNK_BYTES = 128 * 1024


def trial_seed(master_seed: int, suite: str, trial_index: int) -> int:
    """Seed of one trial: split from the master by the suite's canonical
    position, then by the trial index."""
    return derive_seed(derive_seed(master_seed, SUITES.index(suite)), trial_index)


def _failed(dims, exc: Exception) -> TrialOutcome:
    return TrialOutcome(*dims, passed=False, notes=f"{type(exc).__name__}: {exc}")


class _DrawnTrial(NamedTuple):
    trial_index: int
    dims: tuple[int, int, int]
    drawn: tuple                         # the draw's values, empty if it raised;
                                         # a check gets them built
    failed: TrialOutcome | None = None   # the outcome of a draw that raised

    @property
    def draws(self) -> list[Draw]:
        return [v for v in self.drawn if isinstance(v, Draw)]

    @property
    def nbytes(self) -> int:
        """Bytes of every array the trial holds: its draws' Gaussians and the
        arrays it drew outright."""
        arrays = [a for v in self.drawn for a in (v.gaussians if isinstance(v, Draw) else (v,))]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _draw_trial(spec: EnsembleSpec, suite: str, trial_index: int, draw=None) -> _DrawnTrial:
    """One trial's dimensions and draws, from its own stream, by the suite's
    draw or by ``draw`` in its place.  A dimension rule's ContractViolation
    is a configuration error and propagates."""
    draw_dims, suite_draw, _ = _SUITE_TABLE[suite]
    rng = SplitMix64(trial_seed(spec.seed, suite, trial_index))
    dims = draw_dims(rng, spec, trial_index)
    try:
        return _DrawnTrial(trial_index, dims, (draw or suite_draw)(rng, spec, trial_index, dims))
    except _TRIAL_ERRORS as exc:
        return _DrawnTrial(trial_index, dims, (), _failed(dims, exc))


def _built(chunk: list[_DrawnTrial]) -> list[_DrawnTrial]:
    """The chunk's trials with each :class:`Draw` built into its matrix, and
    a failed outcome for a trial whose matrices raise.  The Haar factors of
    every draw in the chunk come from one stacked QR per matrix shape.

    Takes the trials out of ``chunk`` one at a time, so each trial's
    Gaussians and Haar factors are let go as soon as its matrices are built.
    """
    factors = haar_factors([d for trial in chunk for d in trial.draws])[::-1]
    chunk.reverse()
    built = []
    while chunk:
        trial = chunk.pop()
        if trial.failed is None:
            mine = [factors.pop() if isinstance(v, Draw) else None for v in trial.drawn]
            try:
                trial = trial._replace(drawn=tuple(v.assemble(q) if q is not None else v
                                                   for v, q in zip(trial.drawn, mine)))
            except _TRIAL_ERRORS as exc:
                trial = trial._replace(drawn=(), failed=_failed(trial.dims, exc))
        built.append(trial)
    return built


def _check_chunk(spec: EnsembleSpec, suite: str, chunk: list[_DrawnTrial],
                 tolerances: Tolerances) -> list[TrialOutcome]:
    """Outcomes of drawn trials, in order, emptying ``chunk``.  The suite's
    check takes the built trials at once; a trial that raises while its
    matrices are built or checked fails alone."""
    check = _SUITE_TABLE[suite][2]
    trials = _built(chunk)
    checked = iter(check(spec, [trial for trial in trials if trial.failed is None], tolerances))
    return [trial.failed if trial.failed is not None else next(checked) for trial in trials]


def _run_trials(spec: EnsembleSpec, suite: str, trial_indices, tolerances: Tolerances, draw=None):
    """Outcomes of the given trials of a suite, in order, checked in chunks
    that close once their draws reach CHUNK_BYTES; ``draw``, if given,
    replaces the suite's draw."""
    chunk: list[_DrawnTrial] = []
    size = 0
    for trial_index in trial_indices:
        trial = _draw_trial(spec, suite, trial_index, draw)
        size += trial.nbytes
        chunk.append(trial)
        del trial  # the chunk holds the only reference, which checking it drops
        if size >= CHUNK_BYTES:
            yield from _check_chunk(spec, suite, chunk, tolerances)
            size = 0
    if chunk:
        yield from _check_chunk(spec, suite, chunk, tolerances)


def run_trial(spec: EnsembleSpec, suite: str, trial_index: int,
              tolerances: Tolerances = Tolerances()) -> TrialOutcome:
    """Trial ``trial_index`` of a theorem suite, regenerated from its seed:
    the runner's path, as a chunk of one trial.

    A trial that raises a contract or numerical error yields a failed
    outcome that carries the dimensions it drew and the error as its notes.
    """
    if suite not in THEOREM_SUITES:
        raise ContractViolation(f"{suite!r} reduces its trials to one search record; "
                                f"valid: {sorted(THEOREM_SUITES)}")
    return next(_run_trials(spec, suite, (trial_index,), tolerances))


def counterexample_search(config: ExperimentConfig, control: str | None = None) -> TrialRecord | None:
    """Hunt for an oblique compression that breaks interlacing.

    Runs the oblique suite's trials one at a time, each as a chunk of one,
    skipping any that raise.  A violating trial is re-run from its seed with
    the interlacing and realness tolerances multiplied by WITNESS_TIGHTEN,
    and is the witness if it still violates.  ``control`` swaps X for a
    unitary or the identity.  Returns the witness's record, or None when the
    budget is exhausted (as the control arms should every time).
    """
    if control not in (None, "unitary", "identity"):
        raise ContractViolation(f"unknown control arm {control!r}")
    suite, spec, tols = "oblique-counterexample", config.ensemble, config.tolerances
    strict = replace(tols, interlace=WITNESS_TIGHTEN * tols.interlace,
                     realness=WITNESS_TIGHTEN * tols.realness)
    draw = partial(_oblique_draw, control=control)

    def outcome(trial_index: int, tolerances: Tolerances) -> TrialOutcome:
        return next(_run_trials(spec, suite, (trial_index,), tolerances, draw))

    for trial_index in range(config.trials):
        if outcome(trial_index, tols).worst_residual <= 0.0:
            continue
        witness = outcome(trial_index, strict)
        if witness.worst_residual > 0.0:
            record = witness.record(suite, trial_index, trial_seed(spec.seed, suite, trial_index))
            return replace(record, notes=f"witness: {record.notes}")
    return None


def _cpus() -> int:
    """How many processes a run may use: the CPUs in the affinity mask, or 1
    where the platform has none (macOS, Windows) or where the process runs
    other threads, since a forked child inherits any lock they hold, held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _search_record(config: ExperimentConfig) -> TrialRecord:
    """The oblique search's one record: its witness, or a not-found record
    for the whole budget."""
    spec = config.ensemble
    not_found = TrialOutcome(_oblique_dims(None, spec, 0)[0], 0, 0, passed=True,
                             notes=f"no witness in {config.trials} draws")
    return (counterexample_search(config)
            or not_found.record("oblique-counterexample", config.trials - 1, spec.seed))


def _run_slice(config: ExperimentConfig, part: int, workers: int):
    """Slice ``part`` of a run cut into ``workers`` slices: the records of
    the ``part``-th of ``workers`` contiguous runs of each theorem suite's
    trials, one list per configured suite.  The oblique search's record goes
    with slice 0.

    Returns the lists and None, or, when a dimension rule raises, the lists
    of the suites before it and (the suite's position, the error).
    """
    spec, trials = config.ensemble, config.trials
    indices = range(part * trials // workers, (part + 1) * trials // workers)
    records: list[list[TrialRecord]] = []
    for position, suite in enumerate(config.suites):
        try:
            if suite in THEOREM_SUITES:
                outcomes = _run_trials(spec, suite, indices, config.tolerances)
                records.append([outcome.record(suite, i, trial_seed(spec.seed, suite, i))
                                for i, outcome in zip(indices, outcomes)])
            else:
                records.append([_search_record(config)] if part == 0 else [])
        except ContractViolation as exc:
            return records, (position, exc)
    return records, None


def _fork_slice(config: ExperimentConfig, part: int, workers: int):
    """Start slice ``part`` in a forked child, which sends back the pickled
    result and exits.  Returns (pid, read end of its pipe), or None if no
    process could be made."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child never returns: it leaves by os._exit, status 0 once all is sent
        status = 1
        try:
            os.close(read)
            payload = pickle.dumps(_run_slice(config, part, workers), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as stream:
                stream.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def run_suite(config: ExperimentConfig) -> list[TrialRecord]:
    """Execute every configured suite.  A failed trial is recorded, not
    raised; a configuration error (a dimension rule's ContractViolation)
    propagates, the first in (suite, trial) order, as a serial run raises it.

    Each theorem suite's trials are cut into one contiguous slice per CPU
    (see :func:`_cpus`); a run without a theorem suite stays in one process.
    Slice 0 runs here, the others each in a forked child; a child that dies
    before sending its whole result has its slice run here instead.  A trial's outcome depends only on its seed, so the
    records do not depend on the number of slices.

    Output order is (suite as configured, trial index), so a fixed config
    yields an identical record list on every run.  The oblique search gives
    one record: its witness, or a not-found record for the whole budget.
    """
    workers = min(_cpus(), config.trials) if THEOREM_SUITES.intersection(config.suites) else 1
    children = {}
    try:
        for part in range(1, workers):
            children[part] = _fork_slice(config, part, workers)
        slices = [_run_slice(config, 0, workers)]
        for part in range(1, workers):
            sent = None
            if children[part] is not None:
                pid, stream = children[part]
                with stream:
                    payload = stream.read()  # to EOF: all the child sent before it exited
                status = os.waitpid(pid, 0)[1]
                children[part] = None
                if status == 0:
                    sent = pickle.loads(payload)
            slices.append(sent or _run_slice(config, part, workers))
    finally:  # on the way out of an error: leave no child behind
        for child in filter(None, children.values()):
            pid, stream = child
            stream.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    errors = [(error[0], part, error[1]) for part, (_, error) in enumerate(slices) if error]
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    return [record for lists in zip(*(records for records, _ in slices))
            for part in lists for record in part]


def failed_theorem_records(records) -> list[TrialRecord]:
    return [r for r in records if r.suite in THEOREM_SUITES and not r.passed]
