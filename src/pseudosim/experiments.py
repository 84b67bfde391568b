"""Seeded verification suites over random ensembles.

Each suite draws (matrix, transform) instances from an :class:`EnsembleSpec`
and checks one property end to end: interlacing of the compressed spectrum,
agreement of independent computation routes, the Moore-Penrose axioms,
eigensolver output against characteristic-polynomial oracles, or (the one
negative result) that oblique compressions do violate interlacing.

A suite is one entry of ``_SUITE_TABLE``: a dimension rule, a draw and a
check.  :class:`ExperimentConfig` runs each suite's dimension rule at the ends
of its draw ranges, and makes the oblique search's tolerances, so a config
error is raised before any trial is drawn.  Trials run in chunks: each trial of
a chunk is drawn from its own stream and names its dimensions, then
:func:`_check_chunk` hands every :class:`~pseudosim.ensembles.Draw` of the
chunk to :func:`~pseudosim.ensembles.build_draws`, which makes their Gaussians
in stacks and builds them (this module never reads a draw's Gaussians, stage
or build), and the suite's check takes the built trials one at a time, each
freed before the next check; it judges its verdict gates, rows of
:class:`~pseudosim.errors.Gate`, by :meth:`_DrawnTrial.judged`.
:func:`_check_chunk` alone turns a trial's error, from its draw, build or
check, into a failed record, of category ``error``;
:func:`~pseudosim.ensembles._kept` keeps the error without its traceback, so a
failed trial holds nothing of its chunk.  :func:`run_suite` runs a suite's
trials in chunks of at most ``CHUNK_BYTES`` of draws, or of one trial that
alone draws more, cut into one contiguous slice of trials per usable CPU:
slice 0 runs in the calling process, each other slice in a forked child that
sends its records back through a pipe; :func:`run_trial` runs one trial as a
chunk of one and returns its :class:`TrialRecord`, the runner's row for that
trial, so the runner, replay and the acceptance tests share one path.  So does
:func:`counterexample_search`: it runs the oblique suite's trials one at a
time, at tolerances WITNESS_TIGHTEN times the run's
(:func:`_witness_tolerances`), and stops at the first violation.

The configuration is validated once, by the frozen :class:`EnsembleSpec`,
:class:`Tolerances` and :class:`ExperimentConfig`.  The checks call the private
body of each function whose guard passes over an array, as its input holds by
construction (P = (P+P^H)/2, V and Q from a Haar QR, finite Gaussians, sorted
spectra), and keep every verdict gate: H's full column rank, route agreement,
realness, the zero split, interlacing, the Penrose residuals and the oracles.
The oblique check keeps the public
:func:`~pseudosim.transforms.oblique_transform`, whose block need not be
finite; numpy's eigensolver refuses a non-finite one, so its trial fails.

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
import re
import signal
import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import partial
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ensembles import (
    Draw,
    EnsembleSpec,
    _gaussians,
    _kept,
    build_draws,
    draw_full_column_rank,
    draw_hermitian,
    draw_invertible_nonunitary,
    draw_rank_l,
    draw_spectrum,
    draw_unitary,
)
from .eigen import _eigvals_general, _eigvals_hermitian, match_distance, relative_imag
from .errors import ContractViolation, Gate, require_number
from .interlace import INTERLACE_REL_TOL, ZERO_REL_TOL, _check_interlacing, _realness, _zero_split
from .linalg import _adjoint, _penrose_residuals, _require_rank_tol, _svd, spectral_scale
from .oracles import _characteristic_polynomial, polynomial_roots
from .rng import SplitMix64, derive_seed
from .transforms import _inflate_transform, _pseudo_similarity, _unitary_compression, oblique_transform

#: an unpinned n's range; interlace-rank-deficient and -inflated cap it at 12
DEFAULT_N_RANGE = (2, 16)
OBLIQUE_DEFAULT_N = 3
WITNESS_TIGHTEN = 10.0            # tolerance factor an oblique witness must violate


@dataclass(frozen=True)
class Tolerances:
    """The runner's tolerance table.

    ``interlace``, ``zero`` and ``realness`` are factors of the spectral
    scale of the quantity under test; ``mp`` and ``oracle`` bound relative
    residuals; ``unitary_pinv`` and ``route`` are absolute bounds on the
    largest entry of a deviation; ``rank`` replaces the rank-detection
    threshold factor directly, and None keeps the per-matrix default,
    max(rows, cols) * eps.  Every value is a finite positive number, and
    ``rank`` one below 1: a NaN or infinite gate would pass anything, a
    non-positive one, or a rank threshold of 1 or more, nothing, and a bool
    is no number here (True would read as a gate of 1).
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
            if f.name != "rank":
                require_number(getattr(self, f.name), f"tolerance {f.name}", 0.0, above=True)
        _require_rank_tol(self.rank, "tolerance rank")


@dataclass(frozen=True)
class ExperimentConfig:
    suites: tuple[str, ...]
    ensemble: EnsembleSpec
    trials: int = 200
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        _require_instance(self.suites, "suites", Sequence)
        if isinstance(self.suites, str):  # a str would read as one-letter tags
            raise ContractViolation(f"suites must be a sequence of suite tags, "
                                    f"not the str {self.suites!r}")
        object.__setattr__(self, "suites", tuple(self.suites))
        if not self.suites:
            raise ContractViolation("at least one suite must be selected")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ContractViolation(f"unknown suite tag(s) {unknown}; valid: {list(SUITES)}")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ContractViolation(f"suite tag(s) {repeated} selected more than once")
        require_number(self.trials, "trials", 1, integer=True)
        _require_instance(self.ensemble, "ensemble", EnsembleSpec)
        _require_instance(self.tolerances, "tolerances", Tolerances)
        for suite in self.suites:
            _require_fits(self.ensemble, suite)
        if "oblique-counterexample" in self.suites:
            _witness_tolerances(self.tolerances)


@dataclass(slots=True)
class TrialRecord:
    """One verification trial, flat so csv and json-lines share field names.

    A record carries (suite, trial_index, seed, n, k, l), which is everything
    needed to regenerate the trial standalone.  The fields up to ``notes``
    are its report columns, :data:`RECORD_FIELDS`.  No report writes the rest
    and no comparison reads them: ``category``, and interlacing diagnostics,
    which suites that do not measure them, trials that raised, and failed
    route, realness and zero-split gates leave at their defaults.
    """

    suite: str
    trial_index: int
    seed: int
    n: int
    k: int
    l: int
    passed: bool
    min_lower_margin: float = 0.0
    min_upper_margin: float = 0.0
    worst_residual: float = 0.0
    notes: str = ""
    category: str = field(default="", compare=False)          # first failed gate's, "" on a pass
    rel_imag: float = field(default=math.nan, compare=False)  # max |imag| / scale of spec(T)
    route_dev: float = field(default=0.0, compare=False)      # gap between the inflation routes
    zeros: int = field(default=0, compare=False)              # structural zeros split off spec(T)
    hermitian: bool = field(default=False, compare=False)     # T Hermitian within tolerance
    cond_h: float = field(default=math.nan, compare=False)    # sigma_max / sigma_min of the map


#: the report columns of a record, in order
RECORD_FIELDS = ("suite", "trial_index", "seed", "n", "k", "l", "passed",
                 "min_lower_margin", "min_upper_margin", "worst_residual", "notes")


def _require_instance(value, name: str, cls: type) -> None:
    if not isinstance(value, cls):
        raise ContractViolation(f"{name} must be of type {cls.__name__}, got {value!r}")


def _finite(x) -> float:
    x = float(x)
    return x if np.isfinite(x) else 0.0


def _pick(pinned: int | None, rng: SplitMix64, lo: int, hi: int) -> int:
    """A pinned ensemble dimension, or a fresh draw from [lo, hi]."""
    return pinned if pinned is not None else rng.randint(lo, hi)


def _got(spec: EnsembleSpec, **dims: int) -> str:
    """``dims`` for a dimension rule's message: the pinned ones as got, the
    others as what a trial may draw."""
    pinned = ", ".join(f"{d} = {v}" for d, v in dims.items() if getattr(spec, d) is not None)
    drawn = ", ".join(f"{d} = {v}" for d, v in dims.items() if getattr(spec, d) is None)
    return " and ".join(filter(None, (pinned and f"got {pinned}", drawn and f"may draw {drawn}")))


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
        raise ContractViolation(f"{suite} needs l <= n; {_got(spec, n=n, l=spec.l)}")
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
                                f"{_got(spec, n=n, k=spec.k)}")
    k = _pick(spec.k, rng, k_lo, k_hi)
    if spec.l is None and min(n, k) < 2:
        raise ContractViolation(f"{suite} draws 1 <= l < min(n, k), so it needs n >= 2 and k >= 2; "
                                f"{_got(spec, n=n, k=k)}")
    if spec.l is not None and spec.l > (n if inflated else k - 1):
        raise ContractViolation(f"{suite} needs {'l <= n' if inflated else 'l < k'}; "
                                f"{_got(spec, n=n, k=k, l=spec.l)}")
    l = _pick(spec.l, rng, 1, min(n, k) - 1)
    return n, k, l


def _interlace_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    """The spectrum, P, H and, where k > l (every rank-deficient and inflated
    trial, no full-rank one), the frame V of the inflation route."""
    n, k, l = dims
    lam = np.sort(draw_spectrum(rng, spec, n))
    return dims, (lam, draw_hermitian(rng, lam), draw_full_column_rank(rng, n, l, spec.condition_cap),
                  draw_unitary(rng, k, l) if k > l else None)


def _interlace_check(trial: _DrawnTrial, tols: Tolerances) -> TrialRecord:
    l = trial.dims[2]
    lam, p, h, v = trial.drawn
    result = _pseudo_similarity(p, h, tols.rank) if v is None else _inflate_transform(p, h, v, tols.rank)
    if result.route and result.route.failure:  # a failed route, realness or zero split ends the check
        return trial.judged((result.route,))
    spectrum = _eigvals_general(result.transformed)
    real_values, realness = _realness(spectrum, tols.realness)
    (eta, zero_count), split = _zero_split(real_values, result.input_rank, tols.zero)
    if realness.failure or split.failure:  # a complex spectrum's zero split means nothing
        return trial.judged((realness if realness.failure else split,))
    report = _check_interlacing(lam, eta, tols.interlace * spectral_scale(lam))

    lo, hi = report.min_margins()
    rank, rel_imag, route_dev = result.input_rank, relative_imag(spectrum), result.route_deviation or 0.0
    sigma = result.factors.sigma
    return trial.judged((_bounded("rank", abs(rank - l), 0, "rank {2} != target {3} ({4} zeros)",
                                  rank, l, zero_count),
                         Gate("interlace", -float(np.minimum(lo, hi)), report.tol_used, None if report.passed
                              else f"interlacing violated (tol {report.tol_used:.3e})")),
                        min_lower_margin=_finite(lo), min_upper_margin=_finite(hi),
                        worst_residual=float(np.maximum(rel_imag, route_dev)),
                        rel_imag=rel_imag, route_dev=route_dev, zeros=zero_count,
                        hermitian=result.hermitian,
                        cond_h=float(sigma[0] / sigma[-1]) if sigma.size else math.inf)


def _subsumption_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    n, k, l = dims
    lam = np.sort(draw_spectrum(rng, spec, n))
    return dims, (draw_hermitian(rng, lam), draw_unitary(rng, n, l))


def _subsumption_check(trial: _DrawnTrial, tols: Tolerances) -> TrialRecord:
    p, q = trial.drawn

    classical = _unitary_compression(p, q)
    general = _pseudo_similarity(p, q, tols.rank)
    pinv_dev = float(np.abs(general.factors.pseudo_inverse() - _adjoint(q)).max())
    route_dev = float(np.abs(classical - general.transformed).max())
    return trial.judged((_bounded("unitary_pinv", pinv_dev, tols.unitary_pinv,
                                  "pinv(q) deviates from adjoint by {:.3e}"),
                         _bounded("route", route_dev, tols.route, "compression routes deviate by {:.3e}")),
                        worst_residual=float(np.maximum(pinv_dev, route_dev)))


def _bounded(category: str, measured: float, bound: float, note: str, *args) -> Gate:
    """The gate ``measured <= bound``, failed by a NaN, noting ``note.format(measured, bound, *args)``."""
    return Gate(category, measured, bound, None if measured <= bound else note.format(measured, bound, *args))


def _oblique_dims(rng: SplitMix64 | None, spec: EnsembleSpec, trial_index: int, suite: str):
    """Side n of P and X, OBLIQUE_DEFAULT_N unless pinned.  The selection
    size is the draw's, so it stays 0 on a trial whose draw raised."""
    n = spec.n if spec.n is not None else OBLIQUE_DEFAULT_N
    _prescribed_fits(spec, suite, n)
    if n < 2:
        raise ContractViolation(f"{suite} draws 1 <= l <= n - 1, so it needs n >= 2; got n = {n}")
    if spec.nonunitarity_floor > spec.condition_cap:
        raise ContractViolation(f"{suite} draws cond(X) from [nonunitarity_floor, "
                                f"condition_cap]; got nonunitarity_floor = {spec.nonunitarity_floor} "
                                f"> condition_cap = {spec.condition_cap}")
    return n, 0, 0


def _oblique_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims,
                  control: str | None = None):
    """P, the frame X and the selection, whose size the dimensions carry as
    k = l.  X is invertible and non-unitary, or on a control arm unitary or
    the identity."""
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
    return (n, l, l), (lam, p, x, sorted(rng.choose_distinct(l, n)))


def _oblique_check(trial: _DrawnTrial, tols: Tolerances) -> TrialRecord:
    """How far one oblique compression lands past interlacing, as
    ``worst_residual``: positive when its spectrum is complex or breaches a
    margin, zero otherwise.  A breach of a block with at most 6 rows counts
    only if the characteristic-polynomial roots confirm its spectrum.  The
    record passes either way: a breach is what the search looks for."""
    lam, p, x, sel = trial.drawn
    t = oblique_transform(p, x, sel)
    spectrum, scale = _eigvals_general(t), spectral_scale(lam)
    eta, realness = _realness(spectrum, tols.realness)
    if realness.failure:
        magnitude = relative_imag(spectrum)
        lo, hi, note = -magnitude, 0.0, f"complex spectrum (max rel imag {magnitude:.3e})"
    else:
        report = _check_interlacing(lam, eta, tols.interlace * scale)
        lo, hi = report.min_margins()
        magnitude = 0.0 if report.passed else float(np.maximum(-lo, -hi)) / scale
        note = "" if report.passed else f"interlacing violated (worst margin {min(lo, hi):.3e})"
    if magnitude > 0.0 and t.shape[0] <= 6:
        oracle_dev = match_distance(spectrum, polynomial_roots(_characteristic_polynomial(t)))
        if not oracle_dev <= tols.oracle * scale:
            magnitude, note = 0.0, f"{note}; charpoly roots deviate by {oracle_dev:.3e}"
    return trial.record(passed=True, min_lower_margin=_finite(lo), min_upper_margin=_finite(hi),
                        worst_residual=magnitude, notes=note)


_MP_SHAPES = ("tall-full", "wide-full", "square-full", "tall-deficient",
              "wide-deficient", "square-deficient")


def _mp_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, suite: str):
    """(rows, cols, target rank); shapes cycle deterministically so every run
    covers full-rank, rank-deficient, tall, wide, and square."""
    shape_kind = _MP_SHAPES[trial_index % len(_MP_SHAPES)]
    rows = _pick(spec.n, rng, max(2, DEFAULT_N_RANGE[0]), DEFAULT_N_RANGE[1])
    if rows > 24:
        raise ContractViolation(f"{suite} draws wide shapes with n <= cols <= 24, "
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
        return dims, (draw_rank_l(rng, rows, cols, rank_target, spec.condition_cap),)
    return dims, (draw_full_column_rank(rng, max(rows, cols), min(rows, cols), spec.condition_cap),)


def _mp_check(trial: _DrawnTrial, tols: Tolerances) -> TrialRecord:
    """Penrose conditions on one matrix of the drawn shape and rank."""
    rows, cols, rank_target = trial.dims
    m, = trial.drawn
    if m.shape != (rows, cols):
        m = _adjoint(m)

    factors = _svd(m, tols.rank)
    residuals = _penrose_residuals(m, factors.pseudo_inverse())
    worst = float(np.max(residuals))  # a NaN residual stays NaN
    labels = ("m p m = m", "p m p = p", "(m p)^H = m p", "(p m)^H = p m")
    bad = "; ".join(lab for lab, r in zip(labels, residuals) if not r <= tols.mp)
    return trial.judged((_bounded("rank", abs(factors.rank - rank_target), 0, "rank {2} != target {3}",
                                  factors.rank, rank_target),
                         _bounded("mp", worst, tols.mp, "Penrose residual {0:.3e} > {1:.1e} ({2})", bad)),
                        worst_residual=worst)


def _oracle_dims(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, suite: str):
    """Side n of the charpoly-checked matrices.  The side k of the
    trace/determinant matrix is the draw's, so it stays 0 on a trial whose
    draw raised."""
    n = rng.randint(2, 4)
    return n, 0, n


def _oracle_draw(rng: SplitMix64, spec: EnsembleSpec, trial_index: int, dims):
    """An n x n Gaussian for the charpoly oracle and a k x k one for the
    trace/determinant identities, each built into its deviations."""
    n = dims[0]
    g = _gaussians(rng, (n, n))
    n_td = rng.randint(2, 6)
    return (n, n_td, n), (Draw(g, stage=_charpoly_deviations),
                          Draw(_gaussians(rng, (n_td, n_td)), stage=_trace_det_deviations))


def _oracle_check(trial: _DrawnTrial, tols: Tolerances) -> TrialRecord:
    """LAPACK-backed solvers against the characteristic-polynomial oracle
    (n <= 4) plus trace/determinant identities (n <= 6): the deviations the
    trial's stages measured, against ``tols.oracle``."""
    devs, (trace_dev, det_dev) = trial.drawn
    worst = float(np.max([*devs, trace_dev, det_dev]))  # a NaN deviation stays NaN
    roots = [_bounded("oracle", dev, tols.oracle, "{2} deviates from charpoly roots by {0:.3e}", solver)
             for solver, dev in zip(("eigvals_general", "eigvals_hermitian"), devs)]
    return trial.judged((*roots, _bounded("oracle", trace_dev, tols.oracle, "trace identity off by {:.3e}"),
                         _bounded("oracle", det_dev, tols.oracle, "determinant identity off by {:.3e}")),
                        worst_residual=worst)


def _charpoly_deviations(g: np.ndarray) -> list[tuple[float, float]]:
    """Per matrix of the stack g, a pair: how far LAPACK's spectra of it and
    of its Hermitian part lie from their characteristic-polynomial roots, per
    the roots' spectral scale."""
    general = _eigvals_general(g), polynomial_roots(_characteristic_polynomial(g))
    hm = (g + _adjoint(g)) / 2.0
    hermitian = _eigvals_hermitian(hm), polynomial_roots(_characteristic_polynomial(hm))
    return list(zip(*[match_distance(w, roots) / spectral_scale(roots, axis=1)
                      for w, roots in (general, hermitian)]))


def _trace_det_deviations(g6: np.ndarray) -> list[tuple[float, float]]:
    """Per matrix of the stack g6: how far the sum and the product of its
    eigenvalues lie from its trace and its determinant.  Scaled by scalar
    moduli, not :func:`spectral_scale`: numpy's vectorised complex modulus
    differs from the scalar one in the last bit on some values."""
    w = _eigvals_general(g6)
    traces, dets = np.trace(g6, axis1=1, axis2=2), np.linalg.det(g6)
    return [(abs(total - trace) / max(1.0, abs(trace)), abs(prod - det) / max(1.0, abs(det)))
            for total, trace, prod, det in zip(w.sum(axis=1), traces, w.prod(axis=1), dets)]


#: suite -> (dimension rule, draw, check), in canonical order: a suite's
#: position indexes its seed derivation.  The dimension rule takes the tag of
#: the suite it serves, which its messages name.  The draw takes every random
#: number of a trial and returns its dimensions and its drawn values; a
#: :class:`Draw` among them reaches the check as what it builds.  The check
#: takes one built trial and returns its record.  The oblique search's trials
#: reduce to one record: see :func:`counterexample_search`.
_SUITE_TABLE = {
    "interlace-full-rank": (_compression_dims, _interlace_draw, _interlace_check),
    "interlace-rank-deficient": (_deficient_dims, _interlace_draw, _interlace_check),
    "interlace-inflated": (_deficient_dims, _interlace_draw, _interlace_check),
    "subsumption": (_compression_dims, _subsumption_draw, _subsumption_check),
    "oblique-counterexample": (_oblique_dims, _oblique_draw, _oblique_check),
    "mp-axioms": (_mp_dims, _mp_draw, _mp_check),
    "solver-oracle": (_oracle_dims, _oracle_draw, _oracle_check),
}

#: canonical suite order; positions index the per-suite seed derivation
SUITES = tuple(_SUITE_TABLE)


def _require_fits(spec: EnsembleSpec, suite: str) -> None:
    """Raise the configuration error the suite's dimension rule would raise
    on some trial of ``spec``.  Every rule compares a pinned dimension with a
    drawn one or a fixed bound, and draws only by ``randint``, so a spec that
    fits draws at the low ends of their ranges and at the high ends fits all."""
    draw_dims = _SUITE_TABLE[suite][0]
    for end in (min, max):
        draw_dims(SimpleNamespace(randint=end), spec, 0, suite)


#: suites whose failures flip the process exit status: all but the oblique
#: search, which reports not-found as a warning instead
THEOREM_SUITES = frozenset(SUITES) - {"oblique-counterexample"}

#: a chunk of trials holds at most this many bytes of draws: it is checked
#: before the trial that would take it past them joins; a trial that alone
#: draws more runs as a chunk of its own
CHUNK_BYTES = 256 * 1024


class _DrawnTrial(NamedTuple):
    suite: str
    trial_index: int
    seed: int
    dims: tuple[int, int, int]
    drawn: tuple                         # the draw's values, a check gets them built; an
                                         # error among them is what the draw or a build raised

    def record(self, **verdict) -> TrialRecord:
        """The trial's record: its identity and dimensions, and ``verdict``."""
        return TrialRecord(self.suite, self.trial_index, self.seed, *self.dims, **verdict)

    def judged(self, gates, **values) -> TrialRecord:
        """The record over ``gates`` and ``values``: passed if no gate failed, else
        noting the failed ones on one line, in the first one's category."""
        failed = [g for g in gates if g.failure is not None]
        text = "; ".join(f if isinstance(f := g.failure, str) else f"{type(f).__name__}: {f}" for g in failed)
        return self.record(passed=not failed, notes=re.sub(r"\n\s*", " ", text),  # numpy wraps arrays
                           category=failed[0].category if failed else "", **values)

    @property
    def nbytes(self) -> int:
        """Bytes the trial's draws make once built: its draws' Gaussians, and
        the arrays it drew outright."""
        return sum(getattr(v, "nbytes", 0) for v in self.drawn)


def _draw_trial(spec: EnsembleSpec, suite: str, trial_index: int, seed: int,
                draw=None) -> _DrawnTrial:
    """One trial's dimensions and draws, from the stream of its seed, by the
    suite's draw or by ``draw`` in its place.  The dimensions are the draw's,
    or the dimension rule's where the draw raised."""
    draw_dims, suite_draw, _ = _SUITE_TABLE[suite]
    rng = SplitMix64(seed)
    dims = draw_dims(rng, spec, trial_index, suite)
    kept = _kept(draw or suite_draw, rng, spec, trial_index, dims)
    dims, drawn = (dims, (kept,)) if isinstance(kept, Exception) else kept
    return _DrawnTrial(suite, trial_index, seed, dims, drawn)


def _check_chunk(suite: str, chunk: list[_DrawnTrial], tolerances: Tolerances):
    """Records of drawn trials, in order, each yielded once checked: the
    suite's check, or a failed record for a trial whose draw, build or check
    raised; a trial that fails, fails alone.  :func:`build_draws` builds the
    chunk's draws together, and each trial takes its members from that list
    as its check starts, so they are freed before the next check.  A raised
    error is no verdict: the record notes the first error among the built
    values, or else the check's, in the category ``error``."""
    check = _SUITE_TABLE[suite][2]
    members = deque(build_draws([v for trial in chunk for v in trial.drawn if isinstance(v, Draw)]))
    for trial in chunk:
        built = trial._replace(drawn=tuple(members.popleft() if isinstance(v, Draw) else v
                                           for v in trial.drawn))
        error = next((v for v in built.drawn if isinstance(v, Exception)), None)
        record = _kept(check, built, tolerances) if error is None else error
        if isinstance(record, Exception):
            record = built.judged((Gate("error", math.nan, math.nan, record),))
        yield record


def _run_trials(spec: EnsembleSpec, suite: str, trial_indices, tolerances: Tolerances, draw=None):
    """Records of the given trials of a suite, in order, each yielded once
    checked, in chunks of at most CHUNK_BYTES of draws or of one trial;
    ``draw``, if given, replaces the suite's draw.  Trial ``i`` is seeded
    ``derive_seed(derive_seed(spec.seed, SUITES.index(suite)), i)``, the
    suite's seed derived once."""
    suite_seed = derive_seed(spec.seed, SUITES.index(suite))
    chunk, size = [], 0
    for trial_index in trial_indices:
        trial = _draw_trial(spec, suite, trial_index, derive_seed(suite_seed, trial_index), draw)
        nbytes = trial.nbytes
        if chunk and size + nbytes > CHUNK_BYTES:
            yield from _check_chunk(suite, chunk, tolerances)
            chunk, size = [], 0
        chunk.append(trial)
        size += nbytes
    if chunk:
        yield from _check_chunk(suite, chunk, tolerances)


def run_trial(spec: EnsembleSpec, suite: str, trial_index: int,
              tolerances: Tolerances = Tolerances()) -> TrialRecord:
    """The record of trial ``trial_index`` of a theorem suite, regenerated
    from its seed: the runner's path, as a chunk of one trial, so it equals
    the runner's row for the trial.

    A suite that is no theorem suite, a spec that is no
    :class:`EnsembleSpec` or one the suite cannot draw, tolerances that are
    no :class:`Tolerances`, or a ``trial_index`` that is not an int >= 0,
    raise ContractViolation.  A trial that raises a contract or
    numerical error yields a failed record that carries the dimensions it
    drew and the error as its notes.
    """
    require_number(trial_index, "trial_index", 0, integer=True)
    _require_instance(spec, "spec", EnsembleSpec)
    _require_instance(tolerances, "tolerances", Tolerances)
    if suite not in SUITES or suite not in THEOREM_SUITES:  # a list is no tag, nor hashable
        problem = (f"{suite!r} reduces its trials to one search record" if suite in SUITES
                   else f"unknown suite tag {suite!r}")
        raise ContractViolation(f"{problem}; valid: {sorted(THEOREM_SUITES)}")
    _require_fits(spec, suite)
    return next(_run_trials(spec, suite, (trial_index,), tolerances))


def _witness_tolerances(tols: Tolerances) -> Tolerances:
    """The oblique search's tolerances: interlace and realness WITNESS_TIGHTEN times the run's."""
    tightened = {name: WITNESS_TIGHTEN * getattr(tols, name) for name in ("interlace", "realness")}
    for name, value in tightened.items():  # a factor that overflows is a config error
        require_number(value, f"oblique-counterexample's tolerance {name}, "
                              f"{WITNESS_TIGHTEN:g} times {getattr(tols, name)!r},")
    return replace(tols, **tightened)


def counterexample_search(config: ExperimentConfig, control: str | None = None) -> TrialRecord | None:
    """Hunt for an oblique compression that breaks interlacing.

    Runs the oblique suite's trials one at a time, each as a chunk of one,
    skipping any that raise, with the interlacing and realness tolerances
    multiplied by WITNESS_TIGHTEN.  The first trial that violates them is
    the witness; it violates the run's own tolerances too, by that factor.
    ``control`` swaps X for a unitary or the identity.  Returns the witness's
    record, or None when the budget is exhausted (as the control arms should
    every time).
    """
    _require_instance(config, "config", ExperimentConfig)
    if control not in (None, "unitary", "identity"):
        raise ContractViolation(f"unknown control arm {control!r}")
    tightened, draw = _witness_tolerances(config.tolerances), partial(_oblique_draw, control=control)
    for trial_index in range(config.trials):
        record = next(_run_trials(config.ensemble, "oblique-counterexample", (trial_index,), tightened, draw))
        if record.worst_residual > 0.0:
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
    return counterexample_search(config) or TrialRecord(
        "oblique-counterexample", config.trials - 1, spec.seed,
        _oblique_dims(None, spec, 0, "oblique-counterexample")[0], 0, 0,
        passed=True, notes=f"no witness in {config.trials} draws")


def _run_slice(config: ExperimentConfig, part: int, workers: int):
    """Slice ``part`` of a run cut into ``workers`` slices: the records of
    the ``part``-th of ``workers`` contiguous runs of each theorem suite's
    trials, one list per configured suite.  The oblique search's record goes
    with slice 0.
    """
    spec, trials = config.ensemble, config.trials
    indices = range(part * trials // workers, (part + 1) * trials // workers)
    return [list(_run_trials(spec, suite, indices, config.tolerances)) if suite in THEOREM_SUITES
            else ([_search_record(config)] if part == 0 else []) for suite in config.suites]


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
    raised; a config error was raised when :class:`ExperimentConfig` was made.

    Each theorem suite's trials are cut into one contiguous slice per CPU
    (see :func:`_cpus`); a run without a theorem suite stays in one process.
    Slice 0 runs here, the others each in a forked child; a child that dies
    before sending its whole result has its slice run here instead.  A
    trial's record depends only on its seed, so the records do not depend
    on the number of slices.

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
    return [record for lists in zip(*slices) for part in lists for record in part]


def failed_theorem_records(records) -> list[TrialRecord]:
    return [r for r in records if r.suite in THEOREM_SUITES and not r.passed]
