import dataclasses
import gc
import hashlib
import itertools
import re
import weakref
from collections import Counter

import numpy as np
import pytest

import pseudosim.eigen as eigen
import pseudosim.ensembles as ensembles
import pseudosim.experiments as experiments
import pseudosim.interlace as interlace
import pseudosim.linalg as linalg
import pseudosim.oracles as oracles
import pseudosim.transforms as transforms
from pseudosim.cli import main
from pseudosim.eigen import eigvals_general, match_distance, spectral_scale
from pseudosim.ensembles import Draw, EnsembleSpec
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.experiments import (
    OBLIQUE_DEFAULT_N,
    SUITES,
    THEOREM_SUITES,
    ExperimentConfig,
    Tolerances,
    TrialRecord,
    counterexample_search,
    failed_theorem_records,
    run_suite,
    run_trial,
)
from pseudosim.oracles import characteristic_polynomial, polynomial_roots
from pseudosim.reports import render
from pseudosim.rng import SplitMix64, derive_seed
from pseudosim.transforms import oblique_transform

#: the documented oblique search: seed, condition cap of X and trial budget
OBLIQUE_DEFAULT_SEED = 7
OBLIQUE_DEFAULT_CAP = 100.0
OBLIQUE_DEFAULT_BUDGET = 1000


def _drawn(spec, suite, trial_index):
    """Trial ``trial_index`` of a suite, drawn from its stream as the runner
    draws it, not built; its seed is the README's formula."""
    seed = derive_seed(derive_seed(spec.seed, SUITES.index(suite)), trial_index)
    return experiments._draw_trial(spec, suite, trial_index, seed)


def _gaussian(draw, index=0):
    """The complex Gaussian a draw records at ``index``, made from its start
    state."""
    start, shape = draw.gaussians[index]
    return SplitMix64(start).complex_normals(shape)


def _config(**kwargs):
    kwargs.setdefault("suites", SUITES)
    kwargs.setdefault("ensemble", EnsembleSpec(seed=42))
    kwargs.setdefault("trials", 10)
    return ExperimentConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ContractViolation):
        _config(suites=("interlace-full-rank", "bogus"))
    with pytest.raises(ContractViolation):
        _config(trials=0)
    with pytest.raises(ContractViolation):
        _config(suites=())
    # a str would read as one-letter tags
    with pytest.raises(ContractViolation, match="suites must be a sequence of suite tags, "
                                                "not the str 'subsumption'"):
        _config(suites="subsumption")
    with pytest.raises(ContractViolation, match="suites must be of type Sequence, got None"):
        _config(suites=None)
    with pytest.raises(ContractViolation, match="ensemble must be of type EnsembleSpec, got None"):
        _config(ensemble=None)
    with pytest.raises(ContractViolation, match="tolerances must be of type Tolerances, got None"):
        _config(tolerances=None)
    # the spec takes any pinned shape; a suite that draws k and l judges it
    with pytest.raises(ContractViolation, match="interlace-inflated needs l <= n"):
        _config(suites=("interlace-inflated",), ensemble=EnsembleSpec(seed=1, n=2, k=3, l=3))


@pytest.mark.parametrize("trials", [2.5, 2.0, "3", True])
def test_trials_is_an_int(trials):
    # a float or a bool would be accepted here and fail later, or run 1 trial
    with pytest.raises(ContractViolation, match="trials must be an int"):
        _config(trials=trials)


@pytest.mark.parametrize("config, invalid", [
    (EnsembleSpec(seed=42), {"n": 0}),
    (ExperimentConfig(suites=SUITES, ensemble=EnsembleSpec(seed=42)), {"trials": 0}),
    (Tolerances(), {"mp": 0.0}),
], ids=["EnsembleSpec", "ExperimentConfig", "Tolerances"])
def test_configs_are_frozen(config, invalid):
    # a config's checks hold for its whole life: no field can be assigned
    # (an unknown suite, 0 trials or a pinned n = 1 would reach the trials
    # unchecked), and dataclasses.replace makes a copy that is checked again
    for field in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, None)
    with pytest.raises(ContractViolation):
        dataclasses.replace(config, **invalid)


@pytest.mark.parametrize("field", ["interlace", "realness"])
def test_the_oblique_search_refuses_a_tolerance_it_would_overflow(field):
    # the search multiplies the interlacing and realness factors by
    # WITNESS_TIGHTEN; one that overflows to inf is refused with the config,
    # by the search's own rule, and a run without the search keeps it
    tolerances = Tolerances(**{field: 1e308})
    message = rf"oblique-counterexample's tolerance {field}, 10 times 1e\+308, must be finite, got inf"
    with pytest.raises(ContractViolation, match=message):
        _config(tolerances=tolerances)
    config = _config(suites=("subsumption",), tolerances=tolerances)
    assert getattr(config.tolerances, field) == 1e308
    with pytest.raises(ContractViolation, match=message):
        counterexample_search(config)
    # a factor just below the overflow is still one the search takes
    edge = Tolerances(**{field: 1.7e307})
    assert _config(tolerances=edge).tolerances == edge


def test_all_suites_pass_smoke():
    records = run_suite(_config(trials=15))
    assert failed_theorem_records(records) == []
    by_suite = {s: [r for r in records if r.suite == s] for s in SUITES}
    for suite in THEOREM_SUITES:
        assert len(by_suite[suite]) == 15
    assert len(by_suite["oblique-counterexample"]) == 1  # single search record


def test_determinism():
    a = run_suite(_config(trials=3))
    b = run_suite(_config(trials=3))
    assert a == b  # identical TrialRecord lists, field for field


def test_suite_seeds_independent_of_selection():
    # running one suite alone yields the same records as within the full run
    full = run_suite(_config(trials=4))
    alone = run_suite(_config(suites=("subsumption",), trials=4))
    assert [r for r in full if r.suite == "subsumption"] == alone


def test_record_seed_rederivable():
    records = run_suite(_config(suites=("interlace-full-rank",), trials=5))
    suite_seed = derive_seed(42, SUITES.index("interlace-full-rank"))
    for record in records:
        assert record.seed == derive_seed(suite_seed, record.trial_index)
        assert record.n >= record.l >= 1
        assert record.passed


def test_interlace_dimension_constraints():
    spec = EnsembleSpec(seed=7)
    for suite, check in [
        ("interlace-full-rank", lambda r: r.k == r.l <= r.n),
        ("interlace-rank-deficient", lambda r: r.l < min(r.n, r.k) and r.k <= r.n),
        ("interlace-inflated", lambda r: r.k > r.n and r.l < r.n),
    ]:
        records = run_suite(ExperimentConfig(suites=(suite,), ensemble=spec, trials=25))
        assert all(r.passed for r in records), suite
        assert all(check(r) for r in records), suite


def test_fixed_dimensions_respected():
    spec = EnsembleSpec(seed=3, n=6, k=9, l=2)
    records = run_suite(ExperimentConfig(suites=("interlace-inflated",), ensemble=spec, trials=5))
    assert all((r.n, r.k, r.l) == (6, 9, 2) for r in records)


#: (suite, tolerance overrides, the note they force), one per gate a
#: tolerance guards
OVERRIDE_CASES = [
    pytest.param("interlace-full-rank", {"interlace": 1e-18}, "interlacing violated",
                 id="interlace-full-rank-interlace"),
    pytest.param("interlace-rank-deficient", {"rank": 1e-300},
                 "^NumericalError: inflation routes disagree", id="interlace-rank-deficient-rank"),
    pytest.param("subsumption", {"unitary_pinv": 1e-300}, r"pinv\(q\) deviates from adjoint",
                 id="subsumption-unitary_pinv"),
    pytest.param("subsumption", {"route": 1e-300}, "compression routes deviate",
                 id="subsumption-route"),
    pytest.param("mp-axioms", {"mp": 1e-300}, "Penrose residual", id="mp-axioms-mp"),
    pytest.param("mp-axioms", {"rank": 1e-300}, r"rank \d+ != target \d+", id="mp-axioms-rank"),
    pytest.param("solver-oracle", {"oracle": 1e-300},
                 "trace identity off by .*; determinant identity off by", id="solver-oracle-oracle"),
    pytest.param("oblique-counterexample", {"oracle": 1e-300}, "charpoly roots deviate",
                 id="oblique-counterexample-oracle"),
]


@pytest.mark.parametrize(("suite", "overrides", "note"), OVERRIDE_CASES)
def test_tolerance_override_can_fail_honestly(suite, overrides, note):
    # an absurdly tight tolerance turns rounding into failures, which must be
    # recorded rather than raised.  Each trial is read as the runner checks
    # it: the oblique suite's run reduces its trials to one search record,
    # and its records pass anyway, since a breach is what the search looks for
    records = list(experiments._run_trials(EnsembleSpec(seed=42), suite, range(40),
                                           Tolerances(**overrides)))
    noted = [r for r in records if re.search(note, r.notes)]
    assert noted, f"expected {note!r} at {overrides}"
    assert failed_theorem_records(records) == (noted if suite in THEOREM_SUITES else [])
    assert all(r.passed for r in records if r.suite not in THEOREM_SUITES)
    assert len(records) == 40  # failure isolation: the suite ran to completion


#: the gate each failed record's notes name first, by how its notes start
GATE_NOTES = {
    "RealnessViolation: ": "realness",
    "ClassificationError: ": "zero",
    "NumericalError: inflation routes disagree": "route",
    r"rank \d+ != target \d+": "rank",
    "interlacing violated": "interlace",
    r"pinv\(q\) deviates from adjoint": "unitary_pinv",
    "compression routes deviate": "route",
    "Penrose residual": "mp",
    "eigvals_(general|hermitian) deviates from charpoly roots|trace identity|determinant identity": "oracle",
}


@pytest.mark.parametrize(("suite", "overrides"), [
    *(pytest.param(*case.values[:2], id=case.id) for case in OVERRIDE_CASES),
    pytest.param("interlace-rank-deficient", {"zero": 1e-300}, id="interlace-rank-deficient-zero"),
    pytest.param("interlace-full-rank", {"realness": 1e-18}, id="interlace-full-rank-realness"),
])
def test_failed_records_name_their_gate(monkeypatch, suite, overrides):
    # a failed record's category is the gate its notes name first, readable
    # without parsing them, and a passed record has none.  No gate raises,
    # the theorem path's realness, zero split and route agreement included:
    # with no trial error caught, every failure is still a record
    monkeypatch.setattr(ensembles, "TRIAL_ERRORS", ())
    records = list(experiments._run_trials(EnsembleSpec(seed=42), suite, range(40),
                                           Tolerances(**overrides)))
    failed = [r for r in records if not r.passed]
    assert failed or suite not in THEOREM_SUITES
    for record in failed:
        named = [gate for start, gate in GATE_NOTES.items() if re.match(start, record.notes)]
        assert named == [record.category], record.notes
    assert all(record.category == "" for record in records if record.passed)


def test_failed_records_keep_drawn_dimensions():
    # a realness tolerance below rounding fails trials on their realness gate;
    # their records must still carry the dimensions the trial drew
    for suite in ("interlace-full-rank", "interlace-inflated"):
        default = run_suite(_config(suites=(suite,), trials=20))
        forced = run_suite(_config(suites=(suite,), trials=20,
                                   tolerances=Tolerances(realness=1e-18)))
        failed = [r for r in forced if not r.passed]
        assert failed, suite
        for record in failed:
            assert record.notes.startswith("RealnessViolation")
            expected = default[record.trial_index]
            assert (record.n, record.k, record.l) == (expected.n, expected.k, expected.l)


def test_run_trial_replays_records(monkeypatch):
    spec = EnsembleSpec(seed=42)
    for workers, suite in itertools.product((1, 2), sorted(THEOREM_SUITES)):
        monkeypatch.setattr(experiments, "_cpus", lambda: workers)
        records = run_suite(_config(suites=(suite,), trials=6))
        for index in (0, 2, 5):
            assert run_trial(spec, suite, index) == records[index], (workers, suite, index)
    with pytest.raises(ContractViolation, match="'oblique-counterexample' reduces its trials to one search"):
        run_trial(spec, "oblique-counterexample", 0)
    with pytest.raises(ContractViolation, match=r"unknown suite tag 'bogus'; valid: \['interlace-full-rank'"):
        run_trial(spec, "bogus", 0)
    with pytest.raises(ContractViolation, match=r"unknown suite tag \['subsumption'\]; valid: "):
        run_trial(spec, ["subsumption"], 0)
    with pytest.raises(ContractViolation, match="spec must be of type EnsembleSpec, got None"):
        run_trial(None, "subsumption", 0)
    with pytest.raises(ContractViolation, match="tolerances must be of type Tolerances, got None"):
        run_trial(spec, "subsumption", 0, None)


@pytest.mark.parametrize("trial_index", [True, 2.5, -1])
def test_run_trial_index_is_an_int_from_zero(trial_index):
    # True would replay trial 1 under the index True, and -1 has no seed
    with pytest.raises(ContractViolation, match="trial_index must be an int >= 0"):
        run_trial(EnsembleSpec(seed=42), "subsumption", trial_index)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_tolerances_reject_bools(field, value):
    # True would read as a gate of 1.0
    with pytest.raises(ContractViolation, match=f"tolerance {field} must be finite and > 0"):
        Tolerances(**{field: value})
    # a numpy float is a number, as at every verdict gate
    assert getattr(Tolerances(**{field: np.float32(1e-8)}), field) == np.float32(1e-8)


def test_oblique_witness_default_budget():
    config = ExperimentConfig(
        suites=("oblique-counterexample",),
        ensemble=EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=OBLIQUE_DEFAULT_N,
                              condition_cap=OBLIQUE_DEFAULT_CAP),
        trials=OBLIQUE_DEFAULT_BUDGET,
    )
    witness = counterexample_search(config)
    assert witness is not None
    assert witness.suite == "oblique-counterexample"
    assert witness.notes.startswith("witness:")
    assert witness.worst_residual > 0
    assert witness.n == OBLIQUE_DEFAULT_N


def test_oblique_control_arms_find_nothing():
    config = ExperimentConfig(
        suites=("oblique-counterexample",),
        ensemble=EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=3, condition_cap=OBLIQUE_DEFAULT_CAP),
        trials=300,
    )
    assert counterexample_search(config, control="unitary") is None
    assert counterexample_search(config, control="identity") is None
    with pytest.raises(ContractViolation):
        counterexample_search(config, control="reflection")
    with pytest.raises(ContractViolation, match="config must be of type ExperimentConfig, got None"):
        counterexample_search(None)


def test_oblique_not_found_is_not_failure():
    # a unitary-control run through run_suite records the empty search
    # outcome as a warning-style record, not a theorem failure
    config = ExperimentConfig(
        suites=("oblique-counterexample",),
        ensemble=EnsembleSpec(seed=1, n=2, condition_cap=1.0 + 1e-9,
                              nonunitarity_floor=1.0 + 1e-12),
        trials=5,
    )
    records = run_suite(config)
    assert len(records) == 1
    assert failed_theorem_records(records) == []


def test_trial_record_is_flat():
    # serialization relies on every field being a scalar
    for field in dataclasses.fields(TrialRecord):
        assert field.type in ("str", "int", "bool", "float")


def test_subsumption_trial_factors_q_once(svd_calls):
    # pinv(q) comes from the SVD the pseudo-similarity route already makes
    for index in range(3):
        svd_calls.clear()
        outcome = run_trial(EnsembleSpec(seed=42), "subsumption", index)
        assert outcome.passed
        assert svd_calls == [(outcome.n, outcome.l)]


#: each private body the checks call, with the public function that guards it
GUARDED_BODIES = {
    "_inflate_transform": transforms.inflate_transform,
    "_pseudo_similarity": transforms.pseudo_similarity,
    "_unitary_compression": transforms.unitary_compression,
    "_svd": linalg.svd,
    "_penrose_residuals": linalg.penrose_residuals,
    "_eigvals_general": eigen.eigvals_general,
    "_eigvals_hermitian": eigen.eigvals_hermitian,
    "_characteristic_polynomial": oracles.characteristic_polynomial,
    "_check_interlacing": interlace.check_interlacing,
}


def _bits(value):
    """``value`` as the dtype, shape and bytes of every array it holds and
    the repr of every other field, so equal bits compare equal and a NaN
    equals a NaN."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def _run_recorded(monkeypatch, spec, suite, trials, tolerances, public):
    """The records of a suite's first trials on the runner's chunked path,
    and each call the checks made to a body, with the bits it returned; with
    ``public`` every body is replaced by its public function."""
    calls = []
    for body, guarded in GUARDED_BODIES.items():
        def recorded(*args, body=body, run=guarded if public else getattr(experiments, body)):
            out = run(*args)
            calls.append((body, _bits(out)))
            return out
        monkeypatch.setattr(experiments, body, recorded)
    records = list(experiments._run_trials(spec, suite, range(trials), tolerances))
    return calls, [_bits(record) for record in records]


def test_the_checks_bodies_match_the_public_functions(monkeypatch):
    # the runner skips the guards, not the work: T, the spectra, eta, the
    # margins and every record field come out bit for bit as they do through
    # the public functions, at the default dimensions, at n=64, k=128, l=48
    # and at a rank threshold that truncates the core's SVD
    cases = [(EnsembleSpec(seed=42), suite, 25, Tolerances()) for suite in sorted(THEOREM_SUITES)]
    cases += [(EnsembleSpec(seed=42, n=64, k=128, l=48), "interlace-inflated", 2, Tolerances()),
              (EnsembleSpec(seed=42), "interlace-inflated", 10, Tolerances(rank=1e-10))]
    called = set()
    for spec, suite, trials, tolerances in cases:
        runs = []
        for public in (False, True):
            with monkeypatch.context() as patched:
                runs.append(_run_recorded(patched, spec, suite, trials, tolerances, public))
        assert runs[0] == runs[1], suite
        assert len(runs[0][1]) == trials
        called |= {body for body, _ in runs[0][0]}
    assert called == set(GUARDED_BODIES)


def test_the_runner_validates_once(monkeypatch):
    # EnsembleSpec, Tolerances and ExperimentConfig validate a run before
    # its first trial; no check of a theorem trial passes a guard over an
    # array the runner built.  Each guard is counted where it is looked up
    counted = Counter()
    for module, name in [(linalg, "as_matrix"), (transforms, "as_matrix"), (linalg, "_check_finite"),
                         (transforms, "_require_hermitian"),
                         (transforms, "_require_orthonormal_columns"), (interlace, "_require_sorted")]:
        def counting(*args, key=f"{module.__name__}.{name}", run=getattr(module, name)):
            counted[key] += 1
            return run(*args)
        monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    records = run_suite(_config(suites=tuple(sorted(THEOREM_SUITES)), trials=6))
    assert len(records) == 36 and failed_theorem_records(records) == []
    assert counted == {}
    # the public functions still pass every guard counted above
    transforms.inflate_transform(np.eye(2), np.eye(2, 1), np.eye(2, 1))
    linalg.svd(np.eye(2))
    interlace.check_interlacing([1.0, 2.0], [1.5])
    assert set(counted) == {"pseudosim.linalg.as_matrix", "pseudosim.transforms.as_matrix",
                            "pseudosim.linalg._check_finite", "pseudosim.transforms._require_hermitian",
                            "pseudosim.transforms._require_orthonormal_columns",
                            "pseudosim.interlace._require_sorted"}


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of a few trials each, all checked in this process; returns the
    list to which the trial indices of every checked chunk are appended."""
    chunks = []
    check_chunk = experiments._check_chunk

    def recorded(suite, chunk, tolerances):
        chunks.append([trial.trial_index for trial in chunk])
        return check_chunk(suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 8 * 1024)
    monkeypatch.setattr(experiments, "_check_chunk", recorded)
    return chunks


@pytest.mark.parametrize("suite", sorted(THEOREM_SUITES))
def test_chunked_run_equals_single_trials(small_chunks, suite):
    records = run_suite(_config(suites=(suite,), trials=40))
    assert len(small_chunks) >= 3 and max(map(len, small_chunks)) >= 2, small_chunks
    assert [i for chunk in small_chunks for i in chunk] == list(range(40))
    for index, record in enumerate(records):
        assert run_trial(EnsembleSpec(seed=42), suite, index) == record


def test_default_chunk_bound(monkeypatch):
    # one trial's draws at n = 64, k = 128, l = 48 stay below the bound but
    # two pass it, so every such trial is a chunk of its own.  The next
    # trial, which holds no array, is drawn before the chunk it would take
    # past the bound is checked
    spec, suite = EnsembleSpec(seed=1, n=64, k=128, l=48), "interlace-inflated"
    drawn = _drawn(spec, suite, 0)
    assert drawn.nbytes == 16 * (64 * 64 + 64 * 48 + 48 * 48 + 128 * 48) + 8 * 64
    assert drawn.nbytes <= experiments.CHUNK_BYTES < 2 * drawn.nbytes
    events = []
    draw_trial, check_chunk = experiments._draw_trial, experiments._check_chunk

    def logged_draw(spec, suite, trial_index, *rest):
        events.append(("draw", trial_index))
        return draw_trial(spec, suite, trial_index, *rest)

    def logged_check(suite, chunk, tolerances):
        events.append(("check", [trial.trial_index for trial in chunk]))
        return check_chunk(suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_draw_trial", logged_draw)
    monkeypatch.setattr(experiments, "_check_chunk", logged_check)
    outcomes = list(experiments._run_trials(spec, suite, range(3), Tolerances()))
    assert all(outcome.passed for outcome in outcomes)
    assert events == [("draw", 0), ("draw", 1), ("check", [0]), ("draw", 2), ("check", [1]),
                      ("check", [2])]


@pytest.mark.parametrize("seed", [42, 7])
def test_chunks_fill_to_their_bound(monkeypatch, seed):
    # a checked chunk holds at most CHUNK_BYTES of draws, or is one trial
    # that alone draws more, and each chunk but the last would pass the
    # bound with the next trial's draws
    chunks = []
    check_chunk = experiments._check_chunk

    def recorded(suite, chunk, tolerances):
        chunks.append([(trial.trial_index, trial.nbytes) for trial in chunk])
        return check_chunk(suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_check_chunk", recorded)
    bound, counts = experiments.CHUNK_BYTES, {}
    for suite in sorted(THEOREM_SUITES):
        chunks.clear()
        records = list(experiments._run_trials(EnsembleSpec(seed=seed), suite, range(200), Tolerances()))
        assert len(records) == 200
        counts[suite] = len(chunks)
        assert [i for chunk in chunks for i, _ in chunk] == list(range(200))
        sizes = [sum(nbytes for _, nbytes in chunk) for chunk in chunks]
        assert all(size <= bound or len(chunk) == 1 for size, chunk in zip(sizes, chunks)), suite
        assert all(size + after[0][1] > bound for size, after in zip(sizes, chunks[1:])), suite
    # so the bound is met from below on every suite whose 200 trials draw
    # more than one chunk's worth: all but solver-oracle
    assert [suite for suite, count in counts.items() if count == 1] == ["solver-oracle"], counts


def test_failed_checks_stay_inside_their_trial(small_chunks):
    # RealnessViolation at a realness tolerance below rounding fails all but
    # a few trials of a chunk; the others keep their records
    suite = "interlace-full-rank"
    default = run_suite(_config(suites=(suite,), trials=30))
    small_chunks.clear()
    forced = run_suite(_config(suites=(suite,), trials=30, tolerances=Tolerances(realness=1e-18)))
    assert any(len({forced[i].passed for i in chunk}) == 2 for chunk in small_chunks), small_chunks
    for record, expected in zip(forced, default):
        if record.passed:
            assert record == expected
        else:
            assert record.notes.startswith("RealnessViolation")
            assert (record.n, record.k, record.l) == (expected.n, expected.k, expected.l)


def test_failed_draws_stay_inside_their_trial(small_chunks, monkeypatch):
    # a draw that raises fails its own trial, with the dimensions it drew
    suite = "interlace-rank-deficient"
    default = run_suite(_config(suites=(suite,), trials=30))
    draw_spectrum = experiments.draw_spectrum

    def odd_n_fails(rng, spec, n):
        if n % 2:
            raise NumericalError(f"no spectrum at n = {n}")
        return draw_spectrum(rng, spec, n)

    monkeypatch.setattr(experiments, "draw_spectrum", odd_n_fails)
    small_chunks.clear()
    forced = run_suite(_config(suites=(suite,), trials=30))
    assert any(len({forced[i].n % 2 for i in chunk}) == 2 for chunk in small_chunks), small_chunks
    for record, expected in zip(forced, default):
        if record.n % 2:
            assert not record.passed
            assert record.notes == f"NumericalError: no spectrum at n = {record.n}"
            assert (record.n, record.k, record.l) == (expected.n, expected.k, expected.l)
        else:
            assert record == expected


def test_failed_haar_factor_stays_inside_its_trial(small_chunks, monkeypatch):
    # a QR that raises fails the trial whose Gaussian it factors; the other
    # trials of its chunk keep their factors and their records
    suite = "interlace-rank-deficient"
    default = run_suite(_config(suites=(suite,), trials=30))
    unlucky = _gaussian(_drawn(EnsembleSpec(seed=42), suite, 7).drawn[2])
    haar_columns = ensembles.haar_columns

    def fails_on_one(stack):
        if any(np.array_equal(g, unlucky) for g in stack):
            raise np.linalg.LinAlgError("no QR")
        return haar_columns(stack)

    monkeypatch.setattr(ensembles, "haar_columns", fails_on_one)
    small_chunks.clear()
    forced = run_suite(_config(suites=(suite,), trials=30))
    assert any(7 in chunk and len(chunk) > 1 for chunk in small_chunks), small_chunks
    assert [record.trial_index for record in forced if not record.passed] == [7]
    assert forced[7].notes == "LinAlgError: no QR" and forced[7].category == "error"
    assert forced[:7] + forced[8:] == default[:7] + default[8:]


def test_chunk_frees_words_before_its_check(monkeypatch):
    # a drawn chunk holds no Gaussian array, only where each Gaussian starts;
    # once its members are built, the Gaussian stacks and the Haar factors
    # made from them are gone: the check runs without them, since a member
    # that is a factor, V or Q, owns its array
    stacks, factors = [], []

    def tracked(make, refs):
        def tracking(*args):
            out = make(*args)
            refs.append(weakref.ref(out))
            return out
        return tracking

    monkeypatch.setattr(ensembles, "complex_normal_stack",
                        tracked(ensembles.complex_normal_stack, stacks))
    monkeypatch.setattr(ensembles, "haar_columns", tracked(ensembles.haar_columns, factors))
    alive = []

    def counted(check):
        def counting(trial, tolerances):
            alive.append(sum(ref() is not None for ref in stacks + factors))
            return check(trial, tolerances)
        return counting

    # Gaussians per trial: P's factor and H's two, then V's too; P's and Q
    gaussians = {"interlace-full-rank": 3, "interlace-rank-deficient": 4, "interlace-inflated": 4,
                 "subsumption": 2}
    for suite, per_trial in gaussians.items():
        chunk = [_drawn(EnsembleSpec(seed=42), suite, i) for i in range(4)]
        recorded = [g for trial in chunk for d in trial.drawn if isinstance(d, Draw) for g in d.gaussians]
        assert len(recorded) == 4 * per_trial, suite
        assert all(type(start) is int and all(type(side) is int for side in shape)
                   for start, shape in recorded)
        assert not any(isinstance(v, np.ndarray) and v.dtype.kind == "c"
                       for trial in chunk for v in trial.drawn)
        dims, draw, check = experiments._SUITE_TABLE[suite]
        monkeypatch.setitem(experiments._SUITE_TABLE, suite, (dims, draw, counted(check)))
        del stacks[:], factors[:], alive[:]
        outcomes = list(experiments._check_chunk(suite, chunk, Tolerances()))
        assert len(stacks) == len(factors) >= 3 and alive == [0] * 4, suite
        assert all(outcome.passed for outcome in outcomes)


def _watched_members(monkeypatch, suites):
    """Per suite, its first 200 records at seed 42, the members its checks
    received and the most members of earlier trials alive at one check.  A
    member is a complex ndarray a check receives: P, H, V, Q or the Penrose
    matrix, of which each check takes a weakref."""
    refs, peaks = [], Counter()

    def counted(check):
        def counting(trial, tolerances):
            peaks[trial.suite] = max(peaks[trial.suite], sum(ref() is not None for ref in refs))
            refs.extend(weakref.ref(v) for v in trial.drawn
                        if isinstance(v, np.ndarray) and v.dtype.kind == "c")
            return check(trial, tolerances)
        return counting

    watched = {}
    for suite in suites:
        dims, draw, check = experiments._SUITE_TABLE[suite]
        monkeypatch.setitem(experiments._SUITE_TABLE, suite, (dims, draw, counted(check)))
        refs.clear()
        records = list(experiments._run_trials(EnsembleSpec(seed=42), suite, range(200), Tolerances()))
        watched[suite] = records, len(refs), peaks[suite]
    return watched


def test_checked_trials_release_their_members(monkeypatch):
    # a trial takes its built members when its check starts and lets them
    # go once it is checked: at no check of a chunk is a member of an
    # earlier trial, P, H, V, Q or the Penrose matrix, still alive
    suites = ("interlace-full-rank", "interlace-rank-deficient", "interlace-inflated", "subsumption",
              "mp-axioms")
    watched = _watched_members(monkeypatch, suites)
    for suite, (records, members, _) in watched.items():
        assert len(records) == 200 and all(record.passed for record in records), suite
        assert members >= 200, suite
    peaks = {suite: peak for suite, (_, _, peak) in watched.items()}
    assert peaks == dict.fromkeys(suites, 0), peaks


def test_failed_trials_release_their_chunk(monkeypatch):
    # an error is kept without its traceback, whose frames would hold the
    # chunk's members in a reference cycle with the error: with the cyclic
    # collector off, no member of an earlier trial is alive at a later check
    # when a stacked QR raises, or P's build raises on odd n
    unlucky = _gaussian(_drawn(EnsembleSpec(seed=42), "interlace-rank-deficient", 7).drawn[2])
    haar_columns, draw_hermitian = ensembles.haar_columns, experiments.draw_hermitian

    def fails_on_one(stack):
        if any(np.array_equal(g, unlucky) for g in stack):
            raise np.linalg.LinAlgError("no QR")
        return haar_columns(stack)

    def no_p_at_odd_n(rng, lam):
        def fails(u):
            raise NumericalError(f"no P at n = {lam.size}")
        p = draw_hermitian(rng, lam)
        return dataclasses.replace(p, build=fails) if lam.size % 2 else p

    gc.disable()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(ensembles, "haar_columns", fails_on_one)
            qr = _watched_members(patched, ("interlace-rank-deficient",))
        with monkeypatch.context() as patched:
            patched.setattr(experiments, "draw_hermitian", no_p_at_odd_n)
            build = _watched_members(patched, ("interlace-full-rank", "interlace-rank-deficient",
                                               "subsumption"))
    finally:
        gc.enable()
    records, _, peak = qr["interlace-rank-deficient"]
    assert [r.trial_index for r in records if not r.passed] == [7] and peak == 0, peak
    for suite, (records, _, peak) in build.items():
        failed = [r for r in records if not r.passed]
        assert failed == [r for r in records if r.n % 2] and failed, suite
        assert all(r.notes == f"NumericalError: no P at n = {r.n}" for r in failed), suite
        assert peak == 0, (suite, peak)


def test_failed_notes_are_one_line():
    # numpy wraps a long array in an error message, as RealnessViolation
    # prints its offenders at a strong condition cap: a failed record's notes
    # keep it on one line, so each record is one line of a table or CSV.
    # Here 13 trials fail on realness, and numpy wraps 9 of their offenders
    records = run_suite(_config(suites=("interlace-inflated",), trials=20,
                                ensemble=EnsembleSpec(seed=42, condition_cap=1e8)))
    assert sum(r.notes.startswith("RealnessViolation") for r in records) >= 9
    assert not any("\n" in r.notes for r in records)
    rows, _ = render(records, "table").split("\n\n")
    assert len(rows.splitlines()) == 1 + len(records)
    assert len(render(records, "csv").splitlines()) == 1 + len(records)


def test_chunks_factor_their_gaussians_one_qr_per_shape(monkeypatch, qr_calls):
    # every suite at 40 trials draws 622 Gaussians, which the chunks factor
    # as stacks, one per shape: one QR call per Gaussian would make 622
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run_suite(_config(trials=40))
    assert all(len(shape) == 3 for shape in qr_calls)
    assert sum(shape[0] for shape in qr_calls) == 622
    assert len(qr_calls) == 250


ORACLE = "solver-oracle"


def _oracle_records():
    """The first 20 solver-oracle records at seed 42: one chunk whose charpoly
    stacks hold 3 to 9 trials each (n = 2, 3, 4)."""
    return run_suite(_config(suites=(ORACLE,), trials=20))


def _oracle_g(trial_index):
    return _gaussian(_drawn(EnsembleSpec(seed=42), ORACLE, trial_index).drawn[0])


def _only_trial_failed(forced, default, trial_indices, notes):
    """Records of forced equal the default ones but on the given trials, which
    failed with the given notes and the default dimensions."""
    assert trial_indices
    for record, expected in zip(forced, default, strict=True):
        if record.trial_index in trial_indices:
            assert not record.passed and record.notes == notes
            assert (record.n, record.k, record.l) == (expected.n, expected.k, expected.l)
        else:
            assert record == expected


def test_unsettled_root_fails_only_its_trial(monkeypatch):
    # trial 10 (n = 3) gets the polynomial (z - 1)^3, which the iteration
    # cannot settle; the other trials of its stack keep their records
    default = _oracle_records()
    target = _oracle_g(10)
    assert target.shape == (3, 3)
    charpoly = experiments._characteristic_polynomial

    def triple_root_for_target(m):
        coeffs = charpoly(m)
        if m.shape[-1] == 3:
            coeffs[[np.array_equal(x, target) for x in m]] = [1.0, -3.0, 3.0, -1.0]
        return coeffs

    monkeypatch.setattr(experiments, "_characteristic_polynomial", triple_root_for_target)
    _only_trial_failed(_oracle_records(), default, {10},
                       "NumericalError: root iteration did not settle for degree 3")


def test_stacked_eigensolve_error_fails_only_its_trial(monkeypatch):
    # LAPACK failing on one matrix fails the stacked call; only the trial
    # that owns the matrix fails
    default = _oracle_records()
    target = _oracle_g(4)
    eigvals = np.linalg.eigvals

    def fails_on_target(a):
        if any(np.array_equal(m, target) for m in a.reshape(-1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("forced")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", fails_on_target)
    _only_trial_failed(_oracle_records(), default, {4},
                       "NumericalError: general eigensolver did not converge: forced")


def test_failed_oracle_records_carry_the_drawn_k(monkeypatch):
    # a failure after the draw keeps the side of the trace/determinant matrix
    # as k, as a passed record does
    default = _oracle_records()
    det = np.linalg.det

    def no_5x5(a):
        if a.shape[-1] == 5:
            raise np.linalg.LinAlgError("forced")
        return det(a)

    monkeypatch.setattr(np.linalg, "det", no_5x5)
    _only_trial_failed(_oracle_records(), default,
                       {r.trial_index for r in default if r.k == 5}, "LinAlgError: forced")


def test_failed_oblique_record_carries_the_drawn_selection(monkeypatch):
    # a trial whose check raises keeps the size of the selection it drew as
    # k = l, as a checked record does
    spec = EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=OBLIQUE_DEFAULT_N,
                        condition_cap=OBLIQUE_DEFAULT_CAP)
    suite = "oblique-counterexample"
    default = list(experiments._run_trials(spec, suite, range(20), Tolerances()))
    assert {(r.n, r.k, r.l) for r in default} == {(3, 1, 1), (3, 2, 2)}

    def no_transform(p, x, selection):
        raise NumericalError("forced")

    monkeypatch.setattr(experiments, "oblique_transform", no_transform)
    forced = list(experiments._run_trials(spec, suite, range(20), Tolerances()))
    assert all(not r.passed and r.notes == "NumericalError: forced" for r in forced)
    assert [(r.n, r.k, r.l) for r in forced] == [(r.n, r.k, r.l) for r in default]


@pytest.mark.parametrize("seed, md5", [(3, "7a887ffabdcc7f4d384d53299e54a976"),
                                       (9, "56d41e5a57a0755ead699865bbc2fdf6")])
def test_solver_oracle_csv_digest(tmp_path, seed, md5):
    # 1000 trials through the stacked checks give the CSV of the one trial
    # at a time check, byte for byte (numpy 2.4.6; the digest does not depend
    # on the BLAS thread count)
    out = tmp_path / "oracle.csv"
    assert main(["--suite", ORACLE, "--trials", "1000", "--seed", str(seed),
                 "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


OBLIQUE_DIGESTS = [
    # trials 36, 37, 38, 40 and 42 violate the run's tolerances but not 10x
    # them; the witness is trial 43
    ("seed = 1\nn = 3\ncondition_cap = 1.5\nnonunitarity_floor = 1.5\n"
     "[tolerances]\ninterlace = 0.03\nrealness = 0.03\n", "4fe9349ba3ab9f199ff9f82cc363657c"),
    # the documented witness
    ("seed = 7\nn = 3\ncondition_cap = 100\n", "7d308cd94f2b7862e24f0831d3ec2e3d"),
    # no witness in 1000 draws
    ("seed = 7\nn = 3\ncondition_cap = 1.00000001\nnonunitarity_floor = 1.000000001\n",
     "6fa262bd90be784f092827c1d9b024cc"),
]


@pytest.mark.parametrize("ensemble, md5", OBLIQUE_DIGESTS, ids=["rejected-then-found", "documented", "none"])
def test_oblique_search_csv_digest(tmp_path, ensemble, md5):
    # the search's record, byte for byte (numpy 2.4.6; the digest does not
    # depend on the BLAS thread count)
    config, out = tmp_path / "oblique.ini", tmp_path / "oblique.csv"
    config.write_text("[ensemble]\n" + ensemble, encoding="utf-8")
    assert main(["--config", str(config), "--suite", "oblique-counterexample", "--trials", "1000",
                 "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == md5


def test_clustered_oblique_block_settles_loosely():
    # trial 0's violating 3 x 3 block at seed 298 (n = 4, cap 2.5) has
    # clustered roots that the iteration cannot bring within 1e-14 of their
    # scale; its last correction is within 1e-10, so the roots come back, and
    # they match the eigensolver's spectrum within the oracle tolerance
    spec = EnsembleSpec(seed=298, n=4, condition_cap=2.5)
    lam, p, x, sel = _drawn(spec, "oblique-counterexample", 0).drawn
    p, x = p.built(), x.built()
    t = oblique_transform(p, x, sel)
    assert t.shape == (3, 3)
    roots = polynomial_roots(characteristic_polynomial(t))
    assert match_distance(eigvals_general(t), roots) <= Tolerances().oracle * spectral_scale(lam)


def test_oblique_rejections_are_reverified_failures():
    # at loose tolerances trials 36-42 violate but fail the 10x tighter
    # re-run (39 and 41 do not violate at all); trial 43 is the witness
    spec = EnsembleSpec(seed=1, n=3, condition_cap=1.5, nonunitarity_floor=1.5)
    loose = Tolerances(interlace=0.03, realness=0.03)
    strict = dataclasses.replace(loose, interlace=0.3, realness=0.3)

    def magnitude(trial_index, tols):
        outcomes = experiments._run_trials(spec, "oblique-counterexample", (trial_index,), tols)
        return next(outcomes).worst_residual

    violating = [i for i in range(44) if magnitude(i, loose) > 0]
    assert violating[-6:] == [36, 37, 38, 40, 42, 43]
    assert [i for i in violating if magnitude(i, strict) > 0][0] == 43
    config = ExperimentConfig(suites=("oblique-counterexample",), ensemble=spec, trials=1000,
                              tolerances=loose)
    assert counterexample_search(config).trial_index == 43


def test_nan_root_fails_a_solver_oracle_trial(monkeypatch):
    # a NaN root matches nothing: its trial fails, not passes by a distance
    # that dropped it
    roots = experiments.polynomial_roots

    def with_nan(coefficients):
        found = roots(coefficients).copy()
        found[..., 0] = np.nan
        return found

    monkeypatch.setattr(experiments, "polynomial_roots", with_nan)
    records = run_suite(_config(suites=(ORACLE,), trials=3))
    assert [r.passed for r in records] == [False] * 3
    assert all("deviates from charpoly roots by nan" in r.notes for r in records)
    assert all(np.isnan(r.worst_residual) for r in records)


def test_nan_residual_fails_an_mp_axioms_trial(monkeypatch):
    # a NaN Penrose residual is the trial's worst, not one that max dropped
    monkeypatch.setattr(experiments, "_penrose_residuals",
                        lambda m, pinv: (1e-16, np.nan, 1e-16, 1e-16))
    records = run_suite(_config(suites=("mp-axioms",), trials=3))
    assert [r.passed for r in records] == [False] * 3
    assert all(r.notes.endswith("Penrose residual nan > 1.0e-08 (p m p = p)") for r in records)
    assert all(np.isnan(r.worst_residual) for r in records)


def test_oblique_search_draws_each_trial_once(monkeypatch):
    # the search runs each trial once, at the tightened tolerances, and
    # stops at the first that violates them
    drawn = []
    draw_trial = experiments._draw_trial

    def logged_draw(spec, suite, trial_index, *rest):
        drawn.append(trial_index)
        return draw_trial(spec, suite, trial_index, *rest)

    monkeypatch.setattr(experiments, "_draw_trial", logged_draw)
    witness = counterexample_search(ExperimentConfig(
        suites=("oblique-counterexample",), trials=OBLIQUE_DEFAULT_BUDGET,
        ensemble=EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=OBLIQUE_DEFAULT_N,
                              condition_cap=OBLIQUE_DEFAULT_CAP)))
    assert drawn == list(range(witness.trial_index + 1))
    drawn.clear()
    witness, = run_suite(_config(suites=("oblique-counterexample",), trials=200))
    assert witness.notes.startswith("witness:") and drawn == list(range(witness.trial_index + 1))


@pytest.mark.parametrize("spec, tols", [
    (EnsembleSpec(seed=42), Tolerances()),
    (EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=OBLIQUE_DEFAULT_N, condition_cap=OBLIQUE_DEFAULT_CAP),
     Tolerances()),
    (EnsembleSpec(seed=1, n=3, condition_cap=1.5, nonunitarity_floor=1.5),
     Tolerances(interlace=0.03, realness=0.03)),
], ids=["default", "documented", "near-unitary"])
def test_oblique_violation_when_tightened_is_one_at_the_run_tolerances(spec, tols):
    # so the search's one pass at the tightened tolerances finds a witness
    # that violates the run's own as well
    tightened = dataclasses.replace(tols, interlace=experiments.WITNESS_TIGHTEN * tols.interlace,
                                    realness=experiments.WITNESS_TIGHTEN * tols.realness)
    loose, strict = (list(experiments._run_trials(spec, "oblique-counterexample", range(300), t))
                     for t in (tols, tightened))
    violating = [i for i, record in enumerate(strict) if record.worst_residual > 0]
    assert violating
    assert all(loose[i].worst_residual > 0 for i in violating)
