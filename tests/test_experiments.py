import dataclasses
import hashlib
import weakref

import numpy as np
import pytest

import pseudosim.experiments as experiments
from pseudosim.cli import main
from pseudosim.eigen import eigvals_general, match_distance, spectral_scale
from pseudosim.ensembles import EnsembleSpec
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.experiments import (
    OBLIQUE_DEFAULT_BUDGET,
    OBLIQUE_DEFAULT_CAP,
    OBLIQUE_DEFAULT_N,
    OBLIQUE_DEFAULT_SEED,
    SUITES,
    THEOREM_SUITES,
    ExperimentConfig,
    Tolerances,
    TrialRecord,
    counterexample_search,
    failed_theorem_records,
    run_suite,
    run_trial,
    trial_seed,
)
from pseudosim.oracles import charpoly_eigenvalues
from pseudosim.rng import derive_seed
from pseudosim.transforms import oblique_transform


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
        _config(format="yaml")
    with pytest.raises(ContractViolation):
        _config(suites=())


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


def test_tolerance_override_can_fail_honestly():
    # an absurdly tight interlacing tolerance turns rounding into failures,
    # which must be recorded rather than raised
    config = _config(suites=("interlace-full-rank",), trials=20,
                     tolerances=Tolerances(interlace=1e-18))
    records = run_suite(config)
    failed = failed_theorem_records(records)
    assert failed, "expected rounding-level failures at tol 1e-18"
    assert all("interlacing violated" in r.notes for r in failed)
    assert len(records) == 20  # failure isolation: the suite ran to completion


def test_failed_records_keep_drawn_dimensions():
    # a realness tolerance below rounding makes trials raise RealnessViolation;
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


def test_run_trial_replays_records():
    spec = EnsembleSpec(seed=42)
    for suite in sorted(THEOREM_SUITES):
        records = run_suite(_config(suites=(suite,), trials=6))
        for index in (0, 2, 5):
            outcome = run_trial(spec, suite, index)
            assert outcome.record(suite, index, trial_seed(42, suite, index)) == records[index]
    with pytest.raises(ContractViolation):
        run_trial(spec, "oblique-counterexample", 0)


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


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of a few trials each, all checked in this process; returns the
    list to which the trial indices of every checked chunk are appended."""
    chunks = []
    check_chunk = experiments._check_chunk

    def recorded(spec, suite, chunk, tolerances):
        chunks.append([trial.trial_index for trial in chunk])
        return check_chunk(spec, suite, chunk, tolerances)

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
        outcome = run_trial(EnsembleSpec(seed=42), suite, index)
        assert outcome.record(suite, index, trial_seed(42, suite, index)) == record


def test_default_chunk_bound(monkeypatch):
    # one trial's draws at n = 64, k = 128, l = 48 reach the bound alone, so
    # every such trial is a chunk of its own, checked before the next draw
    spec, suite = EnsembleSpec(seed=1, n=64, k=128, l=48), "interlace-inflated"
    drawn = experiments._draw_trial(spec, suite, 0)
    assert drawn.nbytes == 16 * (64 * 64 + 64 * 48 + 48 * 48 + 128 * 48) + 8 * 64
    assert drawn.nbytes >= experiments.CHUNK_BYTES
    events = []
    draw_trial, check_chunk = experiments._draw_trial, experiments._check_chunk

    def logged_draw(*args):
        events.append("draw")
        return draw_trial(*args)

    def logged_check(spec, suite, chunk, tolerances):
        events.append("check")
        return check_chunk(spec, suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_draw_trial", logged_draw)
    monkeypatch.setattr(experiments, "_check_chunk", logged_check)
    outcomes = list(experiments._run_trials(spec, suite, range(3), Tolerances()))
    assert all(outcome.passed for outcome in outcomes)
    assert events == ["draw", "check"] * 3


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


def test_chunk_frees_words_before_its_check(monkeypatch):
    # once a chunk's Haar factors are made, its draws' Gaussians are gone:
    # the check runs without them
    suite = "interlace-rank-deficient"
    spec = EnsembleSpec(seed=42)
    chunk = [experiments._draw_trial(spec, suite, i) for i in range(4)]
    gaussians = [weakref.ref(g) for trial in chunk for d in trial.draws for g in d.gaussians]
    alive = []
    dims, draw, check = experiments._SUITE_TABLE[suite]

    def counted(spec, trials, tolerances):
        alive.append(sum(ref() is not None for ref in gaussians))
        return check(spec, trials, tolerances)

    monkeypatch.setitem(experiments._SUITE_TABLE, suite, (dims, draw, counted))
    outcomes = experiments._check_chunk(spec, suite, chunk, Tolerances())
    assert len(gaussians) == 16 and alive == [0] and chunk == []
    assert all(outcome.passed for outcome in outcomes)


ORACLE = "solver-oracle"


def _oracle_records():
    """The first 20 solver-oracle records at seed 42: one chunk whose charpoly
    stacks hold 3 to 9 trials each (n = 2, 3, 4)."""
    return run_suite(_config(suites=(ORACLE,), trials=20))


def _oracle_g(trial_index):
    return experiments._draw_trial(EnsembleSpec(seed=42), ORACLE, trial_index).drawn[0]


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
    charpoly = experiments.characteristic_polynomial

    def triple_root_for_target(m):
        coeffs = charpoly(m)
        if m.shape[-1] == 3:
            coeffs[[np.array_equal(x, target) for x in m]] = [1.0, -3.0, 3.0, -1.0]
        return coeffs

    monkeypatch.setattr(experiments, "characteristic_polynomial", triple_root_for_target)
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
    # re-verification at 10x tolerances rejects trials 36, 37, 38, 40 and 42;
    # the witness is trial 43
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
    trial, = experiments._built([experiments._draw_trial(spec, "oblique-counterexample", 0)])
    lam, p, x, sel = trial.drawn
    t = oblique_transform(p, x, sel).transformed
    assert t.shape == (3, 3)
    roots = charpoly_eigenvalues(t)
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
