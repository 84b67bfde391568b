"""Acceptance gate: one test per shipped claim, at the shipped tolerances.

Each test prints a single PASS line (visible with -s, or via -v test status)
so a full run reads as a checklist.  Criteria 1-3 share one seeded corpus of
1000 transform trials, built once per session.
"""
import subprocess
import sys
import time

import pytest

from pseudosim import EnsembleSpec
from pseudosim.experiments import (
    OBLIQUE_DEFAULT_N,
    SUITES,
    ExperimentConfig,
    Tolerances,
    counterexample_search,
    failed_theorem_records,
    run_suite,
    run_trial,
)

MASTER_SEED = 42
FULL_RANK_TRIALS = 500
DEFICIENT_TRIALS = 250  # per deficient/inflated arm; 500 combined
#: the shipped tolerances the corpus is judged at, pinned here so the gate
#: does not move with the runner's defaults
GATE_TOLERANCES = Tolerances(interlace=1e-7, zero=1e-7, realness=1e-8)

#: the documented oblique search: seed, condition cap of X and trial budget
OBLIQUE_DEFAULT_SEED = 7
OBLIQUE_DEFAULT_CAP = 100.0
OBLIQUE_DEFAULT_BUDGET = 1000


@pytest.fixture(scope="session")
def corpus():
    """Outcomes of the runner's own trials, by suite, and the full-rank time."""
    spec = EnsembleSpec(seed=MASTER_SEED)
    start = time.perf_counter()
    outcomes = {"interlace-full-rank": [run_trial(spec, "interlace-full-rank", idx, GATE_TOLERANCES)
                                        for idx in range(FULL_RANK_TRIALS)]}
    full_rank_elapsed = time.perf_counter() - start
    for suite in ("interlace-rank-deficient", "interlace-inflated"):
        outcomes[suite] = [run_trial(spec, suite, idx, GATE_TOLERANCES)
                           for idx in range(DEFICIENT_TRIALS)]
    return outcomes, full_rank_elapsed


def test_criterion_1_full_rank_interlacing(corpus):
    outcomes, elapsed = corpus
    full = outcomes["interlace-full-rank"]
    assert len(full) >= 500
    assert all(2 <= r.n <= 16 and 1 <= r.l <= r.n for r in full)
    failures = [r for r in full if not r.passed]
    assert not failures, f"{len(failures)} of {len(full)} trials violated interlacing"
    assert elapsed < 10.0, f"500 full-rank trials took {elapsed:.2f}s"
    print(f"\ncriterion 1 PASS: {len(full)}/{len(full)} full-rank trials "
          f"interlace at 1e-7 x scale in {elapsed:.2f}s")


def test_criterion_2_rank_deficient_and_inflated(corpus):
    outcomes, _ = corpus
    deficient = outcomes["interlace-rank-deficient"] + outcomes["interlace-inflated"]
    assert len(deficient) >= 500
    assert any(r.k > r.n for r in deficient), "inflation cases missing"
    assert all(r.l < min(r.n, r.k) for r in deficient)
    bad_zero = [r for r in deficient if r.zeros != r.k - r.l]
    bad_route = [r for r in deficient if r.route_dev > 1e-8]
    bad_interlace = [r for r in deficient if not r.passed]
    assert not bad_zero, f"{len(bad_zero)} trials with wrong structural-zero count"
    assert not bad_route, f"{len(bad_route)} trials with route deviation > 1e-8"
    assert not bad_interlace, f"{len(bad_interlace)} trials violated interlacing"
    print(f"\ncriterion 2 PASS: {len(deficient)}/{len(deficient)} trials with exactly "
          f"K-L zeros, routes within 1e-8, nonzero eigenvalues interlacing")


def test_criterion_3_realness_and_nonhermiticity(corpus):
    outcomes, _ = corpus
    rows = [r for suite_outcomes in outcomes.values() for r in suite_outcomes]
    worst_imag = max(r.rel_imag for r in rows)
    assert worst_imag <= 1e-8, f"max relative imaginary part {worst_imag:.3e}"
    # 1 x 1 transforms are Hermitian by construction, and orthonormal-up-to-
    # scale h makes the transform Hermitian exactly; the non-Hermiticity
    # claim is about the remaining (generic) draws
    eligible = [r for r in rows if r.l >= 2 and r.cond_h > 1 + 1e-6]
    assert len(eligible) >= 300
    frac = sum(not r.hermitian for r in eligible) / len(eligible)
    assert frac >= 0.90, f"only {frac:.1%} of generic trials were non-Hermitian"
    print(f"\ncriterion 3 PASS: realness <= {worst_imag:.2e} across {len(rows)} spectra; "
          f"{frac:.1%} of {len(eligible)} generic trials non-Hermitian")


def test_criterion_4_subsumption():
    config = ExperimentConfig(suites=("subsumption",), ensemble=EnsembleSpec(seed=MASTER_SEED),
                              trials=200)
    records = run_suite(config)
    assert len(records) == 200
    assert not failed_theorem_records(records)
    worst = max(r.worst_residual for r in records)
    assert worst <= 1e-9
    print(f"\ncriterion 4 PASS: 200/200 unitary compressions, pinv(Q)=Q^H within 1e-10, "
          f"routes within 1e-9 (worst {worst:.2e})")


def test_criterion_5_oblique_counterexample():
    config = ExperimentConfig(
        suites=("oblique-counterexample",),
        ensemble=EnsembleSpec(seed=OBLIQUE_DEFAULT_SEED, n=OBLIQUE_DEFAULT_N,
                              condition_cap=OBLIQUE_DEFAULT_CAP),
        trials=OBLIQUE_DEFAULT_BUDGET,
    )
    witness = counterexample_search(config)
    assert witness is not None, "no interlacing violation found in the documented budget"
    assert witness.worst_residual > 0
    assert counterexample_search(config, control="unitary") is None
    assert counterexample_search(config, control="identity") is None
    print(f"\ncriterion 5 PASS: witness at trial {witness.trial_index} "
          f"(seed {witness.seed}, {witness.notes}); control arms clean")


def test_criterion_6_solver_oracles():
    config = ExperimentConfig(suites=("solver-oracle",), ensemble=EnsembleSpec(seed=MASTER_SEED),
                              trials=200)
    records = run_suite(config)
    assert len(records) == 200
    assert not failed_theorem_records(records)
    worst = max(r.worst_residual for r in records)
    assert worst <= 1e-6
    print(f"\ncriterion 6 PASS: 200/200 solver trials match charpoly roots (n<=4) and "
          f"trace/det identities (n<=6) within 1e-6 (worst {worst:.2e})")


def test_criterion_7_moore_penrose_axioms():
    config = ExperimentConfig(suites=("mp-axioms",), ensemble=EnsembleSpec(seed=MASTER_SEED),
                              trials=504)  # multiple of the 6-shape cycle
    records = run_suite(config)
    assert len(records) >= 500
    assert not failed_theorem_records(records)
    worst = max(r.worst_residual for r in records)
    assert worst <= 1e-8
    print(f"\ncriterion 7 PASS: {len(records)} matrices across full/deficient x "
          f"tall/wide/square satisfy all four axioms within 1e-8 (worst {worst:.2e})")


def test_criterion_8_reproducible_csv(tmp_path):
    config_path = tmp_path / "acceptance.ini"
    config_path.write_text(
        "[run]\nsuites = " + ", ".join(SUITES) + "\ntrials = 40\n\n"
        "[ensemble]\nseed = 42\n\n[output]\nformat = csv\n",
        encoding="utf-8",
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pseudosim.cli",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode("utf-8").count("\n")
    print(f"\ncriterion 8 PASS: two CLI runs produced byte-identical csv ({lines} lines)")
