"""The benchmark's workloads: which suites run, at which trial counts and
dimensions.  Importing this module imports nothing from pseudosim or numpy, so
the parent process stays light and its children own every heavy import.

Trial seeds depend only on a suite's position in ``pseudosim.SUITES``, so
running one suite at a time records the same trials as running them together;
that is what makes the per-suite timings exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

ALL_SUITES = ("interlace-full-rank", "interlace-rank-deficient", "interlace-inflated",
              "subsumption", "oblique-counterexample", "mp-axioms", "solver-oracle")
THEOREM_SUITES = tuple(s for s in ALL_SUITES if s != "oblique-counterexample")

#: metric suffix of each suite in ``ms_per_trial.<suffix>``
SUITE_METRIC = {
    "interlace-full-rank": "full-rank",
    "interlace-rank-deficient": "rank-deficient",
    "interlace-inflated": "inflated",
    "subsumption": "subsumption",
    "mp-axioms": "mp-axioms",
    "solver-oracle": "solver-oracle",
}

#: master seed of the reference digests; also the CLI's default seed
REFERENCE_SEED = 42

#: a block of passes stops starting new ones after its time is up, but never
#: before this many of each kind (untraced, traced) have run
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple[str, ...]
    trials: int            # trials per suite in one pass
    smoke_trials: int      # trials per suite in the smoke test
    dims: dict = field(default_factory=dict)
    cli: bool = False      # each pass is a fresh ``pseudosim`` process

    def theorem_trials(self, smoke: bool = False) -> int:
        trials = self.smoke_trials if smoke else self.trials
        return trials * sum(s in THEOREM_SUITES for s in self.suites)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cli-default",
        why="the run users type: interpreter start, import pseudosim, 7 suites x 200 "
            "trials and CSV serialisation, one fresh process per pass",
        suites=ALL_SUITES, trials=200, smoke_trials=4, cli=True),
    Workload(
        name="theorem-small",
        why="the four theorem suites in-process at the default random dimensions "
            "(n <= 16, k <= 24), where Python overhead per call dominates LAPACK",
        suites=("interlace-full-rank", "interlace-rank-deficient",
                "interlace-inflated", "subsumption"),
        trials=50, smoke_trials=3),
    Workload(
        name="theorem-large",
        why="interlace-inflated in-process at n=64, k=128, l=48, where LAPACK "
            "(eigvals and SVDs) takes most of the time and every trial has one shape",
        suites=("interlace-inflated",), trials=6, smoke_trials=2,
        dims={"n": 64, "k": 128, "l": 48}),
    Workload(
        name="oracle-axioms",
        why="mp-axioms and solver-oracle in-process: the only workload where the "
            "polynomial-root oracle works, and linalg on wide rank-deficient shapes",
        suites=("mp-axioms", "solver-oracle"), trials=75, smoke_trials=6),
)}


def setup_code(workload: Workload, seed: int, out_path: str, smoke: bool) -> str:
    """Python source that imports pseudosim and builds the workload's config:
    the work ``setup_s`` times, from interpreter start to a built config."""
    if workload.cli:
        argv = cli_args(workload, seed, out_path, smoke)
        return ("import pseudosim.cli as c\n"
                f"c.build_config(None, c.make_parser().parse_args({argv!r}))\n")
    trials = workload.smoke_trials if smoke else workload.trials
    return ("import pseudosim as p\n"
            f"p.ExperimentConfig(suites={workload.suites!r}, trials={trials}, "
            f"ensemble=p.EnsembleSpec(seed={seed}, **{workload.dims!r}))\n")


def cli_args(workload: Workload, seed: int, out_path: str, smoke: bool) -> list[str]:
    argv = ["--format", "csv", "--out", out_path, "--seed", str(seed)]
    if smoke:
        argv += ["--trials", str(workload.smoke_trials)]
    return argv
