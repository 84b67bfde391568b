"""run_suite cut into one slice of trials per CPU: the records, the errors and
the processes left behind do not depend on how many slices there are."""
import dataclasses
import os
import signal
import threading

import pytest
from numpy.testing import assert_equal

import pseudosim.experiments as experiments
from pseudosim.cli import main
from pseudosim.ensembles import EnsembleSpec
from pseudosim.errors import ContractViolation
from pseudosim.experiments import RECORD_FIELDS, SUITES, ExperimentConfig, TrialRecord, run_suite

WORKERS = (1, 2, 3)
DIAGNOSTICS = [f.name for f in dataclasses.fields(TrialRecord) if f.name not in RECORD_FIELDS]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(monkeypatch, workers, **kwargs):
    """run_suite's records with the CPU count forced to ``workers``."""
    monkeypatch.setattr(experiments, "_cpus", lambda: workers)
    kwargs.setdefault("suites", SUITES)
    kwargs.setdefault("ensemble", EnsembleSpec(seed=42))
    try:
        return run_suite(ExperimentConfig(**kwargs))
    finally:
        _no_child_left()


def test_cpus_is_the_affinity_mask():
    assert experiments._cpus() == len(os.sched_getaffinity(0))


def test_cpus_is_one_while_another_thread_runs():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert experiments._cpus() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("kwargs", [
    {"trials": 40},
    {"trials": 1},
    {"trials": 2},
    {"suites": ("interlace-inflated",), "trials": 6,
     "ensemble": EnsembleSpec(seed=1, n=64, k=128, l=48)},
], ids=["all-suites-40", "one-trial", "two-trials", "64-128-48"])
def test_records_do_not_depend_on_the_slices(monkeypatch, kwargs):
    serial = _run(monkeypatch, 1, **kwargs)
    assert len(serial) == (kwargs["trials"] if "suites" in kwargs else 6 * kwargs["trials"] + 1)
    for workers in WORKERS[1:]:
        records = _run(monkeypatch, workers, **kwargs)
        assert records == serial, workers
        # records compare without their diagnostics; those must match too,
        # NaN for NaN
        assert_equal(_diagnostics(records), _diagnostics(serial), str(workers))


def _diagnostics(records):
    return [[getattr(record, name) for name in DIAGNOSTICS] for record in records]


def _config_error(monkeypatch, workers, **kwargs):
    with pytest.raises(ContractViolation) as raised:
        _run(monkeypatch, workers, **kwargs)
    return str(raised.value)


@pytest.mark.parametrize("seed, suites, message", [
    # trial 25 alone cannot draw n >= 4: it lies in a child's slice
    (134, ("interlace-full-rank",), "interlace-full-rank needs l <= n; got n = 2, l = 4"),
    # trials 10 and 27 cannot: the first slice's error comes first
    (41, ("interlace-full-rank",), "interlace-full-rank needs l <= n; got n = 3, l = 4"),
    # the first suite's error comes first, though a later suite's (subsumption
    # trial 1) lies in the first slice
    (134, ("mp-axioms", "interlace-full-rank", "subsumption"),
     "interlace-full-rank needs l <= n; got n = 2, l = 4"),
])
def test_config_errors_keep_their_serial_order(monkeypatch, seed, suites, message):
    kwargs = {"suites": suites, "trials": 40, "ensemble": EnsembleSpec(seed=seed, l=4)}
    for workers in WORKERS:
        assert _config_error(monkeypatch, workers, **kwargs) == message, workers


def test_config_error_in_a_child_exits_two_with_the_serial_message(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pinned.ini"
    path.write_text("[ensemble]\nseed = 134\nl = 4\n", encoding="utf-8")
    argv = ["--config", str(path), "--suite", "interlace-full-rank", "--trials", "40"]
    errors = []
    for workers in WORKERS:
        monkeypatch.setattr(experiments, "_cpus", lambda: workers)
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        _no_child_left()
    assert errors == ["error: interlace-full-rank needs l <= n; got n = 2, l = 4\n"] * 3


def _exit_three():
    os._exit(3)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _raises():
    raise KeyError("not a trial error")


@pytest.mark.parametrize("die", [_exit_three, _killed, _raises])
def test_a_child_that_dies_costs_time_not_records(monkeypatch, die):
    serial = _run(monkeypatch, 1, trials=40)
    parent, check_chunk = os.getpid(), experiments._check_chunk

    def dies_in_a_child(spec, suite, chunk, tolerances):
        if os.getpid() != parent and suite == "interlace-inflated":
            die()
        return check_chunk(spec, suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_check_chunk", dies_in_a_child)
    for workers in WORKERS[1:]:
        assert _run(monkeypatch, workers, trials=40) == serial, workers


def test_a_slice_without_a_process_runs_here(monkeypatch):
    serial = _run(monkeypatch, 1, trials=10)

    def no_process():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_process)
    assert _run(monkeypatch, 3, trials=10) == serial


def test_an_error_in_this_process_leaves_no_child(monkeypatch):
    run_slice = experiments._run_slice

    def interrupted(config, part, workers):
        if part == 0:
            raise KeyboardInterrupt
        return run_slice(config, part, workers)

    monkeypatch.setattr(experiments, "_run_slice", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run(monkeypatch, 3, trials=10)


def test_a_run_without_a_theorem_suite_forks_nothing(monkeypatch):
    # the oblique search runs in this process alone, so its slices would idle
    def no_fork():
        raise AssertionError("forked a child with no theorem suite to run")

    monkeypatch.setattr(os, "fork", no_fork)
    records = _run(monkeypatch, 3, suites=("oblique-counterexample",), trials=5)
    assert [record.suite for record in records] == ["oblique-counterexample"]
