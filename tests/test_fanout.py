"""run_suite cut into one slice of trials per CPU: the records and the
processes left behind do not depend on how many slices there are, and a
config error is raised before any slice runs."""
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
from pseudosim.experiments import (
    RECORD_FIELDS,
    SUITES,
    ExperimentConfig,
    TrialRecord,
    run_suite,
    run_trial,
)

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


@pytest.fixture(scope="module")
def serial_40():
    """The serial records of 40 trials of every suite, made before any test
    patches the runner."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run(monkeypatch, 1, trials=40)


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
def test_records_do_not_depend_on_the_slices(monkeypatch, request, kwargs):
    serial = (request.getfixturevalue("serial_40") if kwargs == {"trials": 40}
              else _run(monkeypatch, 1, **kwargs))
    assert len(serial) == (kwargs["trials"] if "suites" in kwargs else 6 * kwargs["trials"] + 1)
    for workers in WORKERS[1:]:
        records = _run(monkeypatch, workers, **kwargs)
        assert records == serial, workers
        # records compare without their diagnostics; those must match too,
        # NaN for NaN
        assert_equal(_diagnostics(records), _diagnostics(serial), str(workers))


def _diagnostics(records):
    return [[getattr(record, name) for name in DIAGNOSTICS] for record in records]


CONFIG_ERROR = "interlace-full-rank needs l <= n; got l = 4 and may draw n = 2"


@pytest.mark.parametrize("seed, trials", [(134, 1), (134, 25), (134, 26), (134, 40),
                                          (1, 10), (2, 10), (3, 10), (134, 10)])
def test_config_errors_do_not_depend_on_the_draws(seed, trials):
    # some of these runs draw n >= 4 on every trial, some draw n < 4 first on
    # a child's slice; the config is wrong for all of them alike
    spec = EnsembleSpec(seed=seed, l=4)
    with pytest.raises(ContractViolation) as raised:
        ExperimentConfig(suites=("interlace-full-rank",), trials=trials, ensemble=spec)
    assert str(raised.value) == CONFIG_ERROR
    with pytest.raises(ContractViolation) as raised:
        run_trial(spec, "interlace-full-rank", trials - 1)
    assert str(raised.value) == CONFIG_ERROR


def test_config_error_exits_two_before_any_trial(tmp_path, monkeypatch, capsys):
    path = tmp_path / "pinned.ini"
    path.write_text("[ensemble]\nseed = 134\nl = 4\n", encoding="utf-8")

    def no_trials(*args):
        raise AssertionError("ran trials of a config it should reject")

    monkeypatch.setattr(experiments, "_run_slice", no_trials)
    for workers in WORKERS:
        monkeypatch.setattr(experiments, "_cpus", lambda: workers)
        for trials in ("1", "25", "26", "40"):
            argv = ["--config", str(path), "--suite", "interlace-full-rank", "--trials", trials]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {CONFIG_ERROR}\n", (workers, trials)
    _no_child_left()


def _exit_three():
    os._exit(3)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _raises():
    raise KeyError("not a trial error")


@pytest.mark.parametrize("die", [_exit_three, _killed, _raises])
def test_a_child_that_dies_costs_time_not_records(monkeypatch, serial_40, die):
    parent, check_chunk = os.getpid(), experiments._check_chunk

    def dies_in_a_child(suite, chunk, tolerances):
        if os.getpid() != parent and suite == "interlace-inflated":
            die()
        return check_chunk(suite, chunk, tolerances)

    monkeypatch.setattr(experiments, "_check_chunk", dies_in_a_child)
    for workers in WORKERS[1:]:
        assert _run(monkeypatch, workers, trials=40) == serial_40, workers


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
