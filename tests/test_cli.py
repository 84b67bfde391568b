import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import pseudosim.cli as cli
import pseudosim.experiments as experiments
from pseudosim.cli import build_config, load_config_file, main, make_parser
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.oracles import characteristic_polynomial

CONFIG_TEXT = """\
[run]
suites = subsumption, solver-oracle
trials = 6

[ensemble]
seed = 99
condition_cap = 500

[tolerances]
interlace = 2e-7

[output]
format = csv
"""


def _parse(argv):
    return make_parser().parse_args(argv)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    config, out, report_format = build_config(load_config_file(str(path)), _parse([]))
    assert config.suites == ("subsumption", "solver-oracle")
    assert config.trials == 6
    assert config.ensemble.seed == 99
    assert config.ensemble.condition_cap == 500.0
    assert config.tolerances.interlace == 2e-7
    assert (out, report_format) == (None, "csv")


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT + "path = file.csv\n", encoding="utf-8")
    args = _parse(["--trials", "2", "--seed", "7", "--suite", "mp-axioms", "--out", "flag.csv",
                   "--format", "table", "--tol-interlace", "5e-7", "--tol-rank", "1e-12"])
    config, out, report_format = build_config(load_config_file(str(path)), args)
    assert config.trials == 2
    assert config.ensemble.seed == 7
    assert config.suites == ("mp-axioms",)
    assert (out, report_format) == ("flag.csv", "table")
    assert config.tolerances.interlace == 5e-7
    assert config.tolerances.rank == 1e-12
    # a key no flag sets keeps the file's value
    assert config.ensemble.condition_cap == 500.0


def test_defaults_without_config():
    config, out, report_format = build_config(None, _parse([]))
    assert (out, report_format) == (None, "table")
    assert config.ensemble.seed == 42
    assert config.trials == 200
    assert len(config.suites) == 7


def test_missing_config_file():
    with pytest.raises(ContractViolation):
        load_config_file("/no/such/file.ini")


def test_malformed_config(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("suites = oops, no section header\n", encoding="utf-8")
    with pytest.raises(ContractViolation):
        load_config_file(str(path))


def test_exit_zero_on_pass(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["--suite", "subsumption", "--trials", "3",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.read_text(encoding="utf-8").count("\n") == 4  # header + 3 rows
    assert "subsumption: 3/3 passed" in capsys.readouterr().out


def test_exit_one_on_theorem_failure(capsys):
    # impossible tolerance forces honest failures
    code = main(["--suite", "interlace-full-rank", "--trials", "5",
                 "--tol-interlace", "1e-19", "--format", "csv"])
    assert code == 1
    assert "false" in capsys.readouterr().out


def test_exit_two_on_bad_usage(capsys):
    assert main(["--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err
    assert main(["--config", "/no/such/file.ini"]) == 2


def test_exit_three_on_unwritable_output(capsys):
    code = main(["--suite", "subsumption", "--trials", "1",
                 "--out", "/no-such-dir/report.csv", "--format", "csv"])
    assert code == 3
    err = capsys.readouterr().err
    assert "no-such-dir" in err


def test_output_failure_precedes_trials(tmp_path, monkeypatch):
    # unwritable path must abort before any trial runs
    import pseudosim.cli as cli_mod

    def boom(config):
        raise AssertionError("trials ran despite unwritable output")

    monkeypatch.setattr(cli_mod, "run_suite", boom)
    code = main(["--suite", "subsumption", "--trials", "1",
                 "--out", "/no-such-dir/report.csv"])
    assert code == 3


@pytest.mark.parametrize("report_format", ["table", "csv", "json-lines"])
def test_stdout_and_out_get_the_same_report(tmp_path, capsys, report_format):
    args = ["--trials", "3", "--format", report_format]
    out = tmp_path / "report.txt"
    assert main(args + ["--out", str(out)]) == 0
    capsys.readouterr()  # the summary printed beside a report sent to --out
    assert main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_exit_three_when_the_report_cannot_be_written(tmp_path, capsys, monkeypatch):
    # the path passed the probe before the trials, then became a directory
    import pseudosim.cli as cli_mod

    out, run_suite = tmp_path / "report.csv", cli_mod.run_suite

    def then_unwritable(config):
        out.mkdir()
        return run_suite(config)

    monkeypatch.setattr(cli_mod, "run_suite", then_unwritable)
    assert main(["--suite", "subsumption", "--trials", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write report to {str(out)!r}: ")


def test_config_error_leaves_the_output_path_as_it_was(tmp_path, capsys):
    # the output probe runs only once the config is known to be valid, so a
    # config error must neither empty an existing report nor leave a new
    # empty one behind
    path = tmp_path / "pinned.ini"
    path.write_text("[ensemble]\nl = 5\n", encoding="utf-8")
    existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
    existing.write_text("an earlier report\n", encoding="utf-8")
    for out in (existing, new):
        assert main(["--config", str(path), "--suite", "interlace-full-rank", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: interlace-full-rank needs l <= n")
    assert existing.read_text(encoding="utf-8") == "an earlier report\n"
    assert not new.exists()


def test_oblique_warning_on_stderr(tmp_path, capsys):
    # an almost-unitary ensemble cannot violate interlacing, so the search
    # comes back empty: warning on stderr, exit status still zero
    path = tmp_path / "tame.ini"
    path.write_text(
        "[ensemble]\nseed = 7\nn = 3\ncondition_cap = 1.00000001\n"
        "nonunitarity_floor = 1.000000001\n",
        encoding="utf-8",
    )
    code = main(["--config", str(path), "--suite", "oblique-counterexample", "--trials", "50"])
    assert code == 0
    assert "no witness" in capsys.readouterr().err


def test_oblique_search_skips_a_trial_that_raises(tmp_path, capsys, monkeypatch):
    # the oracle raises on trial 0's violating block (n = 4, a 3 x 3 block),
    # the first one it sees; the search skips that trial and reports the
    # witness at trial 1
    seen = []

    def raises_first(t):
        seen.append(t)
        if len(seen) == 1:
            raise NumericalError("root iteration did not settle for degree 3")
        return characteristic_polynomial(t)

    monkeypatch.setattr(experiments, "_characteristic_polynomial", raises_first)
    path = tmp_path / "unsettled.ini"
    path.write_text("[ensemble]\nseed = 298\nn = 4\ncondition_cap = 2.5\n", encoding="utf-8")
    code = main(["--config", str(path), "--suite", "oblique-counterexample", "--format", "csv"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("oblique-counterexample,1,3526216789610159704,4,3,3,true,")
    assert ",witness: complex spectrum" in rows[1]
    assert seen[0].shape == (3, 3)


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pseudosim.cli", "--suite", "solver-oracle", "--trials", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "solver-oracle: 2/2 passed" in proc.stdout


def test_entry_freezes_the_collector_once_main_returns(monkeypatch):
    # the process ends right after: the interpreter's last collection then
    # skips every object the run left, import-time ones included
    frozen = []
    monkeypatch.setattr(cli, "main", lambda: frozen.append(gc.get_freeze_count()) or 1)
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.entry()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert exit_info.value.code == 1
    assert frozen == [0]


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # tests and library callers go on running after main()
    before = gc.get_freeze_count()
    assert main(["--trials", "2", "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    assert gc.get_freeze_count() == before


def test_default_run_writes_the_reference_csv():
    # the run users type, in a process of its own that freezes the collector
    # on its way out; under -X dev -W error a file or pipe the run leaves open
    # prints a ResourceWarning, which leaves the exit status at 0
    reference = pathlib.Path(__file__).parents[1] / "bench" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["full"]["cli-default"]["md5"]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pseudosim.cli", "--format", "csv"],
        capture_output=True, timeout=300, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert hashlib.md5(proc.stdout).hexdigest() == expected


def test_byte_identical_csv(tmp_path):
    args = ["--trials", "8", "--seed", "11", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("section, line", [
    ("run", "trials = abc"),
    ("ensemble", "condition_cap = big"),
    ("tolerances", "interlace = tight"),
])
def test_exit_two_on_malformed_value(tmp_path, capsys, section, line):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "subsumption", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line.split()[0] in err and "bad.ini" in err


def _no_trials(config):
    raise AssertionError("trials ran despite a config error")


@pytest.mark.parametrize("flags, field", [
    (["--tol-interlace", "nan"], "interlace"),
    (["--tol-interlace", "inf"], "interlace"),
    (["--tol-interlace", "-1"], "interlace"),
    (["--tol-rank", "-1"], "rank"),
    (["--tol-rank", "0"], "rank"),
])
def test_exit_two_on_unusable_tolerance_flag(capsys, monkeypatch, flags, field):
    # a NaN or infinite gate passes every trial, a non-positive one fails
    # every trial: both are config errors, caught before any trial runs
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    assert main(["--suite", "interlace-inflated", "--trials", "3"] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: tolerance {field} must be finite and > 0")


@pytest.mark.parametrize("line", ["realness = nan", "route = inf", "zero = 0", "mp = -1e-8",
                                  "oracle = -inf"])
def test_exit_two_on_unusable_tolerance_key(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "tols.ini"
    path.write_text(f"[tolerances]\n{line}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "subsumption", "--trials", "3"]) == 2
    field = line.split()[0]
    assert capsys.readouterr().err.startswith(f"error: tolerance {field} must be finite and > 0")


@pytest.mark.parametrize("flags, ini", [
    (["--tol-rank", "1"], None),
    (["--tol-rank", "2.5"], None),
    ([], "[tolerances]\nrank = 1\n"),
], ids=["flag-1", "flag-2.5", "key-1"])
def test_exit_two_on_a_rank_threshold_of_one_or_more(tmp_path, capsys, monkeypatch, flags, ini):
    # no singular value exceeds rank_tol times the largest one once rank_tol
    # is 1 or more, so every map reads as rank 0 and every theorem trial
    # would fail as if the theorem had: a config error, before any trial
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    if ini is not None:
        (tmp_path / "tols.ini").write_text(ini, encoding="utf-8")
        flags = ["--config", str(tmp_path / "tols.ini")]
    existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
    existing.write_text("an earlier report\n", encoding="utf-8")
    for out in (existing, new):
        assert main(flags + ["--trials", "3", "--format", "csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance rank must be < 1, got ") and err.count("\n") == 1
    assert existing.read_text(encoding="utf-8") == "an earlier report\n"
    assert not new.exists()


def _no_draws(*args):
    raise AssertionError("a trial was drawn despite a config error")


@pytest.mark.parametrize("flags, ini, field", [
    (["--tol-interlace", "1e308"], None, "interlace"),
    ([], "[tolerances]\nrealness = 1e308\n", "realness"),
], ids=["interlace-flag", "realness-key"])
def test_exit_two_on_a_tolerance_the_oblique_search_overflows(tmp_path, capsys, monkeypatch,
                                                               flags, ini, field):
    # the search multiplies the interlacing and realness factors by 10: one
    # that overflows is a config error on one line, before any trial is
    # drawn, not a traceback once the theorem suites have run; a run without
    # the search keeps the value
    monkeypatch.setattr(experiments, "_draw_trial", _no_draws)
    if ini is not None:
        (tmp_path / "tols.ini").write_text(ini, encoding="utf-8")
        flags = ["--config", str(tmp_path / "tols.ini")]
    existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
    existing.write_text("an earlier report\n", encoding="utf-8")
    for out in (existing, new):
        assert main(flags + ["--format", "csv", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: oblique-counterexample's tolerance {field}, "
                                           "10 times 1e+308, must be finite, got inf\n")
    assert existing.read_text(encoding="utf-8") == "an earlier report\n"
    assert not new.exists()
    monkeypatch.undo()
    assert main(flags + ["--suite", "subsumption", "--trials", "3", "--format", "csv",
                         "--out", str(new)]) == 0
    assert len(new.read_text(encoding="utf-8").splitlines()) == 4  # a header and three trials


@pytest.mark.parametrize("lines, fields", [
    ("condition_cap = nan", ["condition_cap"]),
    ("condition_cap = inf", ["condition_cap"]),
    ("spectrum_bound = inf", ["spectrum_bound"]),
    ("spectrum_gap = inf\nspectrum_bound = inf", ["spectrum_gap", "spectrum_bound"]),
    ("n = 3\nspectrum_law = prescribed\nspectrum_values = 1 nan 2", ["spectrum_values"]),
    ("nonunitarity_floor = nan", ["nonunitarity_floor"]),
    ("nonunitarity_floor = 1", ["nonunitarity_floor"]),
], ids=["cap-nan", "cap-inf", "bound-inf", "gap-and-bound-inf", "values-nan", "floor-nan", "floor-1"])
def test_exit_two_on_unusable_ensemble_value(tmp_path, capsys, monkeypatch, lines, fields):
    # a non-finite or out-of-range ensemble value would fail every trial as
    # if the theorem had failed: a config error, caught before any trial runs
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "ensemble.ini"
    path.write_text(f"[ensemble]\n{lines}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "interlace-full-rank", "--trials", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(field in err for field in fields)


def test_exit_two_on_spectrum_values_without_prescribed_law(tmp_path, capsys, monkeypatch):
    # without spectrum_law = prescribed the run would draw the default law
    # and never read the values
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "values.ini"
    path.write_text("[ensemble]\nn = 3\nspectrum_values = 1 2 3\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "interlace-full-rank", "--trials", "3"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: spectrum_values needs spectrum_law = prescribed, got 'signed-uniform'")


@pytest.mark.parametrize("floor", ["nan", "0.5", "5000"])
def test_oblique_search_rejects_unusable_floor(tmp_path, capsys, floor):
    # the search draws cond(X) from [floor, cap]; a floor outside (1, cap]
    # makes every draw raise, which would read as "no witness" with exit 0
    path = tmp_path / "floor.ini"
    path.write_text(f"[ensemble]\nnonunitarity_floor = {floor}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "oblique-counterexample", "--trials", "20"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonunitarity_floor" in err


@pytest.mark.parametrize("flags, text, tag", [
    (["--suite", "interlace-full-rank,interlace-full-rank"], "", "interlace-full-rank"),
    (["--suite", "mp-axioms", "--suite", "subsumption", "--suite", "mp-axioms"], "", "mp-axioms"),
    ([], "[run]\nsuites = subsumption, solver-oracle, subsumption\n", "subsumption"),
], ids=["comma-separated-flag", "repeated-flag", "ini"])
def test_exit_two_on_repeated_suite(tmp_path, capsys, monkeypatch, flags, text, tag):
    # a repeated tag would run its suite twice with the same seeds
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["--config", str(path), "--trials", "2"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "more than once" in err and tag in err


@pytest.mark.parametrize("text, section, key", [
    ("[ensemble]\ncondition_capp = 1e8\n", "ensemble", "condition_capp"),
    ("[run]\ntrails = 3\n", "run", "trails"),
    ("[tolerances]\nrealnes = 1e-3\n", "tolerances", "realnes"),
    ("[output]\nformats = csv\n", "output", "formats"),
    ("[run]\ntrials = 3\n[ensembel]\nseed = 3\n", "ensembel", None),
    ("[DEFAULT]\nseed = 3\n[ensemble]\nn = 4\n", "DEFAULT", None),
])
def test_exit_two_on_unknown_ini_key(tmp_path, capsys, monkeypatch, text, section, key):
    # a misspelled section or key is an error in every section, not a run on
    # the defaults
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "typo.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["--config", str(path), "--suite", "subsumption"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and "typo.ini" in err and f"[{section}]" in err
    assert key is None or repr(key) in err


def test_every_ini_key_is_read(tmp_path):
    # the 22 keys the file format has, each set away from its default
    path = tmp_path / "full.ini"
    path.write_text(
        "[run]\nsuites = mp-axioms\ntrials = 4\n"
        "[ensemble]\nseed = 5\nn = 6\nk = 5\nl = 3\nspectrum_law = prescribed\n"
        "spectrum_values = 1 2 3 4 5 6\nspectrum_gap = 0.2\nspectrum_bound = 3\n"
        "condition_cap = 50\nnonunitarity_floor = 4\n"
        "[tolerances]\ninterlace = 1e-6\nrank = 1e-9\nzero = 1e-6\nrealness = 1e-7\n"
        "mp = 1e-7\nunitary_pinv = 1e-9\nroute = 1e-8\noracle = 1e-5\n"
        "[output]\npath = report.csv\nformat = csv\n",
        encoding="utf-8")
    config, out, report_format = build_config(load_config_file(str(path)), _parse([]))
    assert (config.suites, config.trials, out, report_format) == (
        ("mp-axioms",), 4, "report.csv", "csv")
    ens = config.ensemble
    assert (ens.seed, ens.n, ens.k, ens.l, ens.spectrum_law, ens.spectrum_values) == (
        5, 6, 5, 3, "prescribed", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    assert (ens.spectrum_gap, ens.spectrum_bound, ens.condition_cap, ens.nonunitarity_floor) == (
        0.2, 3.0, 50.0, 4.0)
    assert dataclasses.astuple(config.tolerances) == (1e-6, 1e-9, 1e-6, 1e-7, 1e-7, 1e-9, 1e-8, 1e-5)


@pytest.mark.parametrize("pinned, suite", [
    ("n = 1", "interlace-rank-deficient"),
    ("k = 1", "interlace-rank-deficient"),
    ("n = 24", "interlace-inflated"),
    ("n = 25", "mp-axioms"),
    ("n = 0", "interlace-full-rank"),
    ("l = 17", "interlace-full-rank"),
    ("n = 4\nl = 5", "interlace-full-rank"),
    ("l = 17", "subsumption"),
    ("l = 5", "interlace-rank-deficient"),
    ("n = 4\nk = 3\nl = 3", "interlace-rank-deficient"),
    ("n = 4\nl = 5", "interlace-inflated"),
    ("n = 1", "oblique-counterexample"),
    ("k = 3", "interlace-inflated"),
    ("n = 4\nk = 4", "interlace-inflated"),
    ("n = 4\nk = 6", "interlace-rank-deficient"),
])
def test_exit_two_on_undrawable_dimension(tmp_path, capsys, pinned, suite):
    # a config error, not a failed theorem trial (exit 1), nor a run of
    # another shape under the suite's name (exit 0)
    path = tmp_path / "pinned.ini"
    path.write_text(f"[ensemble]\n{pinned}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", suite, "--trials", "2", "--format", "csv"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_import_needs_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pseudosim.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


PRESCRIBED = "[ensemble]\nspectrum_law = prescribed\nspectrum_values = -1 0.5 1 2\n"


@pytest.mark.parametrize("suite", ["interlace-full-rank", "interlace-rank-deficient",
                                   "interlace-inflated", "subsumption", "oblique-counterexample"])
def test_prescribed_spectrum_needs_its_n(tmp_path, capsys, suite):
    # n drawn per trial (or the oblique default n = 3) against a spectrum of
    # length 4: a config error, not failed trials (exit 1) nor a search that
    # swallows the mismatch (exit 0)
    path = tmp_path / "prescribed.ini"
    path.write_text(PRESCRIBED, encoding="utf-8")
    assert main(["--config", str(path), "--suite", suite, "--trials", "3", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and suite in err and "needs n = 4" in err


@pytest.mark.parametrize("suite", ["interlace-full-rank", "interlace-inflated", "oblique-counterexample"])
def test_prescribed_spectrum_runs_at_its_n(tmp_path, capsys, suite):
    path = tmp_path / "prescribed.ini"
    path.write_text(PRESCRIBED + "n = 4\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    assert main(["--config", str(path), "--suite", suite, "--trials", "3",
                 "--format", "csv", "--out", str(out)]) == 0
    for row in out.read_text(encoding="utf-8").splitlines()[1:]:
        assert row.split(",")[3] == "4" and row.split(",")[6] == "true"


@pytest.mark.parametrize("pinned", ["k = 9", "n = 12\nk = 5", "n = 12\nk = 5\nl = 4"])
@pytest.mark.parametrize("suite", ["interlace-full-rank", "subsumption"])
def test_pinned_k_needs_equal_l(tmp_path, capsys, suite, pinned):
    # these suites have K = L: a pinned k other than a pinned l used to be
    # dropped without a word
    path = tmp_path / "pinned.ini"
    path.write_text(f"[ensemble]\n{pinned}\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", suite, "--trials", "3", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and suite in err and "pinned k" in err


@pytest.mark.parametrize("suite", ["interlace-full-rank", "subsumption"])
def test_pinned_k_equal_to_l_runs(tmp_path, capsys, suite):
    path = tmp_path / "pinned.ini"
    path.write_text("[ensemble]\nn = 12\nk = 5\nl = 5\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    assert main(["--config", str(path), "--suite", suite, "--trials", "3",
                 "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[3:6] for row in rows] == [["12", "5", "5"]] * 3


@pytest.mark.parametrize("ensemble, runs, refuses", [
    # k and l are pinned, but neither suite that runs draws them
    ("n = 3\nk = 2\nl = 3", ("mp-axioms", "oblique-counterexample"),
     {"interlace-full-rank": "pinned k", "interlace-inflated": "needs k > n"}),
    # a prescribed spectrum fits only the suites that draw one
    ("n = 5\nspectrum_law = prescribed\nspectrum_values = 1 2 3", ("solver-oracle", "mp-axioms"),
     {"subsumption": "needs n = 3", "oblique-counterexample": "needs n = 3"}),
])
def test_each_suite_judges_its_own_dimensions(tmp_path, capsys, ensemble, runs, refuses):
    # the shape a pinned spec must have is the suite's: a spec one suite
    # refuses runs on a suite that ignores the dimensions it pins
    path = tmp_path / "pinned.ini"
    path.write_text(f"[ensemble]\n{ensemble}\n", encoding="utf-8")
    for suite in runs:
        assert main(["--config", str(path), "--suite", suite, "--trials", "2", "--format", "csv"]) == 0
    capsys.readouterr()
    for suite, message in refuses.items():
        assert main(["--config", str(path), "--suite", suite, "--trials", "2", "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {suite}") and message in err


def test_exit_two_on_unknown_format_in_file(tmp_path, capsys, monkeypatch):
    # the report format is the CLI's to check, before any trial runs
    monkeypatch.setattr("pseudosim.cli.run_suite", _no_trials)
    path = tmp_path / "format.ini"
    path.write_text("[output]\nformat = yaml\n", encoding="utf-8")
    assert main(["--config", str(path), "--suite", "subsumption", "--trials", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown format 'yaml'")
