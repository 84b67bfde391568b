import dataclasses
import subprocess
import sys

import pytest

import pseudosim.experiments as experiments
from pseudosim.cli import build_config, load_config_file, main, make_parser
from pseudosim.errors import ContractViolation, NumericalError
from pseudosim.oracles import charpoly_eigenvalues

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
    config = build_config(load_config_file(str(path)), _parse([]))
    assert config.suites == ("subsumption", "solver-oracle")
    assert config.trials == 6
    assert config.ensemble.seed == 99
    assert config.ensemble.condition_cap == 500.0
    assert config.tolerances.interlace == 2e-7
    assert config.format == "csv"


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    args = _parse(["--trials", "2", "--seed", "7", "--suite", "mp-axioms",
                   "--format", "table", "--tol-interlace", "5e-7", "--tol-rank", "1e-12"])
    config = build_config(load_config_file(str(path)), args)
    assert config.trials == 2
    assert config.ensemble.seed == 7
    assert config.suites == ("mp-axioms",)
    assert config.format == "table"
    assert config.tolerances.interlace == 5e-7
    assert config.tolerances.rank == 1e-12


def test_defaults_without_config():
    config = build_config(None, _parse([]))
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


def test_config_error_leaves_the_output_path_as_it_was(tmp_path, capsys):
    # the output probe runs before the trials that find the config error: it
    # must neither empty an existing report nor leave a new empty one behind
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
        return charpoly_eigenvalues(t)

    monkeypatch.setattr(experiments, "charpoly_eigenvalues", raises_first)
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
    config = build_config(load_config_file(str(path)), _parse([]))
    assert (config.suites, config.trials, config.out, config.format) == (
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
