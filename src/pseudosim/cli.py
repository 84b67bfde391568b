"""Command-line experiment runner.

Configuration comes from an INI-style file (sections ``run``, ``ensemble``,
``tolerances``, ``output``) with command-line flags taking precedence over
file values.  Exit codes: 0 every theorem-asserting suite passed, 1 at least
one theorem trial failed, 2 usage or configuration error, 3 output I/O error.
A fruitless oblique counterexample search prints a warning but does not
change the exit status.
"""
from __future__ import annotations

import argparse
import configparser
import gc
import os
import sys
from dataclasses import fields

from .ensembles import EnsembleSpec
from .errors import ContractViolation
from .experiments import (
    SUITES,
    ExperimentConfig,
    Tolerances,
    failed_theorem_records,
    run_suite,
)
from .reports import FORMATS, render, summarize

DEFAULT_SEED = 42


def _parse_suites(raw: str) -> list[str]:
    return [token.strip() for token in raw.replace(",", " ").split() if token.strip()]


def _spectrum_values(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _parse_suites(raw))


#: INI section -> its keys, each with the function that reads its value
_INI_KEYS = {
    "run": {"suites": _parse_suites, "trials": int},
    "ensemble": {**dict.fromkeys(("seed", "n", "k", "l"), int),
                 **dict.fromkeys(("spectrum_gap", "spectrum_bound", "condition_cap",
                                  "nonunitarity_floor"), float),
                 "spectrum_law": str.strip, "spectrum_values": _spectrum_values},
    "tolerances": dict.fromkeys((f.name for f in fields(Tolerances)), float),
    "output": {"path": str.strip, "format": str.strip},
}


def load_config_file(path: str) -> dict:
    """The INI file's values, section -> key -> value, for :func:`build_config`."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as stream:
            parser.read_file(stream)
    except OSError as exc:
        raise ContractViolation(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ContractViolation(f"malformed config file {path!r}: {exc}") from exc

    sections: dict = {}
    for name in parser:  # the default section comes first, empty unless the file has one
        section, readers = parser[name], _INI_KEYS.get(name)
        if readers is None:
            if name != parser.default_section or len(section):
                raise ContractViolation(f"unknown section [{name}] in config file {path!r}; "
                                        f"valid: {', '.join(_INI_KEYS)}")
            continue
        sections[name] = {}
        for key in section:
            if key not in readers:
                raise ContractViolation(f"unknown key {key!r} in [{name}] of config file "
                                        f"{path!r}; valid: {', '.join(readers)}")
            try:
                sections[name][key] = readers[key](section[key])
            except ValueError as exc:
                raise ContractViolation(
                    f"bad value for [{name}] {key} in config file {path!r}: {exc}") from exc
    return sections


def build_config(file_values: dict | None, args: argparse.Namespace,
                 ) -> tuple[ExperimentConfig, str | None, str]:
    """The run's configuration, output path (None for stdout) and report
    format: the flags in ``args`` over ``file_values``, as
    :func:`load_config_file` reads them, over the defaults.  Every flag but
    ``--config`` is stored under the "<section>.<key>" of the key it sets."""
    sections = {name: dict((file_values or {}).get(name, {})) for name in _INI_KEYS}
    for dest, value in vars(args).items():
        if dest != "config" and value is not None:
            section, key = dest.split(".")
            sections[section][key] = value
    output = sections["output"]
    report_format = output.get("format", "table")
    if report_format not in FORMATS:
        raise ContractViolation(f"unknown format {report_format!r}, expected one of {FORMATS}")
    config = ExperimentConfig(**{"suites": SUITES, **sections["run"]},
                              ensemble=EnsembleSpec(**{"seed": DEFAULT_SEED, **sections["ensemble"]}),
                              tolerances=Tolerances(**sections["tolerances"]))
    return config, output.get("path"), report_format


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosim",
        description="Run seeded verification suites for spectrum-compressing "
                    "transforms of Hermitian matrices.",
    )
    parser.add_argument("--config", help="INI config file (flags override file values)")
    parser.add_argument("--suite", dest="run.suites", action="extend", type=_parse_suites,
                        metavar="TAG",
                        help=f"suite tag, repeatable or comma-separated; one of {', '.join(SUITES)}"
                             " (default: all)")
    parser.add_argument("--trials", dest="run.trials", type=int, metavar="TRIALS",
                        help=f"trials per suite (default {ExperimentConfig.trials})")
    parser.add_argument("--seed", dest="ensemble.seed", type=int, metavar="SEED",
                        help=f"master 64-bit seed (default {DEFAULT_SEED})")
    parser.add_argument("--out", dest="output.path", metavar="OUT", help="output path (default: stdout)")
    parser.add_argument("--format", dest="output.format", choices=FORMATS,
                        help="report format (default table)")
    parser.add_argument("--tol-interlace", dest="tolerances.interlace", type=float, metavar="REL",
                        help="interlacing tolerance per spectral scale "
                             f"(default {Tolerances.interlace:g})")
    parser.add_argument("--tol-rank", dest="tolerances.rank", type=float, metavar="REL",
                        help="rank-detection threshold per largest singular value "
                             "(default max(rows, cols) * eps)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else None
        config, out, report_format = build_config(file_values, args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out is not None:
        try:  # fail before running any trial, not after, and leave the path as it was
            existed = os.path.lexists(out)
            with open(out, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(out)
        except OSError as exc:
            print(f"error: cannot write to {out!r}: {exc}", file=sys.stderr)
            return 3

    records = run_suite(config)

    report = render(records, report_format)
    try:
        if out is None:
            sys.stdout.write(report)
        else:
            with open(out, "w", encoding="utf-8", newline="") as stream:
                stream.write(report)
    except OSError as exc:
        print(f"error: cannot write report to {'stdout' if out is None else repr(out)}: {exc}",
              file=sys.stderr)
        return 3

    if out is not None:
        for line in summarize(records):
            print(line)

    for record in records:
        if record.suite == "oblique-counterexample" and record.notes.startswith("no witness"):
            print(f"warning: {record.notes}", file=sys.stderr)

    return 1 if failed_theorem_records(records) else 0


def entry() -> None:
    status = main()
    # the process ends here: frozen objects are left out of the collection
    # the interpreter runs on its way out, a pass over every object the
    # imports made.  main() does not freeze, as tests and libraries call it
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
