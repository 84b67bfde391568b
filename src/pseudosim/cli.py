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
from .reports import FORMATS, emit_report, summarize

DEFAULT_SEED = 42
DEFAULT_TRIALS = 200


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


def build_config(file_values: dict | None, args: argparse.Namespace) -> ExperimentConfig:
    """The run's configuration: the flags in ``args`` over ``file_values``,
    as :func:`load_config_file` reads them, over the defaults."""
    sections = file_values or {}
    run, output = sections.get("run", {}), sections.get("output", {})
    ensemble_kwargs = {"seed": DEFAULT_SEED, **sections.get("ensemble", {})}
    tolerance_kwargs = dict(sections.get("tolerances", {}))
    if args.seed is not None:
        ensemble_kwargs["seed"] = args.seed
    if args.tol_interlace is not None:
        tolerance_kwargs["interlace"] = args.tol_interlace
    if args.tol_rank is not None:
        tolerance_kwargs["rank"] = args.tol_rank
    suites = ([suite for chunk in args.suite for suite in _parse_suites(chunk)] if args.suite
              else run.get("suites", SUITES))
    return ExperimentConfig(
        suites=tuple(suites),
        ensemble=EnsembleSpec(**ensemble_kwargs),
        trials=args.trials if args.trials is not None else run.get("trials", DEFAULT_TRIALS),
        tolerances=Tolerances(**tolerance_kwargs),
        out=args.out if args.out is not None else output.get("path"),
        format=args.format if args.format is not None else output.get("format", "table"),
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosim",
        description="Run seeded verification suites for spectrum-compressing "
                    "transforms of Hermitian matrices.",
    )
    parser.add_argument("--config", help="INI config file (flags override file values)")
    parser.add_argument("--suite", action="append", metavar="TAG",
                        help=f"suite tag, repeatable or comma-separated; one of {', '.join(SUITES)}"
                             " (default: all)")
    parser.add_argument("--trials", type=int, help=f"trials per suite (default {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, help=f"master 64-bit seed (default {DEFAULT_SEED})")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, help="report format (default table)")
    parser.add_argument("--tol-interlace", type=float, metavar="REL",
                        help="interlacing tolerance per spectral scale (default 1e-7)")
    parser.add_argument("--tol-rank", type=float, metavar="REL",
                        help="rank-detection threshold per largest singular value "
                             "(default max(rows, cols) * eps)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else None
        config = build_config(file_values, args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if config.out is not None:
        try:  # fail before running any trial, not after, and leave the path as it was
            existed = os.path.lexists(config.out)
            with open(config.out, "a", encoding="utf-8"):
                pass
            if not existed:
                os.remove(config.out)
        except OSError as exc:
            print(f"error: cannot write to {config.out!r}: {exc}", file=sys.stderr)
            return 3

    try:
        records = run_suite(config)
    except ContractViolation as exc:  # the config pins dimensions a suite cannot draw
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        emit_report(records, config.format, config.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if config.out is not None:
        for line in summarize(records):
            print(line)

    for record in records:
        if record.suite == "oblique-counterexample" and record.notes.startswith("no witness"):
            print(f"warning: {record.notes}", file=sys.stderr)

    return 1 if failed_theorem_records(records) else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
