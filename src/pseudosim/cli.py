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
import sys

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

_ENSEMBLE_INTS = ("seed", "n", "k", "l")
_ENSEMBLE_FLOATS = ("spectrum_gap", "spectrum_bound", "condition_cap", "nonunitarity_floor")


def _parse_suites(raw: str) -> list[str]:
    return [token.strip() for token in raw.replace(",", " ").split() if token.strip()]


def _spectrum_values(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _parse_suites(raw))


def load_config_file(path: str) -> dict:
    """Flatten the INI file into keyword arguments for :func:`build_config`."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as stream:
            parser.read_file(stream)
    except OSError as exc:
        raise ContractViolation(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ContractViolation(f"malformed config file {path!r}: {exc}") from exc

    def value(section, key: str, convert):
        try:
            return convert(section[key])
        except ValueError as exc:
            raise ContractViolation(
                f"bad value for [{section.name}] {key} in config file {path!r}: {exc}") from exc

    out: dict = {}
    if parser.has_section("run"):
        run = parser["run"]
        if "suites" in run:
            out["suites"] = _parse_suites(run["suites"])
        if "trials" in run:
            out["trials"] = value(run, "trials", int)
    if parser.has_section("ensemble"):
        ens = parser["ensemble"]
        ensemble: dict = {}
        for key in _ENSEMBLE_INTS:
            if key in ens:
                ensemble[key] = value(ens, key, int)
        for key in _ENSEMBLE_FLOATS:
            if key in ens:
                ensemble[key] = value(ens, key, float)
        if "spectrum_law" in ens:
            ensemble["spectrum_law"] = ens["spectrum_law"].strip()
        if "spectrum_values" in ens:
            ensemble["spectrum_values"] = value(ens, "spectrum_values", _spectrum_values)
        out["ensemble"] = ensemble
    if parser.has_section("tolerances"):
        tol = parser["tolerances"]
        out["tolerances"] = {key: value(tol, key, float) for key in tol}
    if parser.has_section("output"):
        output = parser["output"]
        if "path" in output:
            out["out"] = output["path"].strip()
        if "format" in output:
            out["format"] = output["format"].strip()
    return out


def build_config(file_values: dict | None, args: argparse.Namespace) -> ExperimentConfig:
    values = dict(file_values or {})
    ensemble_kwargs = dict(values.get("ensemble", {}))
    tolerance_kwargs = dict(values.get("tolerances", {}))

    if args.suite:
        suites: list[str] = []
        for chunk in args.suite:
            suites.extend(_parse_suites(chunk))
        values["suites"] = suites
    if args.trials is not None:
        values["trials"] = args.trials
    if args.seed is not None:
        ensemble_kwargs["seed"] = args.seed
    if args.out is not None:
        values["out"] = args.out
    if args.format is not None:
        values["format"] = args.format
    if args.tol_interlace is not None:
        tolerance_kwargs["interlace"] = args.tol_interlace
    if args.tol_rank is not None:
        tolerance_kwargs["rank"] = args.tol_rank

    ensemble_kwargs.setdefault("seed", DEFAULT_SEED)
    try:
        tolerances = Tolerances(**tolerance_kwargs)
    except TypeError as exc:
        raise ContractViolation(f"unknown tolerance key: {exc}") from exc
    try:
        ensemble = EnsembleSpec(**ensemble_kwargs)
    except TypeError as exc:
        raise ContractViolation(f"unknown ensemble key: {exc}") from exc
    return ExperimentConfig(
        suites=tuple(values.get("suites", SUITES)),
        ensemble=ensemble,
        trials=int(values.get("trials", DEFAULT_TRIALS)),
        tolerances=tolerances,
        out=values.get("out"),
        format=values.get("format", "table"),
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
        try:
            with open(config.out, "w", encoding="utf-8"):
                pass  # fail before running any trial, not after
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
