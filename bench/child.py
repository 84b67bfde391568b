"""Benchmark child process, for the work that runs inside a pseudosim process.

``run.py`` starts it with the BLAS thread count pinned, in one of three modes:

* ``--manifest`` prints the environment manifest as JSON;
* ``--workload W`` runs passes of an in-process workload for ``--seconds``
  (alternating untraced and traced passes with ``--trace 1``) and prints
  one JSON line with every pass's timings, digest and verdict counts;
* ``--trace-cli STATS -- ARGV`` runs ``pseudosim.cli.main(ARGV)`` with the
  tracer installed and writes the layer totals to ``STATS``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import sys
from time import perf_counter

from tracer import Tracer
from workloads import MIN_PASSES, REFERENCE_SEED, THEOREM_SUITES, WORKLOADS


def _openblas_runtime() -> list[dict]:
    """Thread count and runtime core type of each loaded OpenBLAS, read from
    the libraries numpy and scipy ship with."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(package.__file__) + ".libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            entry = {"library": os.path.basename(path)}
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                found.append(entry)
                continue
            for prefix in ("scipy_", ""):
                for suffix in ("64_", ""):
                    threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                    if threads is not None and "threads" not in entry:
                        entry["threads"] = int(threads())
                    if config is not None and "config" not in entry:
                        config.restype = ctypes.c_char_p
                        entry["config"] = config().decode()
            found.append(entry)
    return found


def manifest() -> dict:
    import numpy
    import scipy

    import pseudosim

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pseudosim": pseudosim.__version__,
        "pseudosim_path": os.path.relpath(os.path.dirname(pseudosim.__file__)),
        "numpy_blas": build.get("blas", {}).get("openblas configuration") or build.get("blas"),
        "numpy_lapack": build.get("lapack", {}).get("name"),
        "openblas_runtime": _openblas_runtime(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _csv_digest(records) -> str:
    from pseudosim.reports import render

    return hashlib.sha256(render(records, "csv").encode()).hexdigest()


def _verdicts(records) -> tuple[int, int]:
    """(theorem trials, theorem trials that failed or raised)."""
    theorem = [r for r in records if r.suite in THEOREM_SUITES]
    return len(theorem), sum(not r.passed for r in theorem)


def _configs(workload, seed: int, smoke: bool):
    from pseudosim import EnsembleSpec, ExperimentConfig

    trials = workload.smoke_trials if smoke else workload.trials
    return [(suite, ExperimentConfig(suites=(suite,), trials=trials,
                                     ensemble=EnsembleSpec(seed=seed, **workload.dims)))
            for suite in workload.suites]


def _one_pass(configs):
    from pseudosim import experiments

    records, suite_s = [], {}
    start = perf_counter()
    for suite, config in configs:
        t0 = perf_counter()
        records.extend(experiments.run_suite(config))
        suite_s[suite] = perf_counter() - t0
    return perf_counter() - start, suite_s, records


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    # the reference pass is also the warm-up: it runs every code path once
    _, _, records = _one_pass(_configs(workload, REFERENCE_SEED, smoke))
    trials, failed = _verdicts(records)
    reference = {"digest": _csv_digest(records), "trials": trials, "failed": failed}

    configs = _configs(workload, seed, smoke)
    tracer = Tracer() if trace else None
    kinds = (False, True) if trace else (False,)
    passes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < MIN_PASSES * len(kinds):
        traced = kinds[len(passes) % len(kinds)]
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, suite_s, records = _one_pass(configs)
            finally:
                tracer.uninstall()
        else:
            wall, suite_s, records = _one_pass(configs)
        trials, failed = _verdicts(records)
        passes.append({"traced": traced, "wall_s": wall, "suite_s": suite_s,
                       "digest": _csv_digest(records), "trials": trials, "failed": failed,
                       "layers": tracer.snapshot() if traced else None})
    return {"reference": reference, "passes": passes}


def trace_cli(stats_path: str, argv: list[str]) -> int:
    """Traced ``pseudosim`` run; the traced wall time runs from just before
    ``import pseudosim`` to the return of ``main``."""
    tracer = Tracer()
    start = perf_counter()
    cli = tracer.span("import", "import.pseudosim",
                      lambda: importlib.import_module("pseudosim.cli"))
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    wall = perf_counter() - start
    with open(stats_path, "w", encoding="utf-8") as stream:
        json.dump({"layers": tracer.snapshot(), "span_wall_s": wall}, stream)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-cli", metavar="STATS")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.manifest:
        print(json.dumps(manifest()))
        return 0
    if args.trace_cli:
        return trace_cli(args.trace_cli, args.argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
