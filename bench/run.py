"""pseudosim benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload theorem-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every child process gets ``PYTHONPATH=src`` and one BLAS thread.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, with the end-to-end metrics when
``--trace 0`` and the per-layer metrics when ``--trace 1``.  Lines before it
give every figure with its unit, the per-suite timings and the verdict
checks.  See README.md beside this file for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, with_wall
from workloads import (MIN_PASSES, REFERENCE_SEED, SUITE_METRIC, THEOREM_SUITES, WORKLOADS,
                       cli_args, setup_code)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: BLAS threads in every child; at most nproc, and one keeps the LAPACK
#: results (and so the CSV digests) independent of the machine's core count
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: a run's passes come in blocks with set-up probes before, between and
#: after them, so that the probes sample several moments of a host whose
#: speed drifts over minutes; set-up time is the median of all probes
PASS_BLOCKS = 2
PROBES_PER_GAP = 3
#: no child may outlive this; it keeps a stuck child from holding the run
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.share": "ratio", f"{layer}.errors": "count"})
    units.update({
        "rng.words": "count", "linalg.svd_calls": "count", "linalg.as_matrix_calls": "count",
        "kernel.svd_calls": "count", "kernel.eigvals_calls": "count", "kernel.qr_calls": "count",
        "kernel.lapack_s": "s", "kernel.flops": "computed-flop",
        "oracles.polynomial_roots.self_s": "s", "import.scipy_s": "s",
        "import.pseudosim_s": "s", "reports.bytes": "byte", "trace.overhead_s": "s",
        "trace.unattributed_s": "s", "trace.wall_s": "s",
    })
    return units


class Child:
    """A finished child process: wall time, exit code, output, peak RSS."""

    def __init__(self, cmd, env):
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = perf_counter() - start
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()

    def require_ok(self, what: str):
        if self.code != 0:
            raise RuntimeError(f"{what} exited with {self.code}:\n{self.stderr[-2000:]}")
        return self


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def import_times(stderr: str) -> dict:
    """Cumulative import time of the outermost ``scipy`` and ``pseudosim``
    modules in ``-X importtime`` output, in seconds."""
    entries = []  # (depth, name, cumulative_us, parent index)
    pending: list[int] = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", line)
        if not match:
            continue
        depth = len(match.group(3)) // 2
        index = len(entries)
        entries.append([depth, match.group(4), int(match.group(2)), None])
        while pending and entries[pending[-1]][0] > depth:  # children print first
            entries[pending.pop()][3] = index
        pending.append(index)

    def outermost(package):
        own = lambda name: name == package or name.startswith(package + ".")
        return sum(cum for depth, name, cum, parent in entries
                   if own(name) and (parent is None or not own(entries[parent][1]))) / 1e6

    return {"import.scipy_s": outermost("scipy"), "import.pseudosim_s": outermost("pseudosim")}


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def csv_verdicts(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as stream:
        rows = list(csv.DictReader(stream))
    theorem = [r for r in rows if r["suite"] in THEOREM_SUITES]
    witness = any(r["suite"] == "oblique-counterexample" and r["notes"].startswith("witness:")
                  for r in rows)
    return {"trials": len(theorem), "failed": sum(r["passed"] != "true" for r in theorem),
            "witness": witness}


def file_digests(path: Path) -> tuple[str, str]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), hashlib.md5(data).hexdigest()


class Run:
    """One benchmark run of one workload: probes, passes, checks, metrics."""

    def __init__(self, workload, seed, seconds, trace, smoke):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.figures: dict[str, float] = {}
        self.setup_walls: list[float] = []
        self.imports: list[dict] = []
        references = json.loads((BENCH / "reference.json").read_text())
        self.reference = references["smoke" if smoke else "full"][workload.name]

    def fail(self, count: int, problem: str):
        self.failed += count
        self.problems.append(problem)

    # -- set-up -------------------------------------------------------------

    def read_manifest(self):
        """Versions, BLAS build and threads, read by a child; also warms the
        bytecode cache before set-up is timed."""
        child = Child([sys.executable, str(BENCH / "child.py"), "--manifest"], self.env)
        self.manifest = json.loads(child.require_ok("manifest probe").stdout)
        self.manifest.update({"workload": self.workload.name, "seed": self.seed,
                              "seconds": self.seconds, "trace": self.trace,
                              "smoke": self.smoke, "blas_threads": BLAS_THREADS})
        self.notes.append("env: python {python}, numpy {numpy}, scipy {scipy}, nproc {nproc}, "
                          "blas threads {blas_threads}".format(**self.manifest))

    def probe_setup(self):
        code = setup_code(self.workload, self.seed, str(OUT / "setup.csv"), self.smoke)
        cmd = [sys.executable] + (["-X", "importtime"] if self.trace else []) + ["-c", code]
        for _ in range(1 if self.smoke else PROBES_PER_GAP):
            child = Child(cmd, self.env).require_ok("set-up probe")
            self.setup_walls.append(child.wall_s)
            self.imports.append(import_times(child.stderr))

    # -- passes -------------------------------------------------------------

    def cli_pass(self, seed: int, traced: bool, out: Path) -> dict:
        argv = cli_args(self.workload, seed, str(out), self.smoke)
        if traced:
            stats = OUT / f"trace-{self.workload.name}.json"
            cmd = [sys.executable, str(BENCH / "child.py"), "--trace-cli", str(stats), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "pseudosim.cli", *argv]
        child = Child(cmd, self.env)
        if child.code not in (0, 1):  # 1 means a theorem trial failed: counted below
            raise RuntimeError(f"pseudosim exited with {child.code}:\n{child.stderr[-2000:]}")
        sha, md5 = file_digests(out)
        result = {"traced": traced, "wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb,
                  "digest": sha, "md5": md5, "bytes": out.stat().st_size, **csv_verdicts(out)}
        if traced:
            result.update(json.loads(stats.read_text()))
            stats.unlink()
        return result

    def cli_passes(self, seconds: float) -> tuple[dict, list[dict]]:
        out = OUT / f"{self.workload.name}.csv"
        reference = self.cli_pass(REFERENCE_SEED, False, out)
        if reference["md5"] != self.reference["md5"]:
            self.fail(reference["trials"], f"reference CSV md5 {reference['md5']} "
                                           f"!= {self.reference['md5']}")
        kinds = (False, True) if self.trace else (False,)
        passes = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(passes) < MIN_PASSES * len(kinds):
            passes.append(self.cli_pass(self.seed, kinds[len(passes) % len(kinds)], out))
        out.unlink()
        for p in [reference] + passes:
            if not p["witness"]:
                self.fail(1, f"no oblique witness at seed {self.seed}")
        return reference, passes

    def inprocess_passes(self, seconds: float) -> tuple[dict, list[dict]]:
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--seconds", str(seconds),
               "--trace", str(int(self.trace))] + (["--smoke"] if self.smoke else [])
        child = Child(cmd, self.env).require_ok(f"workload {self.workload.name}")
        result = json.loads(child.stdout.splitlines()[-1])
        for p in result["passes"]:
            p["peak_rss_mb"] = child.peak_rss_mb
        return result["reference"], result["passes"]

    # -- checks and metrics -------------------------------------------------

    def check(self, references: list[dict], passes: list[dict]):
        for reference in references:
            if reference["digest"] != self.reference["sha256"]:
                self.fail(reference["trials"], f"reference CSV sha256 {reference['digest']} "
                                               f"!= {self.reference['sha256']}")
        expected = passes[0]["digest"]
        words = None
        for p in references + passes:
            self.attempted += p["trials"]
            if p["failed"]:
                self.fail(p["failed"], f"{p['failed']} theorem trial(s) failed or raised")
        for p in passes:
            if p["digest"] != expected:
                kind = "traced" if p["traced"] else "untraced"
                self.fail(p["trials"], f"{kind} pass CSV digest {p['digest'][:16]} differs "
                                       f"from the first pass's {expected[:16]}")
            if p["traced"]:
                if words is not None and p["layers"]["rng.words"] != words:
                    self.fail(p["trials"], f"rng.words {p['layers']['rng.words']} != {words}")
                words = p["layers"]["rng.words"]
        self.notes.append(f"csv sha256 at seed {self.seed}: {expected}")

    def end_to_end(self, passes) -> dict:
        """Pass timings are reported as the fastest pass of the run.  On a
        shared host other tenants only ever add time, in stretches of
        seconds to minutes, so the fastest pass is the steadiest estimate of
        the program's own cost; README.md gives the spreads measured."""
        walls = [p["wall_s"] for p in passes]
        wall = min(walls)
        trials = passes[0]["trials"]
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(self.setup_walls),
            "trials_per_s": trials / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        q1, median, q3 = quartiles(walls)
        self.notes.append(f"wall_s over {len(walls)} passes of {trials} theorem trials: "
                          f"fastest {wall:.4f} q1 {q1:.4f} median {median:.4f} q3 {q3:.4f} s")
        self.notes.append(f"setup_s over {len(self.setup_walls)} probes: "
                          + " ".join(f"{w:.4f}" for w in self.setup_walls))
        if "suite_s" in passes[0]:
            per_trial = self.workload.smoke_trials if self.smoke else self.workload.trials
            for suite in self.workload.suites:
                ms = [1000.0 * p["suite_s"][suite] / per_trial for p in passes]
                self.figures[f"ms_per_trial.{SUITE_METRIC[suite]}"] = min(ms)
                self.notes.append(f"ms_per_trial.{SUITE_METRIC[suite]} {min(ms):.4f} ms "
                                  f"(fastest of {len(ms)} passes; median "
                                  f"{statistics.median(ms):.4f})")
        ratio = self.failed / self.attempted if self.attempted else 0.0
        self.notes.append(f"fail_ratio {ratio:.6g} ({self.failed} of {self.attempted} trials)")
        self.figures.update(metrics, fail_ratio=ratio)
        return metrics

    def per_layer(self, untraced, traced) -> dict:
        """The figures of the fastest traced pass, whose layer self times add
        up to its traced wall time; overhead is measured fastest against
        fastest, as ``wall_s`` is.  A traced CLI pass is timed twice: as a
        whole process, for the overhead, and from ``import pseudosim`` to the
        return of ``main``, for the layers."""
        fastest = min(traced, key=lambda p: p["wall_s"])
        wall = fastest.get("span_wall_s", fastest["wall_s"])
        metrics = with_wall(fastest["layers"], wall)
        for name in ("import.scipy_s", "import.pseudosim_s"):
            metrics[name] = statistics.median(i[name] for i in self.imports)
        metrics["reports.bytes"] = fastest.get("bytes", 0)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = fastest["wall_s"] - min(p["wall_s"] for p in untraced)
        self.notes.append(f"fastest of {len(traced)} traced passes: traced wall {wall:.4f} s, "
                          f"layer self times sum to {wall - metrics['trace.unattributed_s']:.4f} s, "
                          f"overhead {metrics['trace.overhead_s']:.4f} s")
        return metrics

    def write_record(self, result, passes):
        """The run's manifest, result, extra figures, failed checks and every
        pass's timings, for the baseline and for a closer look at the noise."""
        path = OUT / f"run-{self.workload.name}-seed{self.seed}-trace{int(self.trace)}.json"
        keep = ("traced", "wall_s", "suite_s", "peak_rss_mb")
        record = {"manifest": self.manifest, "result": result, "figures": self.figures,
                  "problems": self.problems,
                  "passes": [{k: p[k] for k in keep if k in p} for p in passes]}
        path.write_text(json.dumps(record, indent=1) + "\n")
        self.notes.append(f"record: {path.relative_to(ROOT)}")

    def execute(self) -> dict:
        OUT.mkdir(exist_ok=True)
        self.read_manifest()
        run_block = self.cli_passes if self.workload.cli else self.inprocess_passes
        references, passes = [], []
        for _ in range(PASS_BLOCKS):
            self.probe_setup()
            reference, block = run_block(self.seconds / PASS_BLOCKS)
            references.append(reference)
            passes += block
        self.probe_setup()
        self.check(references, passes)
        untraced = [p for p in passes if not p["traced"]]
        if self.trace:
            metrics = self.per_layer(untraced, [p for p in passes if p["traced"]])
            units = per_layer_units()
        else:
            metrics = self.end_to_end(untraced)
            units = END_TO_END_UNITS
        result = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        self.write_record(result, passes)
        return result


def run_one(args) -> int:
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke)
    result = run.execute()
    for line in run.notes:
        print(f"# {args.workload}: {line}")
    for problem in run.problems:
        print(f"# {args.workload}: CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name}  {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own benchmark process."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {name}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pseudosim benchmark")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts, one set-up probe (for the smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pseudosim" / "__init__.py").is_file():
        print(f"error: no pseudosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
