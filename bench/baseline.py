"""Record a baseline: each workload of BENCHMARK.json over several seeds,
untraced, then one traced run each; write medians and quartiles per metric
to a JSON file.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

The spread of a metric is (q3 - q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, OUT, ROOT
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads((OUT / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default the workloads of BENCHMARK.json")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    baseline = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workload or [w["name"] for w in SPEC["workloads"]]:
        runs = [run(name, seed, args.seconds, 0) for seed in range(first, last + 1)]
        figures: dict[str, list[float]] = {}
        for r in runs:
            for metric, value in r["figures"].items():
                figures.setdefault(metric, []).append(value)
        traced = run(name, first, args.seconds, 1)
        baseline["workloads"][name] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "end_to_end": {metric: summary(values) for metric, values in figures.items()},
            "per_layer_seed": first,
            "per_layer": {metric: m["value"] for metric, m in traced["result"]["metrics"].items()},
            "manifest": runs[0]["manifest"],
        }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
