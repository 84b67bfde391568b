"""Smoke test of the benchmark: every workload at tiny trial counts, traced
and untraced, must pass its output checks and print every metric that
BENCHMARK.json names, with its unit.

    python3 -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import import_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines[:-1])
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert any(line.startswith(f"{workload}  {name}  ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), f"{name} is not printed with its unit"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "theorem-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_times_takes_outermost_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:        50 |         50 |         scipy.linalg._misc",
        "import time:       400 |        450 |       scipy.linalg",
        "import time:        10 |        760 |     pseudosim.linalg",
        "import time:        20 |        780 |   pseudosim",
    ])
    assert import_times(stderr) == {"import.scipy_s": 750e-6, "import.pseudosim_s": 780e-6}
