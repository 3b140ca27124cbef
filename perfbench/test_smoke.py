"""Smoke test of the benchmark at tiny recording lengths (seconds per case).

    python -m pytest perfbench/test_smoke.py

Every workload, untraced and traced, must exit 0, pass its checks, emit
exactly the metric names and units BENCHMARK.json lists, and record its
environment on the ``# env`` line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--recording-seconds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("# env "))[6:])
    assert {"python", "numpy", "nproc", "loadavg_start", "loadavg_end", "git_commit", "seed",
            "recording_s"} <= set(env)
