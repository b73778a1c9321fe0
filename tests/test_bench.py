"""Smoke test of the benchmark, `bench/run.py --small`: the traced query
workload and the evaluate workload must run and pass the benchmark's own
output checks, so a renamed traced function or a changed result shape
fails here rather than in a full benchmark run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [("query-20k", 1), ("evaluate-110q", 0)])
def test_small_benchmark_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "checks: all outputs correct" in proc.stdout
