"""Tests of the benchmark's own checks, on small inputs (about a minute):

    python3 bench/selftest.py

Every workload must pass clean, untraced and traced, and must fail when
run.py corrupts one output the way a faulty program would: a swapped
ranking (query-20k), a dropped unit (extract-remote) and a miscounted hit
(evaluate-110q). It must also fail when ops raise (query-20k).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CASES = [
    ("query-20k", None), ("query-20k", "swap"), ("query-20k", "raise"),
    ("extract-remote", None), ("extract-remote", "drop"),
    ("evaluate-110q", None), ("evaluate-110q", "miscount"),
]


def run(workload: str, inject: str | None, trace: int) -> tuple[int, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--small"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = 0
    for workload, inject in CASES:
        code, doc = run(workload, inject, 0)
        ok = (code == 0 and doc["correct"]) if inject is None else (code == 1 and not doc["correct"])
        ok = ok and set(doc["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        print(f"{'PASS' if ok else 'FAIL'} {workload} {inject or 'clean'}: exit {code}, "
              f"correct={doc['correct']}")
        failures += not ok
    for workload in ("query-20k", "extract-remote", "evaluate-110q"):
        code, doc = run(workload, None, 1)
        ok = code == 0 and doc["correct"] and set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        print(f"{'PASS' if ok else 'FAIL'} {workload} traced: exit {code}, correct={doc['correct']}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
