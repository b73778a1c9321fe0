"""Smoke test of the README quickstart, `scripts/run_demo.py`."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_demo_reports_all_four_methods(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_demo.py"), "--workdir", str(tmp_path)],
        check=True, capture_output=True, env=env, timeout=120,
    )
    report = json.loads((tmp_path / "report.json").read_text())
    methods = {m["method"]: m for m in report["methods"]}
    assert list(methods) == ["slsreuse", "keyword", "embedding", "llm-variant"]
    for metrics in methods.values():
        assert metrics["recall"]
        assert all(0.0 <= value <= 100.0 for value in metrics["recall"].values())
