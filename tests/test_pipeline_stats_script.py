"""Smoke test of ``scripts/pipeline_stats.py``: the one entry point that
drives both ``geocode_documents`` and ``step_stats``.  Runs it in a
subprocess (the script owns its own Ray session)."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "pipeline_stats.py")


def test_pipeline_stats_prints_step_table():
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--docs", "200", "--num-cpus", "2"],
        capture_output=True, text=True, timeout=420,
        env={**os.environ, "RAY_ADDRESS": "local"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    at = lines.index("== per-step cascade stats (timestats analogue) ==")
    header, first = lines[at + 1].split(), lines[at + 2].split()
    assert header[:2] == ["step", "method"]
    assert {"todo", "sent", "match", "seconds"} <= set(header)
    assert first[:2] == ["0", "orig"]
