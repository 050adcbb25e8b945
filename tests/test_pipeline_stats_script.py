"""Smoke test of ``scripts/pipeline_stats.py``: the one entry point that
drives both ``geocode_documents`` and ``step_stats``, the step table
counted from the same run's rows.  Runs it in a subprocess (the script
owns its own Ray session)."""

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
    at = lines.index("== per-step cascade counters (same run) ==")
    header, first = lines[at + 1].split(), lines[at + 2].split()
    assert header == ["step", "method", "todo", "match", "match_26",
                      "errors", "reject_rec", "reject_addr", "reject_mism"]
    assert first[:2] == ["0", "orig"]
    assert all(v.isdigit() for v in first[2:])
