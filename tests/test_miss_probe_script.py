"""Smoke test of ``scripts/miss_probe.py``, the single-address REST probe
that reads process CPU per memo-hit and per memo-miss ``geocode_one``.
Runs it in a subprocess, as it is run from the command line."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "miss_probe.py")


def test_miss_probe_prints_hit_and_miss_cpu():
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--pool", "200", "--misses", "8",
         "--hits", "8", "--seed", "3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["pool"] == 200 and out["warm"] == 160
    assert out["hits"] + out["misses"] == 16
    assert out["hits"] >= 8 and out["misses"] >= 1
    assert 0 < out["hit_cpu_ms"] and 0 < out["miss_cpu_ms"]
    assert 0 < out["hit_cpu_ms_p50"] and 0 < out["miss_cpu_ms_p50"]


def test_miss_probe_rejects_more_misses_than_the_pool_holds():
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--pool", "50", "--misses", "11"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "exceeds" in proc.stderr
