"""Smoke test for the scripts that drive the library from outside."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_benchmarks_exits_zero():
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "run_benchmarks.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "TrojanDetected" in proc.stdout
