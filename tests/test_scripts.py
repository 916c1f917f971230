"""The scripts under scripts/ refuse inputs that leave nothing to report
with exit 2, the code for invalid input, before any scan or chain runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_pv_scan_without_primes_exits_2():
    proc = run_script("pv_scan.py", "--limit", "2")
    assert proc.returncode == 2
    assert "no odd prime" in proc.stderr
    assert "worst ratio" not in proc.stdout


@pytest.mark.parametrize("windows", ["0", "-3"])
def test_holder_sweep_without_windows_exits_2(windows):
    proc = run_script("holder_sweep.py", "--windows", windows)
    assert proc.returncode == 2
    assert "--windows must be at least 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_holder_sweep_without_rows_exits_2():
    # N = floor(10007^0.01) = 1: every cell is degenerate
    proc = run_script("holder_sweep.py", "--exponents", "0.01")
    assert proc.returncode == 2
    assert "degenerate, skipped" in proc.stdout
    assert "no row produced" in proc.stderr
