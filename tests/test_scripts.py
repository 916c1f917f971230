"""The scripts under scripts/ refuse invalid input, and inputs that leave
nothing to report, with exit 2 and no traceback, before any scan or chain
runs."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from burgess.sieve import SIEVE_LIMIT

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_pv_scan_without_primes_exits_2():
    proc = run_script("pv_scan.py", "--limit", "2")
    assert proc.returncode == 2
    assert "no odd prime" in proc.stderr
    assert "worst ratio" not in proc.stdout


def test_pv_scan_above_table_cap_exits_2_up_front():
    t0 = time.perf_counter()
    proc = run_script("pv_scan.py", "--limit", "2000",
                      BURGESS_TABLE_LIMIT="1000")
    assert time.perf_counter() - t0 < 2
    assert proc.returncode == 2
    assert "exceeds table limit 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--limit", str(2 * SIEVE_LIMIT)), "above cap"),
    (("--limit", "100", "--top", "-3"), "--top must be at least 0"),
])
def test_pv_scan_bad_input_exits_2(args, message):
    proc = run_script("pv_scan.py", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "worst ratio" not in proc.stdout


def test_pv_scan_top_zero_prints_no_row():
    proc = run_script("pv_scan.py", "--limit", "100", "--top", "0")
    assert proc.returncode == 0
    header = proc.stdout.splitlines().index(
        f"{'q':>8} {'max|S|':>10} {'sqrt(q)logq':>12} {'ratio':>8}")
    assert proc.stdout.splitlines()[header + 1:] == []


@pytest.mark.parametrize("args, message", [
    (("--q", "10008"), "10008 is not prime"),
    (("--exponents", "abc"), "could not convert"),
    (("--r", "1"), "--r must be at least 2"),
])
def test_holder_sweep_bad_input_exits_2(args, message):
    proc = run_script("holder_sweep.py", *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_holder_sweep_slack_past_the_double_range(tmp_path):
    # at r = 300 rhs/lhs passes the double range; its log10 is taken from
    # the exact integers, so the chain's pass exits 0 with a finite slack
    out = tmp_path / "rows.jsonl"
    proc = run_script("holder_sweep.py", "--q", "10007", "--r", "300",
                      "--windows", "1", "--exponents", "0.4",
                      "--jsonl", str(out))
    assert proc.returncode == 0, proc.stderr
    (row,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert 308 < row["min_slack_log10"] < math.inf
