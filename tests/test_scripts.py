"""Smoke runs of the example scripts at a tiny size, as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from fairline.evaluation import read_report

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_frontier_compare_script():
    proc = run_script("run_frontier_compare.py", "--n", "400", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(ln.startswith("frontier gap:") for ln in lines) == 1
    assert sum(ln.startswith("ERM anchor:") for ln in lines) == 1


def test_tradeoff_sweep_script(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_script("run_tradeoff_sweep.py", "--n", "400", "--epochs", "1",
                      "--metric", "eo", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 21
    assert [float(r.split()[0]) for r in rows] == [k / 20 for k in range(21)]
    assert [r.alpha for r in read_report(out)] == [k / 20 for k in range(21)]
