"""The study scripts run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_conditioning_sweep():
    rows = run_script("conditioning_sweep.py", "--lmax", "21", "--draws", "2").splitlines()[1:]
    assert len(rows) == 11
    for row in rows:
        plain, built_in = map(float, row.split()[2:4])
        assert built_in <= plain, row  # the recorded factor was the best of a set including 1


def test_phantom_recon():
    assert "zero_padded" in run_script("phantom_recon.py", "--holdout", "50")
