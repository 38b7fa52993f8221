"""Every demo script runs to completion against the package in src/.

Each demo's stdout is pinned by its sha256, so a change to the library that
alters what a demo prints (a count, a repr, a line of text) fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "enumerativity_audit.py": "705de4a4b8d627465ebf2193b0e7c96adaeff5a0d56556f536d690c23a17d52e",
    "hypersurface_pipeline.py": "489c5cb45461e672c9ae96bb3c6006d437412efc218a69420fcc3ca065638889",
    "insertions.py": "f9573d0de978e9c7d8d108be84e4b025e91c43072817f8611fe83a1556ef4f0b",
    "line_counts.py": "41c6244f7709aeb8f1e1c64096bb3a2f6783e821e24d69be95f60a761629388d",
    "quantum_ring.py": "6246cbf55690385557d2da4ddcb62786293c1f83f76e99860ba35424775d3c6b",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [path.name for path in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.name]
