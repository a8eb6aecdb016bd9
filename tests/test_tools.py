"""Smoke tests of the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_api_finds_no_difference_within_one_tree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_api.py"), "src", "src", "--count", "200"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 of 200 configs differ; child exit codes 0, 0"
