"""The scripts under `scripts/` print exactly their committed output."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worked_examples_golden():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert result.stdout == (ROOT / "tests" / "data" / "worked_examples.txt").read_bytes()
