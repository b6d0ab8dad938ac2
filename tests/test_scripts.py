"""The scripts under `scripts/` print exactly their committed output."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("worked_examples", []),
        ("mc_error_sweep", ["--runs", "3", "--epsilons", "0.2,0.1"]),
    ],
    ids=["worked_examples", "mc_error_sweep"],
)
def test_script_golden(script, args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args],
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert result.stdout == (ROOT / "tests" / "data" / f"{script}.txt").read_bytes()
