"""CLI reports on `tests/data` match their committed golden copy.

Each case runs `xscore` in-process from the repository root, so the
relation paths echoed in `config` are stable, and records its exit code,
its stdout without the `timing` block, and its stderr.  Regenerate the
golden file with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""
import contextlib
import io
import json
import os
import shlex
from pathlib import Path

from xscore import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_reports.txt"

EX1 = "--relation R=tests/data/ex1_R.csv --relation S=tests/data/ex1_S.csv"
CE = "--relation R=tests/data/ce_R.csv --relation S=tests/data/ce_S.csv"
PATH = "--relation E=tests/data/path_E.csv"
EX6 = "ml-scores --classifier tests/data/ex6_table.csv --entity 011"
ALL_DB = "--kinds responsibility,causal_effect,shapley,banzhaf"
# The entity 011 itself has no mass: only the full coalition is zero-mass.
WITHOUT_ENTITY = "--constraint '!(~F1 & F2 & F3)'"

CASES = [
    f"db-scores {EX1} --query 'Q() :- S(x), R(x,y), S(y)' {ALL_DB}",
    f"db-scores {CE} --query 'Q() :- R(x,y), S(y)' {ALL_DB}",
    f"db-scores {CE} --query 'Q() :- R(x,y), S(y)' --kinds causal_effect --probability 1/3",
    f"db-scores {PATH} --lineage-file tests/data/path_lineage.txt {ALL_DB}",
    f"db-scores {EX1} --query 'Q() :- S(x), R(x,y), S(y)' --kinds shapley --mode approx"
    " --epsilon 0.2 --delta 0.1 --seed 7",
    f"db-scores {PATH} --lineage-file tests/data/path_lineage.txt --kinds shapley"
    " --mode approx --epsilon 0.25 --delta 0.2 --seed 3",
    f"db-scores {EX1} --query 'Q() :- S(x), R(x,y), S(y)' {ALL_DB} --format table",
    f"db-scores {PATH} --lineage 't1 & ~t2'",
    f"db-scores {PATH} --lineage 't1 | t99'",
    f"db-scores {PATH} --lineage '(t1'",
    f"{EX6}",
    f"{EX6} --format table",
    f"{EX6} {WITHOUT_ENTITY} --skip-zero-mass",
    f"{EX6} {WITHOUT_ENTITY}",
    f"{EX6} --kinds shap --constraint '!(F2)' --skip-zero-mass",
    f"{EX6} --kinds shap --constraint '!(F2)'",
    f"{EX6} --constraint 'F1 &'",
    f"{EX6} --constraint 'F9'",
    f"{EX6} --constraint 'F1 F2'",
    f"{EX6} {WITHOUT_ENTITY} --skip-zero-mass --format table",
    "analyze --query 'Q() :- S(x), R(x,y), S(y)' --format table",
    f"lineage {EX1} --query 'Q() :- S(x), R(x,y), S(y)' --format table",
]


def report(command: str) -> str:
    """One case's section of the golden file; run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    stdout = out.getvalue()
    if stdout.startswith("{"):
        parsed = json.loads(stdout)
        del parsed["timing"]
        stdout = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    return f"$ xscore {command}\n--- exit {code}\n--- stdout\n{stdout}--- stderr\n{err.getvalue()}"


def reports() -> str:
    return "\n".join(report(command) for command in CASES)


def test_cli_reports_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("XSCORE_BUDGET", raising=False)
    assert reports() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("XSCORE_BUDGET", None)
    GOLDEN.write_text(reports(), encoding="utf-8")
