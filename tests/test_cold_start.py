"""Cold starts: each entry point loads only the modules its subcommand runs.

Every case starts a fresh interpreter with `PYTHONPATH=src`, so nothing the
test process has imported leaks in.  The loaded `xscore.*` modules (and
a few heavy stdlib ones) are a deterministic count of what a start pays
for, so an import regression shows here without timing.
"""
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xscore import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("XSCORE_BUDGET", None)

EX1 = "--relation R=tests/data/ex1_R.csv --relation S=tests/data/ex1_S.csv"
Q = "--query 'Q() :- S(x), R(x,y), S(y)'"
EX6 = "ml-scores --classifier tests/data/ex6_table.csv --entity 011"
ALL = "--kinds responsibility,causal_effect,shapley,banzhaf"
APPROX = "--kinds shapley --mode approx --epsilon 0.2 --delta 0.1 --seed 7"

LEX = {"xscore._lex", "xscore._record", "xscore.formula"}
REL = {"xscore.cli", "xscore.reldb"} | LEX
DB = REL | {"xscore.dbscores", "xscore.games"}
ML = {
    "xscore.cli", "xscore._record", "xscore.classify", "xscore.clfserver", "xscore.mlscores",
    "xscore.games",
}
# No start loads `dataclasses` or `inspect`; only the scoring ones make
# rationals, and only a start that writes a JSON report loads `json`.
WATCHED = ("hashlib", "subprocess", "select", "dataclasses", "inspect", "fractions", "json")
JSON = {"json"}
SCORES = {"fractions"} | JSON

# A fresh process runs `xscore.clfserver` (first argument "clfserver") or
# `xscore.cli.main` on its arguments, then prints its exit code and the
# `xscore.*` and watched modules it loaded.  It imports `json` only after
# taking that list.
CHILD = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "clfserver":
        from xscore import clfserver
        sys.stdin = io.StringIO("011\\n")
        code = clfserver.main(sys.argv[2:])
    else:
        from xscore import cli
        code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("xscore.") or m in %r]
import json
print(json.dumps({"code": code, "loaded": sorted(loaded)}))
""" % (WATCHED,)


def cold(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "command, modules, stdlib",
    [
        ("--version", {"xscore.cli"}, set()),
        (f"analyze {Q}", REL, JSON),
        (f"lineage {EX1} {Q}", REL, JSON),
        (f"db-scores {EX1} {Q} {ALL}", DB, SCORES),
        (f"db-scores {EX1} {Q} {APPROX}", DB, SCORES | {"hashlib"}),
        (EX6, ML, SCORES),
        (f"{EX6} --constraint '!(F1 & ~F2)'", ML | LEX, SCORES),
        ("clfserver tests/data/ex6_table.csv", {"xscore.clfserver"}, set()),
    ],
    ids=[
        "version", "analyze", "lineage", "db-exact", "db-approx", "ml-scores",
        "ml-scores-constraint", "clfserver",
    ],
)
def test_entry_point_loads_only_its_modules(command, modules, stdlib):
    proc = cold("-c", CHILD, *shlex.split(command))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    loaded = set(result["loaded"])
    assert {m for m in loaded if m.startswith("xscore.")} == modules
    assert loaded & set(WATCHED) == stdlib


def report_without_timing(text: str) -> dict:
    report = json.loads(text)
    del report["timing"]
    return report


@pytest.mark.parametrize(
    "command",
    [
        f"db-scores {EX1} {Q} {ALL}",
        f"db-scores {EX1} {Q} {APPROX}",
        f"{EX6} --distribution product --marginals 1/2,1/3,3/4",
        f"analyze {Q}",
        f"lineage {EX1} {Q}",
    ],
    ids=["db-exact", "db-approx", "ml-scores", "analyze", "lineage"],
)
def test_python_m_xscore_matches_in_process(command, capsys, monkeypatch):
    proc = cold("-m", "xscore", *shlex.split(command))
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("XSCORE_BUDGET", raising=False)
    assert cli.main(shlex.split(command)) == 0
    assert report_without_timing(proc.stdout) == report_without_timing(capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("analyze --query 'Q() :- S(x'", cli.EXIT_PARSE, "expected ')'"),
        (f"db-scores {EX1} --query 'Q() :- R(x,\"a\")'", cli.EXIT_QUERY_FALSE, "false"),
        (f"db-scores {EX1} {Q} --kinds shapley --budget 1", cli.EXIT_BUDGET, "budget is 1"),
        (
            f"ml-scores --classifier-cmd '{sys.executable} -c \"print(1)\"' --entity 011",
            cli.EXIT_PROTOCOL,
            "bad handshake",
        ),
        (f"{EX6} --constraint 'F1 & ~F1'", cli.EXIT_ZERO_MASS, "zero mass"),
    ],
    ids=["parse", "query-false", "budget", "protocol", "zero-mass"],
)
def test_exit_codes_from_a_cold_process(command, code, message):
    # The error is raised while only the subcommand's own modules are
    # loaded, so the exit code comes from the CLI's lazily imported table.
    proc = cold("-m", "xscore", *shlex.split(command))
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("xscore: error: ") and message in proc.stderr


def test_monte_carlo_shapley_honours_budget():
    # 184,443,973 samples over 6 players: refused up front, not sampled.
    started = time.monotonic()
    proc = cold(
        "-m", "xscore", "db-scores", *shlex.split(EX1), *shlex.split(Q),
        "--kinds", "shapley", "--mode", "approx", "--epsilon", "0.0001", "--delta", "0.05",
        "--budget", "1000", timeout=10,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert "units of work, budget is 1000" in proc.stderr
    assert elapsed < 1.0
