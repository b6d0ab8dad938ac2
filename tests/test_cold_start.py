"""Cold starts: each entry point loads only the modules its subcommand runs,
and each process exit leaves nothing behind.

Every case starts a fresh interpreter with `PYTHONPATH=src`, so nothing the
test process has imported leaks in.  The loaded `xscore.*` modules (and
a few heavy stdlib ones) are a deterministic count of what a start pays
for, so an import regression shows here without timing.
"""
import atexit
import importlib
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import xscore
from xscore import __main__ as entry
from xscore import cli, clfserver, games
from xscore.classify import Entity, load_truth_table_csv
from xscore.dbscores import NothingToExplainError

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ENV.pop("XSCORE_BUDGET", None)

EX1 = "--relation R=tests/data/ex1_R.csv --relation S=tests/data/ex1_S.csv"
Q = "--query 'Q() :- S(x), R(x,y), S(y)'"
TABLE = "tests/data/ex6_table.csv"
SAMPLE = "tests/data/ex6_sample.csv"
EX6 = f"ml-scores --classifier {TABLE} --entity 011"
CMD = f"ml-scores --classifier-cmd '{sys.executable} -m xscore.clfserver {TABLE}' --entity 011"
ALL = "--kinds responsibility,causal_effect,shapley,banzhaf"
APPROX = "--kinds shapley --mode approx --epsilon 0.2 --delta 0.1 --seed 7"

# Each subcommand loads its own handler module, `dbcli` or `mlcli`, and
# never the other one.  `ml-scores` meters its work with the package
# root's `meter`, so it loads no `games`, loads `clfserver` (and `csv`)
# only to read a truth-table or sample CSV, `knowledge` only for a
# constraint, a sample or a non-uniform distribution, and `_child` (and
# `select`) only to run a classifier child.
FORMULA = {"xscore._record", "xscore.formula"}
REL = {"xscore.cli", "xscore.dbcli", "xscore.reldb"} | FORMULA
DB = REL | {"xscore.dbscores", "xscore.games"}
ML = {"xscore.cli", "xscore.mlcli", "xscore._record", "xscore.classify", "xscore.mlscores"}
ML_CSV = ML | {"xscore.clfserver"}
ML_CMD = ML | {"xscore._child"}
KNOWLEDGE = {"xscore.knowledge"}
# No start loads `dataclasses` or `inspect`, nor `hashlib` and OpenSSL:
# Monte Carlo seeds take CPython's own sha256.  Only the scoring starts make
# rationals, only a start that writes a JSON report loads `json`, and only
# one that reads a CSV loads `csv`.
WATCHED = (
    "hashlib", "_hashlib", "subprocess", "select", "dataclasses", "inspect", "fractions",
    "json", "csv",
)
JSON = {"json"}
CSV = {"csv"}
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
        sys.stdin = io.TextIOWrapper(io.BytesIO(b"011\\n"))
        sys.stdout = io.TextIOWrapper(io.BytesIO())
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
        (f"analyze {Q}", REL, JSON | CSV),
        (f"lineage {EX1} {Q}", REL, JSON | CSV),
        (f"db-scores {EX1} {Q} {ALL}", DB, SCORES | CSV),
        (f"db-scores {EX1} {Q} {APPROX}", DB, SCORES | CSV),
        (EX6, ML_CSV, SCORES | CSV),
        (f"{EX6} --constraint '!(F1 & ~F2)'", ML_CSV | FORMULA | KNOWLEDGE, SCORES | CSV),
        (f"{EX6} --distribution empirical --sample {SAMPLE}", ML_CSV | KNOWLEDGE, SCORES | CSV),
        (f"{EX6} --distribution product --marginals 1/2,1/3,3/4", ML_CSV | KNOWLEDGE,
         SCORES | CSV),
        (CMD, ML_CMD, SCORES | {"select"}),
        (f"clfserver {TABLE}", {"xscore.clfserver"}, CSV),
    ],
    ids=[
        "version", "analyze", "lineage", "db-exact", "db-approx", "ml-scores",
        "ml-scores-constraint", "ml-scores-empirical", "ml-scores-product", "ml-scores-cmd",
        "clfserver",
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


@pytest.mark.parametrize(
    "command, code, modules",
    [
        ("analyze --query 'Q() :- S(x'", cli.EXIT_PARSE, REL),
        (f"{EX6} --budget 1", cli.EXIT_BUDGET, ML_CSV),
        (f"{EX6} --constraint 'F1 & ~F1'", cli.EXIT_ZERO_MASS, ML_CSV | FORMULA | KNOWLEDGE),
        (f"{CMD} --features A,B", cli.EXIT_PARSE, ML_CMD),
    ],
    ids=["analyze-parse", "ml-budget", "ml-zero-mass", "ml-cmd-features"],
)
def test_an_error_maps_to_its_exit_code_loading_no_module(command, code, modules):
    # The exit-code table reads each class from its module only once that
    # module is loaded, so no start loads `dbscores` or `games` to exit 3.
    proc = cold("-c", CHILD, *shlex.split(command))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == code, proc.stderr
    assert {m for m in result["loaded"] if m.startswith("xscore.")} == modules


def test_exit_code_table_names_classes_of_its_modules():
    for module, name, code in cli.EXIT_CODES:
        assert issubclass(getattr(importlib.import_module(module), name), Exception), name
    assert cli._exit_code(games.BudgetExceededError("over")) == cli.EXIT_BUDGET
    assert cli._exit_code(NothingToExplainError("false")) == cli.EXIT_QUERY_FALSE
    assert cli._exit_code(KeyError("k")) is None


def test_games_reexports_the_root_meter_and_errors():
    assert games.meter is xscore.meter
    assert games.BudgetExceededError is xscore.BudgetExceededError
    assert games.GameError is xscore.GameError
    assert games.DEFAULT_BUDGET == xscore.DEFAULT_BUDGET
    assert issubclass(games.BudgetExceededError, games.GameError)
    assert issubclass(games.PlayerNotInGameError, games.GameError)
    assert clfserver.PROTOCOL_HANDSHAKE is xscore.PROTOCOL_HANDSHAKE
    assert clfserver.check_feature_names is xscore.check_feature_names


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
    # loaded, so the exit code comes from the CLI's table of loaded classes.
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


# ---------------------------------------------------------------------------
# Exits: the process entries leave through `xscore.exit_process`, which runs
# the `atexit` handlers and flushes stdout and stderr, then skips the
# interpreter's teardown; output, exit codes and children must come out as
# before.


def test_clfserver_process_answers_then_exits_0():
    _, local = load_truth_table_csv(ROOT / TABLE)
    requests = ["".join(map(str, bits)) for bits in product((0, 1), repeat=3)]
    proc = subprocess.run(
        [sys.executable, "-m", "xscore.clfserver", TABLE], cwd=ROOT, env=ENV,
        input="".join(f"{r}\n" for r in requests), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    handshake, *answers = proc.stdout.splitlines()
    assert handshake == "xscore-clf v1 n=3"
    assert answers == [str(local.label(Entity.from_bits(r))) for r in requests]


def test_clfserver_process_exits_1_on_a_malformed_request():
    proc = subprocess.run(
        [sys.executable, "-m", "xscore.clfserver", TABLE], cwd=ROOT, env=ENV,
        input="011\n01\n011\n", capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == "xscore-clf v1 n=3\n1\n"
    assert proc.stderr == "malformed request '01'\n"


@pytest.mark.parametrize(
    "args, table, code, stderr",
    [
        ((), None, 2, "usage: python -m xscore.clfserver TABLE.csv\n"),
        (("{path}",), None, 1, "error: [Errno 2] No such file or directory: '{path}'\n"),
        (("{path}",), "A,label\n0,1\n", 1, "error: truth table has 1 rows, needs all 2\n"),
    ],
    ids=["usage", "missing-table", "one-row-table"],
)
def test_clfserver_process_refuses_a_bad_start_in_one_line(tmp_path, args, table, code, stderr):
    path = tmp_path / "table.csv"
    if table is not None:
        path.write_text(table)
    proc = subprocess.run(
        [sys.executable, "-m", "xscore.clfserver", *(a.format(path=path) for a in args)],
        cwd=ROOT, env=ENV, input="011\n", capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr == stderr.format(path=path)


def test_output_file_from_a_process_matches_in_process(tmp_path, capsys, monkeypatch):
    command = f"db-scores {EX1} {Q} {ALL}"
    target = tmp_path / "nested" / "report.json"
    proc = cold("-m", "xscore", *shlex.split(command), "--output", str(target))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("XSCORE_BUDGET", raising=False)
    assert cli.main(shlex.split(command)) == 0
    expected = report_without_timing(capsys.readouterr().out)
    assert report_without_timing(target.read_text(encoding="utf-8")) == expected


def test_no_classifier_outlives_the_cli(tmp_path):
    # The wrapper writes its pid, then becomes the server under that pid.
    pid_file = tmp_path / "server.pid"
    server = shlex.join([
        "sh", "-c", 'echo $$ > "$0"; exec "$@"', str(pid_file),
        sys.executable, "-m", "xscore.clfserver", TABLE,
    ])
    proc = cold("-m", "xscore", "ml-scores", "--classifier-cmd", server, "--entity", "011",
                "--kinds", "counter,resp")
    assert proc.returncode == 0, proc.stderr
    pid = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_only_the_process_entries_exit_through_exit_process(monkeypatch, capsys):
    # The handlers are the test process's own, so they are recorded, not run.
    events = []
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append("atexit"))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(f"exit {code}"))
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("XSCORE_BUDGET", raising=False)

    assert cli.main(shlex.split(f"db-scores {EX1} {Q} {ALL}")) == 0
    assert cli.main(shlex.split(EX6)) == 0
    assert clfserver.serve(TABLE, io.BytesIO(b"011\n"), io.BytesIO()) == 0
    assert events == []

    def main():
        code = cli.main()
        events.append("main returned")
        return code

    monkeypatch.setattr(entry, "main", main)
    monkeypatch.setattr(sys, "argv", ["xscore", *shlex.split(f"analyze {Q}")])
    entry.run()
    assert events == ["main returned", "atexit", "exit 0"]

    events.clear()
    monkeypatch.setattr(sys, "argv", ["clfserver", TABLE])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"011\n")))
    monkeypatch.delitem(sys.modules, "xscore.clfserver")  # as `python -m` finds it
    runpy.run_module("xscore.clfserver", run_name="__main__")
    assert events == ["atexit", "exit 0"]
    assert capsys.readouterr().out.endswith("xscore-clf v1 n=3\n1\n")


def test_exit_runs_atexit_handlers_registered_before_and_during_main():
    code = """
import atexit, sys
from xscore import __main__ as entry
atexit.register(print, "registered before run")
main = entry.main
def registering_main():
    atexit.register(print, "registered during main")
    return main()
entry.main = registering_main
sys.argv = ["xscore", "--version"]
entry.run()
print("not reached")
"""
    proc = cold("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "xscore 0.1.0\nregistered during main\nregistered before run\n"


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    rows = 6000
    relation = tmp_path / "R.csv"
    relation.write_text("a,b\n" + "".join(f"{i},{i % 7}\n" for i in range(rows)))
    proc = cold("-m", "xscore", "lineage", "--relation", f"R={relation}",
                "--query", "Q() :- R(x,y)")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.encode()) > 1 << 16
    [record] = json.loads(proc.stdout)["records"]
    assert record["support"] == sorted(f"R:{i}" for i in range(rows))


def test_a_closed_stdout_exits_120_as_a_plain_interpreter_does():
    # The report stays buffered until the flush at exit meets the closed
    # pipe; that flush must fail as the interpreter's own would.
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}

    def closed_stdout(*argv):
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=write,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write)

    plain = closed_stdout("-c", "print('xscore')")
    assert plain.returncode == 120 and "BrokenPipeError" in plain.stderr
    for argv in (["--version"], shlex.split(f"analyze {Q}")):
        proc = closed_stdout("-m", "xscore", *argv)
        assert (proc.returncode, proc.stderr) == (120, plain.stderr)


@pytest.mark.parametrize(
    "argv",
    [f"analyze {Q}", f"db-scores {EX1} {Q} {ALL} --format table"],
    ids=["analyze-json", "db-scores-table"],
)
def test_a_closed_stdout_descriptor_is_refused_in_one_line(argv):
    # With descriptor 1 closed before start, `sys.stdout` is None: the
    # report is refused through the OSError exit code, not a traceback.
    command = shlex.join([sys.executable, "-m", "xscore", *shlex.split(argv)])
    proc = subprocess.run(["sh", "-c", f"exec {command} >&-"], cwd=ROOT, env=ENV,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "xscore: error: standard output is closed\n")


def test_installed_command_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["xscore"].partition(":")
    assert getattr(importlib.import_module(module), name) is entry.run
