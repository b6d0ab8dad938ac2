import json
import random
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from xscore import classify, cli, dbcli, dbscores, formula, games, reldb


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out.err
    return json.loads(out.out)


def db_args(data_dir, *extra):
    return (
        "db-scores",
        "--relation",
        f"R={data_dir / 'ex1_R.csv'}",
        "--relation",
        f"S={data_dir / 'ex1_S.csv'}",
        "--query",
        "Q() :- S(x), R(x,y), S(y)",
        *extra,
    )


EX1_RESPONSIBILITY = {
    "S(b)": "1",
    "R(a,b)": "1/2",
    "R(b,b)": "1/2",
    "S(a)": "1/2",
    "R(c,d)": "0",
    "S(c)": "0",
}


def test_db_scores_responsibility_golden(capsys, data_dir):
    report = run_json(capsys, *db_args(data_dir, "--kinds", "responsibility"))
    assert report["schema"] == "xscore/1"
    assert report["command"] == "db-scores"
    values = {r["tuple"]: r["value"] for r in report["records"]}
    assert values == EX1_RESPONSIBILITY
    by_id = {r["tuple"]: r for r in report["records"]}
    assert by_id["S(b)"]["is_counterfactual_cause"] is True
    assert by_id["R(a,b)"]["witness_contingency"] == ["R(b,b)"]
    # serialized rationals reparse exactly
    for record in report["records"]:
        assert float(Fraction(record["value"])) == record["value_float"]


def test_db_scores_causal_effect_golden(capsys, data_dir):
    report = run_json(
        capsys,
        "db-scores",
        "--relation",
        f"R={data_dir / 'ce_R.csv'}",
        "--relation",
        f"S={data_dir / 'ce_S.csv'}",
        "--query",
        "Q() :- R(x,y), S(y)",
        "--kinds",
        "causal_effect",
        "--tuple",
        "S(b)",
    )
    (record,) = report["records"]
    assert record["value"] == "9/16"


def test_db_scores_lineage_file(capsys, data_dir):
    report = run_json(
        capsys,
        "db-scores",
        "--relation",
        f"E={data_dir / 'path_E.csv'}",
        "--lineage-file",
        str(data_dir / "path_lineage.txt"),
        "--kinds",
        "causal_effect",
    )
    values = {r["tuple"]: r["value"] for r in report["records"]}
    assert values == {
        "t1": "21/32",
        "t2": "7/32",
        "t3": "7/32",
        "t4": "3/32",
        "t5": "3/32",
        "t6": "3/32",
    }


def test_db_scores_custom_probability(capsys, data_dir):
    # CE(t1) on lineage t1 | t2 is 1 - P(t2); with the coin biased to 1/3
    # that is 2/3 instead of the default 1/2
    report = run_json(
        capsys,
        "db-scores",
        "--relation",
        f"E={data_dir / 'path_E.csv'}",
        "--lineage",
        "t1 | t2",
        "--kinds",
        "causal_effect",
        "--probability",
        "1/3",
        "--tuple",
        "t1",
    )
    (record,) = report["records"]
    assert record["value"] == "2/3"


def test_db_scores_query_file(capsys, data_dir, tmp_path):
    query_file = tmp_path / "q.txt"
    query_file.write_text("Q() :- S(x), R(x,y), S(y)\n")
    report = run_json(
        capsys,
        "db-scores",
        "--relation",
        f"R={data_dir / 'ex1_R.csv'}",
        "--relation",
        f"S={data_dir / 'ex1_S.csv'}",
        "--query-file",
        str(query_file),
        "--kinds",
        "responsibility",
    )
    assert {r["tuple"]: r["value"] for r in report["records"]} == EX1_RESPONSIBILITY


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--query-file", "Q() :- S(x), R(x,y), S(y)"),
        ("--lineage-file", "t1 | (t2 & t3)"),
        ("--constraint-file", "F1 | F2"),
    ],
)
def test_text_files_drop_a_byte_order_mark(capsys, data_dir, tmp_path, flag, text):
    # Spreadsheets and some editors start a UTF-8 file with one.
    base = {
        "--query-file": db_args(data_dir)[:-2],
        "--lineage-file": ("db-scores", "--relation", f"E={data_dir / 'path_E.csv'}"),
        "--constraint-file": ml_args(data_dir, "--kinds", "counter"),
    }[flag]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text + "\n", encoding="utf-8")
    marked.write_text("\ufeff" + text + "\n", encoding="utf-8")
    expected = run_json(capsys, *base, flag, str(plain))["records"]
    assert run_json(capsys, *base, flag, str(marked))["records"] == expected


# Each reader's text with one byte that is not UTF-8.
UNDECODABLE = {
    "relation": b"_id,a,b\nr1,a,b\nr2,\xffa,b\n",
    "truth-table": b"F1,label\n0,0\n1,\xff\n",
    "sample": b"F1,F2\n0,1\n1,\xff\n",
    "query-file": b"Q() :- S(x),\n R(x,y),\n S(\xff)\n",
    "lineage-file": b"t1 |\n t2 |\n \xff\n",
    "constraint-file": b"F1 | F2\n# \xff\n",
}


@pytest.mark.parametrize("reader", UNDECODABLE)
def test_undecodable_input_names_its_file_and_line(capsys, data_dir, tmp_path, reader):
    # Each file starts with a byte-order mark, which the line count skips.
    text, bad = UNDECODABLE[reader], tmp_path / "bad.txt"
    bad.write_bytes(b"\xef\xbb\xbf" + text)
    line = text.count(b"\n", 0, text.index(b"\xff")) + 1
    argv = {
        "relation": db_args(data_dir)[:2] + (f"R={bad}",) + db_args(data_dir)[3:],
        "truth-table": ("ml-scores", "--classifier", str(bad), "--entity", "0"),
        "sample": ml_args(data_dir, "--distribution", "empirical", "--sample", str(bad)),
        "query-file": db_args(data_dir)[:-2] + ("--query-file", str(bad)),
        "lineage-file": (
            "db-scores", "--relation", f"E={data_dir / 'path_E.csv'}", "--lineage-file", str(bad),
        ),
        "constraint-file": ml_args(data_dir, "--constraint-file", str(bad)),
    }[reader]
    code, out = run(capsys, *argv)
    assert (code, out.out) == (cli.EXIT_PARSE, "")
    assert out.err == f"xscore: error: {bad}: invalid UTF-8 byte 0xff at line {line}\n"


@pytest.mark.parametrize("command", ["", "   "])
def test_empty_classifier_cmd_is_one_error_line(capsys, command):
    # Both split into no words: there is no program to start.
    code, out = run(capsys, "ml-scores", "--classifier-cmd", command, "--entity", "011")
    assert (code, out.err) == (cli.EXIT_PARSE, "xscore: error: empty classifier command\n")


def test_db_scores_query_and_lineage_both_rejected(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir, "--lineage", "t1"))
    assert code == cli.EXIT_PARSE
    assert "exactly one" in out.err


@pytest.mark.parametrize("flag", ["--query", "--lineage"])
def test_db_scores_empty_query_or_lineage_is_a_parse_error(capsys, data_dir, flag):
    code, out = run(
        capsys,
        "db-scores",
        "--relation",
        f"R={data_dir / 'ex1_R.csv'}",
        "--relation",
        f"S={data_dir / 'ex1_S.csv'}",
        flag,
        "",
    )
    assert code == cli.EXIT_PARSE
    assert out.err.startswith("xscore: error: ")


DB_INPUT_ERRORS = {
    "no-relation": ((), "at least one --relation NAME=CSV is required"),
    "relation-not-name-csv": (("--relation", "{R}"), "--relation expects NAME=CSV, got '{R}'"),
    "relation-twice": (
        ("--relation", "R={R}", "--relation", "R={S}"), "relation 'R' given twice",
    ),
    "empty-relation-csv": (
        ("--relation", "R={empty}"), "{empty}: empty file, expected a header row",
    ),
    "empty-kinds": (
        ("--relation", "R={R}", "--relation", "S={S}", "--kinds", " , "),
        "--kinds must name at least one score",
    ),
    "unknown-kind": (
        ("--relation", "R={R}", "--relation", "S={S}", "--kinds", "shapley,owen"),
        "unknown score kind 'owen'; allowed: responsibility, causal_effect, shapley, banzhaf",
    ),
}


@pytest.mark.parametrize("case", sorted(DB_INPUT_ERRORS))
def test_db_scores_input_checks_exit_1(capsys, data_dir, tmp_path, case):
    flags, message = DB_INPUT_ERRORS[case]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    paths = {"R": data_dir / "ex1_R.csv", "S": data_dir / "ex1_S.csv", "empty": empty}
    argv = [flag.format(**paths) for flag in flags]
    code, out = run(capsys, "db-scores", *argv, "--query", "Q() :- S(x), R(x,y), S(y)")
    assert code == cli.EXIT_PARSE
    assert out.err == f"xscore: error: {message.format(**paths)}\n"


def test_lineage_without_a_relation_is_one_error_line(capsys):
    code, out = run(capsys, "lineage", "--query", "Q() :- R(x)")
    assert code == cli.EXIT_PARSE
    assert out.err == "xscore: error: at least one --relation NAME=CSV is required\n"


def path_lineage_args(data_dir, text, *extra):
    return ("db-scores", "--relation", f"E={data_dir / 'path_E.csv'}", "--lineage", text, *extra)


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--lineage", "(" * 1000 + "t1" + ")" * 1000),
        ("--constraint", "(" * 1000 + "F1" + ")" * 1000),
        ("--constraint", "!" * 1000 + "F1"),
    ],
    ids=["lineage-parentheses", "constraint-parentheses", "constraint-negations"],
)
def test_over_deep_nesting_is_a_parse_error(capsys, data_dir, flag, text):
    if flag == "--lineage":
        argv = path_lineage_args(data_dir, text)
    else:
        argv = ml_args(data_dir, flag, text)
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out.out == ""
    assert out.err.startswith("xscore: error: formula nested too deeply (line 1, column ")
    assert out.err.count("\n") == 1


def test_deeply_nested_lineage_scores_as_its_flat_text(capsys, data_dir):
    flat = "t1 | (t2 & t3) | (t4 & t5 & t6)"
    kinds = ("--kinds", ",".join(cli.DB_KINDS))
    deep = run_json(capsys, *path_lineage_args(data_dir, "(" * 250 + flat + ")" * 250, *kinds))
    expected = run_json(capsys, *path_lineage_args(data_dir, flat, *kinds))
    assert deep["records"] == expected["records"]
    assert {r["kind"] for r in deep["records"]} == set(cli.DB_KINDS)


def test_db_scores_multiple_kinds_sorted(capsys, data_dir):
    report = run_json(capsys, *db_args(data_dir, "--kinds", "banzhaf,shapley"))
    keys = [(r["kind"], r["tuple"]) for r in report["records"]]
    assert keys == sorted(keys)
    assert len(keys) == 12


def test_db_scores_nonzero_filter(capsys, data_dir):
    report = run_json(capsys, *db_args(data_dir, "--kinds", "responsibility", "--nonzero"))
    assert {r["tuple"] for r in report["records"]} == {"S(b)", "R(a,b)", "R(b,b)", "S(a)"}


def test_repeated_id_column_exits_1_naming_the_file(capsys, tmp_path):
    t = tmp_path / "dup_id.csv"
    t.write_text("_id,A,_id\nt1,x,t2\n")
    code, out = run(capsys, "lineage", "--relation", f"T={t}", "--query", "Q() :- T(x)")
    assert code == cli.EXIT_PARSE
    assert out.err == f"xscore: error: {t}: header has more than one _id column\n"


def test_empty_id_cell_exits_1_naming_the_file_and_row(capsys, tmp_path):
    # Left in, the empty `_id` would be reported as the tuple id "".
    r = tmp_path / "R.csv"
    r.write_text("_id,a,b\nr one,x,y\n,y,z\n")
    code, out = run(
        capsys, "db-scores", "--relation", f"R={r}", "--query", "Q() :- R(x,y)",
        "--kinds", "shapley",
    )
    assert code == cli.EXIT_PARSE
    assert (out.out, out.err) == ("", f"xscore: error: {r}: row 3 has an empty _id\n")


def test_db_scores_unknown_tuple_filter(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir, "--tuple", "nope"))
    assert code == cli.EXIT_PARSE
    assert "unknown tuple" in out.err


def test_db_scores_checks_tuple_ids_before_any_kind_runs(capsys, data_dir):
    # At budget 1 responsibility would exit 3 if it ran.
    argv = ("--kinds", "responsibility", "--budget", "1", "--tuple", "S(a)", "--tuple", "nope")
    code, out = run(capsys, *db_args(data_dir, *argv))
    assert code == cli.EXIT_PARSE
    assert out.err == "xscore: error: unknown tuple id 'nope'\n"


def test_exit_code_query_false(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir)[:-1], 'Q() :- S(x), R(x,y), S("w")')
    assert code == cli.EXIT_QUERY_FALSE
    assert "false" in out.err


def test_exit_code_syntax_error(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir)[:-1], "Q() :- R(x,)")
    assert code == cli.EXIT_PARSE
    assert "error" in out.err


def test_exit_code_budget(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir, "--kinds", "shapley", "--budget", "16"))
    assert code == cli.EXIT_BUDGET
    assert "budget" in out.err


def test_budget_env_override(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("XSCORE_BUDGET", "16")
    code, _ = run(capsys, *db_args(data_dir, "--kinds", "shapley"))
    assert code == cli.EXIT_BUDGET
    # explicit flag beats the environment; ex1's swing counts take 77 units
    code, _ = run(capsys, *db_args(data_dir, "--kinds", "shapley", "--budget", "77"))
    assert code == 0


def budget_error(budget):
    """The one refusal of every kind: the run's meter passed the budget."""
    return f"xscore: error: needs more than {budget} units of work, budget is {budget}\n"


def _assert_budget_edge(capsys, argv, failing, message):
    """Exit 3 with `message` at budget `failing`, success one above it."""
    code, out = run(capsys, *argv, "--budget", str(failing))
    assert code == cli.EXIT_BUDGET
    assert out.err == message
    code, out = run(capsys, *argv, "--budget", str(failing + 1))
    assert code == 0, out.err


def test_budget_edge_banzhaf_query_counts_lineage_products(capsys, data_dir):
    # The query game's null players cost nothing: the ex1 lineage's swing
    # counts take 77 units.
    _assert_budget_edge(capsys, db_args(data_dir, "--kinds", "banzhaf"), 76, budget_error(76))


def test_budget_edge_causal_effect_counts_lineage_products(capsys, data_dir):
    # The causal effect is read off the same swing counts as Shapley.
    _assert_budget_edge(
        capsys, db_args(data_dir, "--kinds", "causal_effect"), 76, budget_error(76)
    )
    # A CNF lineage of the path edges: 74 units.
    argv = (
        "db-scores",
        "--relation",
        f"E={data_dir / 'path_E.csv'}",
        "--lineage",
        "(t1 | t2) & (t3 | t4)",
        "--kinds",
        "causal_effect",
    )
    _assert_budget_edge(capsys, argv, 73, budget_error(73))


def test_budget_edge_lineage_shapley_counts_lineage_products(capsys, data_dir):
    # The swing counts of this four-tuple lineage take 77 units.
    argv = (
        "db-scores",
        "--relation",
        f"E={data_dir / 'path_E.csv'}",
        "--lineage",
        "t1 | (t2 & t3) | (t2 & t4)",
        "--kinds",
        "shapley",
    )
    _assert_budget_edge(capsys, argv, 76, budget_error(76))


def test_budget_edge_responsibility_counts_candidates(capsys, data_dir):
    # Responsibility reads its sizes off the ex1 swing counts (77 units),
    # and the batch's witness searches test 5 candidates, each charged the
    # lineage's 5 tuple occurrences.
    _assert_budget_edge(
        capsys, db_args(data_dir, "--kinds", "responsibility"), 101, budget_error(101)
    )


def test_budget_is_shared_by_every_db_kind(capsys, data_dir):
    # One swing count of 77 units, shared by the four kinds that read
    # it, plus responsibility's 5 witness candidates of 5 units each.
    argv = db_args(data_dir, "--kinds", ",".join(cli.DB_KINDS))
    _assert_budget_edge(capsys, argv, 101, budget_error(101))


def _pairs_args(tmp_path, pairs: int) -> tuple:
    """`db-scores` over `T:00 | (T:01 & T:02) | (T:03 & T:04) | ...`."""
    ids = [f"T:{i:02d}" for i in range(2 * pairs + 1)]
    csv = tmp_path / "T.csv"
    csv.write_text("_id,a\n" + "".join(f"{t},{i}\n" for i, t in enumerate(ids)))
    lineage = " | ".join([ids[0], *(f"({a} & {b})" for a, b in zip(ids[1::2], ids[2::2]))])
    return ("db-scores", "--relation", f"T={csv}", "--lineage", lineage)


def test_responsibility_budget_stops_a_long_search(capsys, tmp_path):
    # T:00's witness takes one tuple of each pair, and combinations order
    # reaches it after 1,079 candidates of 15 units each; the batch would
    # test 9,027.  The count (2,615 units) fits the budget, so the witness
    # search hits it.
    argv = (*_pairs_args(tmp_path, 7), "--budget", "20000")
    run_json(capsys, *argv, "--kinds", "shapley")
    code, out = run(capsys, *argv, "--kinds", "responsibility")
    assert code == cli.EXIT_BUDGET
    assert out.err == budget_error(20000)
    assert out.out == ""


def test_tuple_filter_searches_only_its_own_witnesses(capsys, tmp_path):
    # Nine pairs: T:00's own count takes 418 units and its witness search
    # 15,522 candidates of 19 units each, 295,336 in all; counting every
    # tuple would take 5,149 units, and the batch would test 160,776
    # candidates.
    argv = (*_pairs_args(tmp_path, 9), "--kinds", "responsibility")
    _assert_budget_edge(capsys, (*argv, "--tuple", "T:00"), 295_335, budget_error(295_335))
    code, out = run(capsys, *argv, "--budget", "295336")
    assert (code, out.err) == (cli.EXIT_BUDGET, budget_error(295_336))


def test_tuple_filter_keeps_the_records(capsys, data_dir):
    argv = db_args(data_dir, "--kinds", ",".join(cli.DB_KINDS))
    every = run_json(capsys, *argv)["records"]
    # Out of order, repeated, and one tuple outside the lineage.
    filtered = run_json(capsys, *argv, *("--tuple", "S(c)", "--tuple", "R(a,b)") * 2)["records"]
    assert filtered == [r for r in every if r["tuple"] in ("R(a,b)", "S(c)")]


@pytest.mark.parametrize("lineage", [False, True])
def test_tuple_filter_keeps_the_monte_carlo_records(capsys, data_dir, lineage):
    approx = ("--kinds", "shapley", "--mode", "approx", "--epsilon", "0.2", "--delta", "0.2")
    argv, wanted = db_args(data_dir, *approx), ("S(c)", "R(a,b)")
    if lineage:  # t4 is outside the lineage: never sampled
        argv = ("db-scores", "--relation", f"E={data_dir / 'path_E.csv'}", *approx)
        argv, wanted = (*argv, "--lineage", "t1 | (t2 & t3)"), ("t4", "t1")
    every = run_json(capsys, *argv)["records"]
    # Out of order, repeated, and one tuple outside the lineage.
    filtered = run_json(capsys, *argv, *("--tuple", wanted[0], "--tuple", wanted[1]) * 2)
    assert filtered["records"] == [r for r in every if r["tuple"] in wanted]
    assert [r["tuple"] for r in filtered["records"]] == sorted(wanted)


def _random_instance(tmp_path, size: int) -> list[str]:
    """`--relation` arguments of |R| = `size` random distinct pairs over a
    domain of size/4 values (seed 0), with S the first tenth of it."""
    rng = random.Random(0)
    domain = size // 4
    pairs = set()
    while len(pairs) < size:
        pairs.add((rng.randrange(domain), rng.randrange(domain)))
    (tmp_path / "R.csv").write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in sorted(pairs)))
    (tmp_path / "S.csv").write_text("a\n" + "".join(f"{v}\n" for v in range(domain // 10)))
    return ["--relation", f"R={tmp_path / 'R.csv'}", "--relation", f"S={tmp_path / 'S.csv'}"]


def test_query_game_cost_follows_the_lineage_not_the_instance(capsys, tmp_path):
    # 820 tuples, lineage support 14: the 806 null players cost nothing.
    argv = ("db-scores", *_random_instance(tmp_path, 800), "--query", "Q() :- S(x), R(x,y), S(y)")
    for kind in ("banzhaf", "shapley"):
        records = run_json(capsys, *argv, "--kinds", kind)["records"]
        assert len(records) == 820
    assert sum(Fraction(r["value"]) for r in records) == 1


class _Tally:
    """A charge that only adds up what it is charged, call by call."""

    def __init__(self):
        self.units = self.calls = 0

    def __call__(self, units: int = 1) -> None:
        self.units += units
        self.calls += 1


def test_chain_responsibility_work_is_pinned(tmp_path):
    # Chain |R| = 800, support 14: the count takes 4,769 units and the
    # witness searches test 1,589 candidates, each charged the lineage's
    # 20 tuple occurrences.
    db = dbcli._load_relations(_random_instance(tmp_path, 800)[1::2])
    lineage = dbscores.query_lineage(db, reldb.parse_query("Q() :- S(x), R(x,y), S(y)"))
    count, search = _Tally(), _Tally()
    swings = dbscores.swing_counts(lineage, count)
    reports = dbscores.lineage_causes(lineage, db.tuple_ids(), search, swings)
    assert (count.units, search.units, search.calls) == (4_769, 31_780, 1_589)
    # Every support tuple is a cause: 11 need 3 tuples removed, 3 need 4.
    sizes = [r.min_contingency_size for r in reports if r.is_actual_cause]
    assert (sizes.count(3), sizes.count(4), len(sizes)) == (11, 3, 14)


def test_budget_stops_a_large_lineage_quickly(capsys, tmp_path):
    # Path lineage of support 285: the count charges its products as it
    # goes and stops at the budget, long before it would finish.
    argv = ("db-scores", *_random_instance(tmp_path, 600), "--query", "Q() :- R(x,y), R(y,z), S(z)")
    started = time.monotonic()
    code, out = run(capsys, *argv, "--kinds", "shapley", "--budget", "100000")
    assert time.monotonic() - started < 1.0
    assert (code, out.err) == (cli.EXIT_BUDGET, budget_error(100000))


def test_chain_responsibility_budget_bounds_the_witness_searches(capsys, tmp_path):
    # Chain |R| = 1200, support 32: the count takes 927,361 units and
    # each witness candidate the lineage's 45 tuple occurrences, so the
    # searches spend the rest of the budget in about 2 s on 2 cores (at
    # one unit per candidate they ran for over 30 s).
    argv = ("db-scores", *_random_instance(tmp_path, 1200), "--query", "Q() :- S(x), R(x,y), S(y)")
    started = time.monotonic()
    code, out = run(capsys, *argv, "--kinds", "responsibility", "--budget", "6000000")
    assert time.monotonic() - started < 10.0
    assert (code, out.err) == (cli.EXIT_BUDGET, budget_error(6_000_000))


def test_lineage_too_deep_to_expand_is_one_error_line(capsys, tmp_path):
    # One nested Shannon pivot per tuple of a 1,200-tuple conjunction
    # passes Python's recursion limit.
    ids = [f"T:{i}" for i in range(1200)]
    csv = tmp_path / "T.csv"
    csv.write_text("_id,a\n" + "".join(f"{t},{i}\n" for i, t in enumerate(ids)))
    argv = ("db-scores", "--relation", f"T={csv}", "--lineage", " & ".join(ids))
    code, out = run(capsys, *argv, "--kinds", "shapley")
    assert (code, out.out) == (cli.EXIT_PARSE, "")
    assert out.err == "xscore: error: lineage of 1200 tuples is too deep to expand\n"


def test_out_of_range_probability_exits_1_whatever_the_kinds(capsys, data_dir):
    for kinds in cli.DB_KINDS:
        code, out = run(capsys, *db_args(data_dir, "--kinds", kinds, "--probability", "2"))
        assert code == cli.EXIT_PARSE
        assert out.err == "xscore: error: tuple probability 2 outside [0, 1]\n"


def test_probability_without_causal_effect_exits_1(capsys, data_dir):
    # Only the causal effect reads the coin bias; any other kind would
    # echo a P that no score used.
    for kinds in ("shapley", "banzhaf,responsibility"):
        code, out = run(capsys, *db_args(data_dir, "--kinds", kinds, "--probability", "1/3"))
        assert (code, out.out) == (cli.EXIT_PARSE, "")
        assert out.err == "xscore: error: --probability is only valid with --kinds causal_effect\n"


def test_exit_code_usage_error(capsys, data_dir):
    code, _ = run(capsys, "ml-scores", "--classifier", str(data_dir / "ex6_table.csv"))
    assert code == cli.EXIT_PARSE  # missing --entity


@pytest.mark.parametrize(
    "extra",
    [
        ("--kinds", "responsibility"),
        ("--kinds", "causal_effect"),
        ("--kinds", "shapley"),
        ("--kinds", "banzhaf"),
        ("--kinds", "shapley", "--mode", "approx", "--epsilon", "0.2", "--delta", "0.2"),
    ],
)
def test_db_scores_refuses_a_head_query_before_the_join(capsys, data_dir, monkeypatch, extra):
    def no_join(*args):
        raise AssertionError("the query was joined")

    monkeypatch.setattr(reldb, "_matches", no_join)
    argv = list(db_args(data_dir, *extra))
    argv[argv.index("--query") + 1] = "Q(x) :- S(x), R(x,y), S(y)"
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out.err == "xscore: error: query games need a Boolean query (empty head)\n"


def test_epsilon_requires_approx_mode(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir, "--kinds", "shapley", "--epsilon", "0.1"))
    assert code == cli.EXIT_PARSE
    assert "approx" in out.err


def test_approx_mode_requires_epsilon_and_delta_before_any_kind_runs(capsys, data_dir):
    # Responsibility sorts first; at budget 1 it would exit 3 if it ran.
    for extra in ((), ("--epsilon", "0.1"), ("--delta", "0.1")):
        argv = ("--kinds", "responsibility,shapley", "--mode", "approx", "--budget", "1", *extra)
        code, out = run(capsys, *db_args(data_dir, *argv))
        assert code == cli.EXIT_PARSE
        assert out.err == "xscore: error: --mode approx needs --epsilon and --delta\n"


@pytest.mark.parametrize(
    "epsilon, delta, message",
    [
        ("-1", "0.1", "epsilon must be positive, got -1.0"),
        ("0", "0.1", "epsilon must be positive, got 0.0"),
        ("0.1", "1.5", "delta must be in (0, 1), got 1.5"),
        ("0.1", "0", "delta must be in (0, 1), got 0.0"),
    ],
)
def test_epsilon_and_delta_are_range_checked_before_any_kind_runs(
    capsys, data_dir, epsilon, delta, message
):
    # Responsibility sorts first; at budget 1 it would exit 3 if it ran.
    argv = ("--kinds", "responsibility,shapley", "--mode", "approx", "--budget", "1")
    code, out = run(capsys, *db_args(data_dir, *argv, "--epsilon", epsilon, "--delta", delta))
    assert code == cli.EXIT_PARSE
    assert out.err == f"xscore: error: {message}\n"


@pytest.mark.parametrize(
    "epsilon, delta, samples",
    [
        ("1e-150", "0.1", None),  # a count past the budget
        ("1e-160", "0.1", None),  # a count past the largest float
        ("1e-170", "0.1", None),  # epsilon^2 underflows to 0
        ("1e200", "0.1", 1),  # 2 epsilon^2 overflows: one sample
        ("inf", "0.1", 1),
        ("0.5", "5e-324", 1491),  # ln 2 - ln delta stays finite
    ],
)
def test_monte_carlo_sample_count_at_extreme_epsilon_and_delta(
    capsys, data_dir, epsilon, delta, samples
):
    argv = ("--kinds", "shapley", "--mode", "approx", "--epsilon", epsilon, "--delta", delta)
    code, out = run(capsys, *db_args(data_dir, *argv))
    if samples is None:
        assert code == cli.EXIT_BUDGET
        assert out.err.startswith("xscore: error: ") and out.err.count("\n") == 1
        return
    assert code == 0, out.err
    records = json.loads(out.out)["records"]
    assert {r["samples"] for r in records} == {samples}
    # Every sample credits exactly one tuple.
    assert abs(sum(r["value_float"] for r in records) - 1) < 1e-12


def test_monte_carlo_mode_is_seeded(capsys, data_dir):
    args = db_args(
        data_dir,
        "--kinds",
        "shapley",
        "--mode",
        "approx",
        "--epsilon",
        "0.2",
        "--delta",
        "0.2",
        "--seed",
        "5",
    )
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first["records"] == second["records"]
    (sb,) = [r for r in first["records"] if r["tuple"] == "S(b)"]
    assert sb["mode"] == "monte_carlo"
    assert sb["seed"] == 5
    assert abs(sb["value_float"] - 7 / 12) <= 0.2


def test_monte_carlo_evaluates_no_coalition_and_builds_no_game(capsys, data_dir, monkeypatch):
    # Each order's winner is read off the lineage's first winning place, so
    # the CLI neither tests a prefix nor plays a game.
    calls = []
    evaluate = formula.evaluate

    def counted(*args):
        calls.append("evaluate")
        return evaluate(*args)

    monkeypatch.setattr(formula, "evaluate", counted)
    monkeypatch.setattr(games.Game, "__post_init__", lambda game: calls.append("Game"))
    approx = ("--kinds", "shapley", "--mode", "approx", "--epsilon", "0.1", "--delta", "0.05")
    path = ("--relation", f"E={data_dir / 'path_E.csv'}")
    path += ("--lineage-file", str(data_dir / "path_lineage.txt"))
    for argv in (db_args(data_dir, *approx), ("db-scores", *path, *approx)):
        records = run_json(capsys, *argv)["records"]
        # Every sample credits exactly one tuple.
        assert abs(sum(r["value_float"] for r in records) - 1) < 1e-12
    assert calls == []


def test_query_and_its_compiled_lineage_give_equal_exact_records(capsys, tmp_path):
    # ex1 with generated ids (R:0 ...), which lineage text can name.
    (tmp_path / "R.csv").write_text("A,B\na,b\nc,d\nb,b\n")
    (tmp_path / "S.csv").write_text("A\na\nc\nb\n")
    relations = ("--relation", f"R={tmp_path / 'R.csv'}", "--relation", f"S={tmp_path / 'S.csv'}")
    query = "Q() :- S(x), R(x,y), S(y)"
    (compiled,) = run_json(capsys, "lineage", *relations, "--query", query)["records"]
    assert compiled["support"] == ["R:0", "R:2", "S:0", "S:2"]
    kinds = ("--kinds", "responsibility,causal_effect,shapley,banzhaf")
    by_query = run_json(capsys, "db-scores", *relations, "--query", query, *kinds)
    by_lineage = run_json(capsys, "db-scores", *relations, "--lineage", compiled["text"], *kinds)
    assert by_query["records"] == by_lineage["records"]
    assert len(by_query["records"]) == 24
    shapley = {r["tuple"]: r["value"] for r in by_query["records"] if r["kind"] == "shapley"}
    assert shapley == {
        "R:0": "1/12", "R:1": "0", "R:2": "1/4", "S:0": "1/12", "S:1": "0", "S:2": "7/12"
    }


def test_report_values_satisfy_cross_invariants(capsys, data_dir):
    report = run_json(
        capsys, *db_args(data_dir, "--kinds", "shapley,banzhaf,causal_effect")
    )
    by_kind = {}
    for record in report["records"]:
        by_kind.setdefault(record["kind"], {})[record["tuple"]] = Fraction(record["value"])
    # recomputed from the serialized rationals: Shapley efficiency and the
    # Banzhaf / causal-effect identity
    assert sum(by_kind["shapley"].values()) == 1
    assert by_kind["banzhaf"] == by_kind["causal_effect"]


def test_reports_byte_identical_minus_timing(capsys, data_dir):
    args = db_args(data_dir, "--kinds", "responsibility,banzhaf")
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_output_file_atomic(capsys, data_dir, tmp_path):
    target = tmp_path / "nested" / "report.json"
    code, _ = run(capsys, *db_args(data_dir, "--output", str(target)))
    assert code == 0
    report = json.loads(target.read_text())
    assert report["schema"] == "xscore/1"
    assert list(target.parent.glob("*.tmp")) == []


def test_output_write_failure_exits_1(capsys, data_dir, tmp_path):
    target = tmp_path / "report"
    target.mkdir()
    code, out = run(capsys, *db_args(data_dir, "--output", str(target)))
    assert code == cli.EXIT_PARSE
    assert out.err.startswith("xscore: error: ")
    assert str(target) in out.err
    assert out.out == ""
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(target.iterdir()) == []


def test_config_echo_reproduces_run(capsys, data_dir):
    report = run_json(capsys, *db_args(data_dir, "--kinds", "responsibility"))
    config = report["config"]
    replay = run_json(
        capsys,
        "db-scores",
        *(x for spec in config["relation"] for x in ("--relation", spec)),
        "--query",
        config["query"],
        "--kinds",
        config["kinds"],
        "--seed",
        str(config["seed"]),
    )
    assert replay["records"] == report["records"]


# ---------------------------------------------------------------------------
# ml-scores


def ml_args(data_dir, *extra):
    return (
        "ml-scores",
        "--classifier",
        str(data_dir / "ex6_table.csv"),
        "--entity",
        "011",
        *extra,
    )


# Features F1, F2 and `_label`; the label is F1 & F2.
LABEL_FEATURE_TABLE = "F1,F2,_label,label\n" + "".join(
    f"{a},{b},{c},{a & b}\n" for a, b, c in product((0, 1), repeat=3)
)


@pytest.mark.parametrize(
    "table, sample, column",
    [
        # Read as a feature, the repeat would leave the table short of 2^2 rows.
        ("F1,label,label\n0,1,1\n1,0,0\n", None, "label"),
        # Read as a feature named `_label`, the repeat would be scored.
        (LABEL_FEATURE_TABLE, "F1,F2,_label,_label\n0,0,1,1\n1,1,0,0\n", "_label"),
    ],
    ids=["classifier", "sample"],
)
def test_repeated_label_column_exits_1_naming_the_file(capsys, tmp_path, table, sample, column):
    t, s = tmp_path / "t.csv", tmp_path / "s.csv"
    t.write_text(table)
    argv = ["ml-scores", "--classifier", str(t)]
    if sample is None:
        bad = t
        argv += ["--entity", "1"]
    else:
        bad = s
        s.write_text(sample)
        argv += ["--entity", "110", "--sample", str(s), "--distribution", "empirical"]
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert (out.out, out.err) == (
        "", f"xscore: error: {bad}: header has more than one {column} column\n"
    )


@pytest.mark.parametrize("flag", ["--classifier", "--sample"])
def test_blank_feature_name_in_a_header_exits_1_naming_the_file(capsys, tmp_path, flag):
    bad = tmp_path / "bad.csv"
    if flag == "--classifier":
        bad.write_text("F1,,label\n0,0,0\n0,1,0\n1,0,0\n1,1,1\n")
        extra = ()
    else:  # scored from its own labels
        bad.write_text("F1,,_label\n0,1,0\n1,1,1\n")
        extra = ("--distribution", "empirical")
    code, out = run(capsys, "ml-scores", flag, str(bad), "--entity", "11", *extra)
    assert (code, out.out) == (cli.EXIT_PARSE, "")
    assert out.err == f"xscore: error: {bad}: feature names must be non-empty\n"


@pytest.mark.parametrize("skip", [(), ("--skip-zero-mass",)])
def test_budget_edge_ml_shap_counts_coalitions(capsys, data_dir, monkeypatch, skip):
    # Three features: 2^3 coalitions, with or without zero-mass skipping.
    argv = ml_args(data_dir, "--kinds", "shap", *skip)
    _assert_budget_edge(capsys, argv, 7, budget_error(7))
    monkeypatch.setenv("XSCORE_BUDGET", "7")
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_BUDGET
    assert out.err == budget_error(7)
    monkeypatch.setenv("XSCORE_BUDGET", "8")
    assert run(capsys, *argv)[0] == 0


def test_ml_shap_refusal_comes_before_other_kinds(capsys, data_dir):
    # SHAP charges its 2^3 coalitions before COUNTER or RESP runs.
    code, out = run(capsys, *ml_args(data_dir, "--kinds", "shap,counter,resp", "--budget", "1"))
    assert code == cli.EXIT_BUDGET
    assert out.err == budget_error(1)


def test_budget_edge_ml_counter_counts_entities(capsys, data_dir):
    # Each feature's expectation weighs the two completions of its one
    # free feature: 6 entities over the three features.
    _assert_budget_edge(capsys, ml_args(data_dir, "--kinds", "counter"), 5, budget_error(5))


def test_budget_edge_ml_counter_charges_flips_outside_the_sample(capsys, data_dir, tmp_path):
    # The sample holds the entity 011 but none of its flips.  Each feature
    # still charges its two entities, the entity and its flip, as they are
    # weighed: 6 units, though only the entity has mass.
    sample = tmp_path / "sample.csv"
    sample.write_text("F1,F2,F3\n0,1,1\n1,0,0\n")
    argv = ml_args(
        data_dir, "--kinds", "counter", "--distribution", "empirical", "--sample", str(sample)
    )
    _assert_budget_edge(capsys, argv, 5, budget_error(5))
    report = run_json(capsys, *argv)
    assert [r["value"] for r in report["records"]] == ["0", "0", "0"]


def test_budget_is_shared_by_every_ml_kind(capsys, data_dir):
    # 8 coalitions, 6 entities and 6 RESP flip sets.
    argv = ml_args(data_dir, "--kinds", "shap,counter,resp")
    _assert_budget_edge(capsys, argv, 19, budget_error(19))


def test_budget_edge_ml_resp_counts_candidates(capsys, data_dir, monkeypatch):
    # The ex6 RESP walk asks 6 flip sets.
    argv = ml_args(data_dir, "--kinds", "resp")
    _assert_budget_edge(capsys, argv, 5, budget_error(5))
    monkeypatch.setenv("XSCORE_BUDGET", "5")
    code, out = run(capsys, *argv)
    assert code == cli.EXIT_BUDGET
    assert out.err == budget_error(5)
    monkeypatch.setenv("XSCORE_BUDGET", "6")
    assert run(capsys, *argv)[0] == 0


def test_budget_edge_ml_resp_is_the_same_through_the_server(capsys, data_dir):
    # A flip set is charged when its label is read, so a window asked ahead
    # of the walk moves no edge.
    server = f"{sys.executable} -m xscore.clfserver {data_dir / 'ex6_table.csv'}"
    for argv in (
        ml_args(data_dir, "--kinds", "resp"),
        ("ml-scores", "--classifier-cmd", server, "--features", "F1,F2,F3",
         "--entity", "011", "--kinds", "resp"),
    ):
        _assert_budget_edge(capsys, argv, 5, budget_error(5))


def test_ml_scores_resp_golden(capsys, data_dir):
    report = run_json(capsys, *ml_args(data_dir, "--kinds", "resp"))
    records = report["records"]
    assert [(r["feature"], r["value"]) for r in records] == [
        ("F2", "1"),
        ("F1", "1/2"),
        ("F3", "1/2"),
    ]
    assert records[0]["explanation_kind"] == "counterfactual"
    assert records[0]["witness"]["entity"] == "001"
    assert records[1]["witness"] == {
        "contingency": ["F2"],
        "contingency_values": [0],
        "replacement": 1,
        "entity": "101",
    }


def test_ml_scores_all_kinds(capsys, data_dir):
    report = run_json(capsys, *ml_args(data_dir))
    kinds = {r["kind"] for r in report["records"]}
    assert kinds == {"shap", "counter", "resp"}
    shap_values = {r["feature"]: r["value"] for r in report["records"] if r["kind"] == "shap"}
    assert shap_values == {"F1": "-1/24", "F2": "11/24", "F3": "-1/24"}


def test_ml_scores_constraint_excludes_violators(capsys, data_dir):
    # forbidding F2=0 zeroes the mass of e7, lifting COUNTER(F2) to 0
    report = run_json(
        capsys, *ml_args(data_dir, "--kinds", "counter", "--constraint", "!(~F2)")
    )
    values = {r["feature"]: r["value"] for r in report["records"]}
    assert values["F2"] == "0"


def test_ml_scores_constraint_file(capsys, data_dir, tmp_path):
    constraints = tmp_path / "c.txt"
    constraints.write_text("# keep F2 on\n!(~F2)\n")
    report = run_json(
        capsys, *ml_args(data_dir, "--kinds", "counter", "--constraint-file", str(constraints))
    )
    values = {r["feature"]: r["value"] for r in report["records"]}
    assert values["F2"] == "0"


def test_ml_scores_unsatisfiable_constraint(capsys, data_dir):
    code, out = run(
        capsys,
        *ml_args(data_dir, "--constraint", "!(F1)", "--constraint", "!(~F1)"),
    )
    assert code == cli.EXIT_ZERO_MASS
    assert "zero mass" in out.err


def test_ml_scores_empirical_distribution(capsys, data_dir, tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("F1,F2,F3\n0,1,1\n0,0,1\n1,1,1\n1,0,1\n")
    report = run_json(
        capsys,
        *ml_args(
            data_dir,
            "--kinds",
            "shap",
            "--distribution",
            "empirical",
            "--sample",
            str(sample),
        ),
    )
    total = sum(Fraction(r["value"]) for r in report["records"])
    # efficiency under the empirical distribution: L(e1) - mean over sample
    assert total == 1 - Fraction(2, 4)


def test_ml_scores_zero_mass_exit(capsys, data_dir, tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("F1,F2,F3\n1,1,1\n")
    code, out = run(
        capsys,
        *ml_args(
            data_dir,
            "--kinds",
            "counter",
            "--distribution",
            "empirical",
            "--sample",
            str(sample),
        ),
    )
    assert code == cli.EXIT_ZERO_MASS


def test_ml_scores_skip_zero_mass_warns(capsys, data_dir, tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("F1,F2,F3\n1,1,1\n0,1,1\n")
    report = run_json(
        capsys,
        *ml_args(
            data_dir,
            "--kinds",
            "shap",
            "--distribution",
            "empirical",
            "--sample",
            str(sample),
            "--entity",
            "010",
            "--skip-zero-mass",
        ),
    )
    assert any("zero-mass" in w for w in report["warnings"])


def test_ml_scores_product_marginals(capsys, data_dir):
    report = run_json(
        capsys,
        *ml_args(
            data_dir,
            "--kinds",
            "counter",
            "--distribution",
            "product",
            "--marginals",
            "1/2,1/2,1/2",
        ),
    )
    values = {r["feature"]: r["value"] for r in report["records"]}
    assert values["F2"] == "1/2"  # matches the uniform value


def test_only_db_scores_takes_a_seed(capsys, data_dir):
    code, out = run(capsys, *ml_args(data_dir, "--seed", "1"))
    assert code == cli.EXIT_PARSE
    assert out.err.startswith("usage: xscore ")
    assert out.err.endswith("xscore: error: unrecognized arguments: --seed 1\n")
    assert "seed" not in run_json(capsys, *ml_args(data_dir))["config"]
    assert run_json(capsys, *db_args(data_dir))["config"]["seed"] == 0


def test_ml_scores_sample_labels_mode(capsys, tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("A,B,_label\n1,1,1\n1,0,1\n0,1,0\n0,0,0\n")
    report = run_json(
        capsys,
        "ml-scores",
        "--entity",
        "11",
        "--kinds",
        "counter",
        "--distribution",
        "empirical",
        "--sample",
        str(sample),
    )
    values = {r["feature"]: r["value"] for r in report["records"]}
    # A decides the labels: E(L | B=1) over the sample is 1/2, E(L | A=1) is 1
    assert values == {"A": "1/2", "B": "0"}


def test_ml_scores_external_classifier_protocol_error(capsys):
    code, out = run(
        capsys,
        "ml-scores",
        "--classifier-cmd",
        f"{sys.executable} -c \"print('not a handshake')\"",
        "--entity",
        "011",
    )
    assert code == cli.EXIT_PROTOCOL
    assert "handshake" in out.err


def test_ml_scores_silent_external_classifier_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(classify, "RESPONSE_DEADLINE_S", 1.0)
    code = "print('xscore-clf v1 n=3', flush=True); import time; time.sleep(60)"
    start = time.monotonic()
    exit_code, out = run(
        capsys, "ml-scores", "--classifier-cmd", f'{sys.executable} -c "{code}"', "--entity", "011"
    )
    assert time.monotonic() - start < 2.0
    assert exit_code == cli.EXIT_PROTOCOL
    assert out.err == "xscore: error: external classifier sent no line within 1.0 s\n"


def test_ml_scores_endless_external_line_exits_4_at_once(capsys):
    # 20 MB with no newline: refused past the line bound, not held until
    # the 30 s deadline.
    code = (
        "import sys, time; print('xscore-clf v1 n=3', flush=True);"
        "sys.stdout.write('0' * 20_000_000); sys.stdout.flush(); time.sleep(60)"
    )
    start = time.monotonic()
    exit_code, out = run(
        capsys, "ml-scores", "--classifier-cmd", f'{sys.executable} -c "{code}"', "--entity", "011"
    )
    assert time.monotonic() - start < 3.0
    assert exit_code == cli.EXIT_PROTOCOL
    bound = classify.MAX_LINE_BYTES
    assert out.err == f"xscore: error: external classifier sent a line longer than {bound} bytes\n"


# A width-4 child that answers 1 to its first three requests.  It labels the
# entity 1 and no flip set 0, so the RESP walk asks all 15 flip sets in one
# window, and the fourth request lies in the middle of it.
WINDOW_FAULTS = {
    "exits": ("sys.exit(0)", "bad response ''"),
    "goes silent": ("time.sleep(60)", "external classifier sent no line within 1.0 s"),
    "sends garbage": ("print('maybe', flush=True)", r"bad response 'maybe\n'"),
}


@pytest.mark.parametrize("case", sorted(WINDOW_FAULTS))
def test_ml_scores_fault_in_a_window_exits_4(capsys, monkeypatch, tmp_path, case):
    monkeypatch.setattr(classify, "RESPONSE_DEADLINE_S", 1.0)
    fault, message = WINDOW_FAULTS[case]
    child = tmp_path / "child.py"
    child.write_text(
        "import sys, time\n"
        "print('xscore-clf v1 n=4', flush=True)\n"
        "for count, line in enumerate(sys.stdin):\n"
        "    if count == 3:\n"
        f"        {fault}\n"
        "    print(1, flush=True)\n"
    )
    start = time.monotonic()
    exit_code, out = run(
        capsys, "ml-scores", "--classifier-cmd", f"{sys.executable} {child}",
        "--entity", "1111", "--kinds", "resp",
    )
    assert time.monotonic() - start < 2.0
    assert exit_code == cli.EXIT_PROTOCOL
    assert out.err == f"xscore: error: {message}\n"


def test_ml_scores_garbage_past_what_the_walk_reads_exits_4(capsys, tmp_path):
    # The four single flips of 1111 all flip its label, so the walk reads 4
    # of a window of 15.  The rest of the window is read and checked too.
    child = tmp_path / "child.py"
    child.write_text(
        "import sys\n"
        "print('xscore-clf v1 n=4', flush=True)\n"
        "for count, line in enumerate(sys.stdin):\n"
        "    print(1 if count == 0 else 0 if count <= 4 else 'maybe', flush=True)\n"
    )
    exit_code, out = run(
        capsys, "ml-scores", "--classifier-cmd", f"{sys.executable} {child}",
        "--entity", "1111", "--kinds", "resp",
    )
    assert exit_code == cli.EXIT_PROTOCOL
    assert out.err == "xscore: error: bad response 'maybe\\n'\n"


@pytest.mark.parametrize("window", [1, 2, 7])
def test_ml_scores_external_matches_local_across_windows(capsys, monkeypatch, tmp_path, window):
    # Small windows split the walk's size levels across writes.
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", window)
    rng = random.Random(window)
    for case in range(4):  # target labels 0, 1, 0, 1; the last two capped
        width = rng.randint(1, 8)
        labels = [rng.randint(0, 1) for _ in range(2**width)]
        table = tmp_path / f"table{case}.csv"
        rows = [",".join(f"F{i + 1}" for i in range(width)) + ",label"]
        for index, label in enumerate(labels):
            rows.append(",".join(format(index, f"0{width}b")) + f",{label}")
        table.write_text("\n".join(rows) + "\n")
        target = case % 2 if case % 2 in labels else 1 - case % 2
        entity = rng.choice([i for i, label in enumerate(labels) if label == target])
        flags = ["--entity", format(entity, f"0{width}b"), "--target-label", str(target)]
        if case >= 2:
            flags += ["--max-contingency", str(rng.randint(0, width - 1))]
        local = run_json(capsys, "ml-scores", "--classifier", str(table), *flags)
        external = run_json(
            capsys, "ml-scores", "--classifier-cmd", f"{sys.executable} -m xscore.clfserver {table}",
            "--features", ",".join(f"F{i + 1}" for i in range(width)), *flags,
        )
        assert json.dumps(external["records"]) == json.dumps(local["records"])


@pytest.mark.parametrize("width, window", [(4, 3), (5, 7), (6, 64)])
def test_ml_scores_shap_asks_the_external_classifier_in_windows(
    capsys, monkeypatch, tmp_path, width, window
):
    # SHAP's 2^n entities go out in ceil(2^n / window) windows, not one each.
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", window)
    windows = []
    answer = classify.ExternalClassifier._label

    def counted(self, requests):
        windows.append(len(requests))
        return answer(self, requests)

    monkeypatch.setattr(classify.ExternalClassifier, "_label", counted)
    names = [f"F{i + 1}" for i in range(width)]
    table = tmp_path / "table.csv"
    rows = [",".join(names) + ",label"]
    for bits in product("01", repeat=width):
        rows.append(",".join(bits) + f",{int(bits.count('1') >= 2)}")
    table.write_text("\n".join(rows) + "\n")
    run_json(
        capsys, "ml-scores", "--classifier-cmd", f"{sys.executable} -m xscore.clfserver {table}",
        "--features", ",".join(names), "--entity", "1" * width, "--kinds", "shap",
    )
    assert len(windows) == -(-(2**width) // window)
    assert sum(windows) == 2**width


@pytest.mark.parametrize("width, window", [(4, 2), (5, 2), (5, 7), (9, 7)])
def test_ml_scores_counter_asks_its_flips_in_shared_windows(
    capsys, monkeypatch, tmp_path, width, window
):
    # COUNTER reads the entity and its n flips from one stream, so they go
    # out in ceil((n + 1) / window) windows, not one window per flip.
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", window)
    windows = []
    answer = classify.ExternalClassifier._label

    def counted(self, requests):
        windows.append(len(requests))
        return answer(self, requests)

    monkeypatch.setattr(classify.ExternalClassifier, "_label", counted)
    names = [f"F{i + 1}" for i in range(width)]
    table = tmp_path / "table.csv"
    rows = [",".join(names) + ",label"]
    for bits in product("01", repeat=width):
        rows.append(",".join(bits) + f",{int(bits.count('1') >= 2)}")
    table.write_text("\n".join(rows) + "\n")
    report = run_json(
        capsys, "ml-scores", "--classifier-cmd", f"{sys.executable} -m xscore.clfserver {table}",
        "--features", ",".join(names), "--entity", "1" * (width - 2) + "00", "--kinds", "counter",
    )
    assert len(windows) == -(-(width + 1) // window)
    assert sum(windows) == width + 1
    local = run_json(
        capsys, "ml-scores", "--classifier", str(table),
        "--entity", "1" * (width - 2) + "00", "--kinds", "counter",
    )
    assert report["records"] == local["records"]


def test_ml_scores_external_matches_local(capsys, data_dir):
    local = run_json(capsys, *ml_args(data_dir, "--kinds", "resp,counter"))
    external = run_json(
        capsys,
        "ml-scores",
        "--classifier-cmd",
        f"{sys.executable} -m xscore.clfserver {data_dir / 'ex6_table.csv'}",
        "--features",
        "F1,F2,F3",
        "--entity",
        "011",
        "--kinds",
        "resp,counter",
    )
    assert json.dumps(local["records"]) == json.dumps(external["records"])


@pytest.fixture
def started(monkeypatch):
    """The external classifiers a test starts; any left running is closed
    at the end."""
    classifiers = []
    start = classify.ExternalClassifier.__init__

    def spy(self, *args, **kwargs):
        classifiers.append(self)
        start(self, *args, **kwargs)

    monkeypatch.setattr(classify.ExternalClassifier, "__init__", spy)
    yield classifiers
    for clf in classifiers:
        if clf._proc.returncode is None:
            clf.close()


def test_ml_scores_reaps_classifier_on_bad_features(capsys, data_dir, started):
    # The classifier starts before --features is checked; the error must
    # still close it, so no child outlives the run.
    command = f"{sys.executable} -m xscore.clfserver {data_dir / 'ex6_table.csv'}"
    code, out = run(
        capsys, "ml-scores", "--classifier-cmd", command, "--features", "F1,F1,F2",
        "--entity", "011",
    )
    assert code == cli.EXIT_PARSE
    assert out.err == "xscore: error: feature names must be unique\n"
    assert [clf._proc.returncode for clf in started] == [0]


ML_INPUT_ERRORS = {
    "classifier-and-cmd": (
        ("--classifier", "{table}", "--classifier-cmd", "{server}"),
        "--classifier and --classifier-cmd are mutually exclusive",
    ),
    "features-with-table": (
        ("--classifier", "{table}", "--features", "F1,F2,F3"),
        "--features conflicts with --classifier (header names win)",
    ),
    "empirical-without-sample": (
        ("--classifier", "{table}", "--distribution", "empirical"),
        "--distribution empirical needs --sample",
    ),
    "product-without-source": (
        ("--classifier", "{table}", "--distribution", "product"),
        "--distribution product needs --marginals or --sample",
    ),
    "sample-names-differ": (
        ("--classifier", "{table}", "--distribution", "empirical", "--sample", "{renamed}"),
        "sample features ('A', 'B', 'C') do not match classifier features ('F1', 'F2', 'F3')",
    ),
    "labelled-sample-not-empirical": (
        ("--sample", "{labelled}", "--distribution", "product"),
        "sample-labeled scoring needs --distribution empirical",
    ),
    "features-width-differs": (
        ("--classifier-cmd", "{server}", "--features", "F1,F2"),
        "--features names 2 features, classifier serves 3",
    ),
    # An empty value is a bad value, not a flag left out.
    "empty-features-with-table": (
        ("--classifier", "{table}", "--features", ""),
        "--features conflicts with --classifier (header names win)",
    ),
    "empty-features-with-cmd": (
        ("--classifier-cmd", "{server}", "--features", ""),
        "--features expects comma-separated names, got ''",
    ),
    "marginals-without-product": (
        ("--classifier", "{table}", "--kinds", "shap", "--marginals", "1/3,1/2,1/5"),
        "--marginals is only valid with --distribution product",
    ),
    "empty-marginals": (
        ("--classifier", "{table}", "--distribution", "product", "--marginals", ""),
        "--marginals expects a rational number, got ''",
    ),
    "no-classifier": (
        (),
        "no classifier given: provide --classifier, --classifier-cmd, "
        "or --sample with a _label column",
    ),
    "header-only-sample": (
        ("--classifier", "{table}", "--distribution", "empirical", "--sample", "{header_only}"),
        "{header_only}: sample has no rows",
    ),
}
# The cases that fail after the classifier server started, which must reap it.
ML_SERVER_STARTED = {"features-width-differs", "empty-features-with-cmd"}


@pytest.mark.parametrize("case", sorted(ML_INPUT_ERRORS))
def test_ml_scores_input_checks_exit_1(capsys, data_dir, tmp_path, started, case):
    flags, message = ML_INPUT_ERRORS[case]
    renamed, labelled = tmp_path / "renamed.csv", tmp_path / "labelled.csv"
    header_only = tmp_path / "header_only.csv"
    renamed.write_text("A,B,C\n0,1,1\n")
    labelled.write_text("F1,F2,F3,_label\n0,1,1,1\n")
    header_only.write_text("F1,F2,F3\n")
    paths = {
        "table": data_dir / "ex6_table.csv",
        "server": f"{sys.executable} -m xscore.clfserver {data_dir / 'ex6_table.csv'}",
        "renamed": renamed,
        "labelled": labelled,
        "header_only": header_only,
    }
    argv = [flag.format(**paths) for flag in flags]
    code, out = run(capsys, "ml-scores", *argv, "--entity", "011")
    assert code == cli.EXIT_PARSE
    assert out.err == f"xscore: error: {message.format(**paths)}\n"
    reaped = [0] if case in ML_SERVER_STARTED else []
    assert [clf._proc.returncode for clf in started] == reaped


def test_ml_scores_product_sample_equals_its_frequencies(capsys, data_dir, tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("F1,F2,F3\n0,1,1\n0,0,1\n1,1,1\n")
    estimated = run_json(
        capsys, *ml_args(data_dir, "--distribution", "product", "--sample", str(sample))
    )
    given = run_json(
        capsys, *ml_args(data_dir, "--distribution", "product", "--marginals", "1/3,2/3,1")
    )
    assert estimated["records"] == given["records"]
    assert {r["kind"] for r in given["records"]} == {"shap", "counter", "resp"}


def test_ml_scores_entity_width_mismatch(capsys, data_dir):
    code, out = run(capsys, *ml_args(data_dir)[:-1], "01")
    assert code == cli.EXIT_PARSE
    assert "bits" in out.err


def test_negative_budget_and_contingency_cap_exit_1(capsys, data_dir, monkeypatch):
    budget_error = "xscore: error: budget must be non-negative, got -1\n"
    for argv in (db_args(data_dir), ml_args(data_dir)):
        code, out = run(capsys, *argv, "--budget", "-1")
        assert (code, out.err) == (cli.EXIT_PARSE, budget_error)
        monkeypatch.setenv("XSCORE_BUDGET", "-1")
        code, out = run(capsys, *argv)
        assert (code, out.err) == (cli.EXIT_PARSE, budget_error)
        monkeypatch.delenv("XSCORE_BUDGET")
    code, out = run(capsys, *ml_args(data_dir, "--kinds", "resp", "--max-contingency", "-1"))
    assert code == cli.EXIT_PARSE
    assert out.err == "xscore: error: max_contingency must be non-negative, got -1\n"


def test_non_integer_budget_variable_exits_1(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("XSCORE_BUDGET", "abc")
    for argv in (db_args(data_dir), ml_args(data_dir)):
        code, out = run(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out.err == (
            "xscore: error: $XSCORE_BUDGET expects a non-negative integer, got 'abc'\n"
        )


def test_rational_flags_report_parse_errors(capsys, data_dir):
    # Fraction("1/0") raises ZeroDivisionError, not ValueError.  An empty
    # --probability is a bad value too, not the default 1/2.
    for text in ("1/0", "half", ""):
        probability = db_args(data_dir, "--kinds", "causal_effect", "--probability", text)
        marginals = ml_args(data_dir, "--distribution", "product", "--marginals", f"0,{text},1")
        for flag, argv in (("--probability", probability), ("--marginals", marginals)):
            code, out = run(capsys, *argv)
            assert code == cli.EXIT_PARSE
            assert out.err == f"xscore: error: {flag} expects a rational number, got {text!r}\n"


# ---------------------------------------------------------------------------
# analyze / lineage


@pytest.mark.parametrize(
    "query,hierarchical,sjf,verdict",
    [
        ("Q() :- R(x,y), S(x,z)", True, True, "poly-time"),
        ("Q() :- R(x), S(x,y), T(y)", False, True, "FP^#P-complete"),
        # the hierarchy flag is still reported for self-joins, but no
        # tractability claim is made
        ("Q() :- R(x,y), R(y,z)", True, False, "dichotomy inapplicable: self-joins present"),
    ],
)
def test_analyze_verdicts(capsys, query, hierarchical, sjf, verdict):
    report = run_json(capsys, "analyze", "--query", query)
    (record,) = report["records"]
    assert record["hierarchical"] is hierarchical
    assert record["self_join_free"] is sjf
    assert record["verdict"] == verdict


def test_analyze_tests_the_hierarchy_over_existential_variables(capsys):
    # The head variable x is fixed in each answer's Boolean query, which is
    # the second query with the answer A in x's place: both are hierarchical.
    for query in ("Q(x) :- R(x), S(x,y), T(y)", "Q() :- R(A), S(A,y), T(y)"):
        (record,) = run_json(capsys, "analyze", "--query", query)["records"]
        assert record["hierarchical"] is True
        assert record["verdict"] == "poly-time"
        assert record["atoms_by_var"] == {"y": [1, 2]}


def test_analyze_syntax_error_exit(capsys):
    code, _ = run(capsys, "analyze", "--query", "Q() :- ")
    assert code == cli.EXIT_PARSE


def test_lineage_subcommand(capsys, data_dir):
    report = run_json(
        capsys,
        "lineage",
        "--relation",
        f"R={data_dir / 'ce_R.csv'}",
        "--relation",
        f"S={data_dir / 'ce_S.csv'}",
        "--query",
        "Q() :- R(x,y), S(y)",
    )
    (record,) = report["records"]
    assert record["text"] == "(R(a,b) & S(b)) | (R(a,c) & S(c)) | (R(c,b) & S(b))"
    assert record["support"] == sorted(["R(a,b)", "R(a,c)", "R(c,b)", "S(b)", "S(c)"])


def test_table_format(capsys, data_dir):
    code, out = run(capsys, *db_args(data_dir, "--format", "table"))
    assert code == 0
    assert "S(b)" in out.out
    assert "counterfactual" in out.out


def test_version_flag(capsys):
    code, out = run(capsys, "--version")
    assert code == 0
    assert "xscore" in out.out
