import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    hierarchy_by_definition,
    matches_by_nested_loop,
    random_database_for,
    random_query,
    tokenize_by_characters,
)
from xscore import formula, reldb
from xscore.reldb import (
    ArityMismatchError,
    Atom,
    Const,
    Database,
    DuplicateTupleError,
    ParseError,
    UnknownRelationError,
    UnknownTupleError,
    Var,
    analyze,
    compile_lineage,
    dichotomy_verdict,
    evaluate,
    format_query,
    load_csv,
    parse_lineage,
    parse_query,
)


# ---------------------------------------------------------------------------
# Query parsing


def test_parse_three_atom_query():
    q = parse_query("Q() :- S(x), R(x,y), S(y)")
    assert len(q.atoms) == 3
    assert q.is_boolean
    assert [a.relation for a in q.atoms] == ["S", "R", "S"]
    assert [v.name for v in q.variables()] == ["x", "y"]


def test_parse_single_atom():
    q = parse_query("Q() :- R(x)")
    assert q.atoms == (Atom("R", (Var(0, "x"),)),)


def test_parse_trailing_comma_is_syntax_error():
    with pytest.raises(ParseError):
        parse_query("Q() :- R(x,)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_query("Q() :- R(x,\n  %)")
    assert info.value.line == 2
    assert "line 2" in str(info.value)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ('Q() :- R("a\n")', "unterminated string", 1, 10),
        ("Q() :- R(x,\n  'a", "unterminated string", 2, 3),
        ("Q(A) :- R(x)", "head terms must be variables", 1, 3),
    ],
    ids=["string-at-newline", "string-at-end", "constant-head"],
)
def test_parse_errors_name_their_place(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_query(text)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


# Both quote kinds, every whitespace the grammars skip or refuse, `:-` and
# the lineage name characters, a non-ASCII letter and digit, and a refused
# character; two picks in three are one of these, the third is arbitrary.
LEXER_PIECE = st.sampled_from([
    "'", '"', " ", "\n", "\r", "\t", "\f", ":-", ":", ".", "-", "_", "é", "²", "#",
    "a", "Q", "7", "(", ")", ",", "|", "&", "!", "~", "=",
])


def lexed(tokenize, text: str, name_chars: str):
    try:
        return tokenize(text, name_chars)
    except ParseError as error:
        return str(error), error.line, error.column


@given(
    st.lists(st.one_of(LEXER_PIECE, LEXER_PIECE, st.characters()), max_size=30).map("".join),
    st.sampled_from(["", ":.-"]),
)
@settings(max_examples=400)
def test_tokenize_matches_the_character_walk(text, name_chars):
    expected = lexed(tokenize_by_characters, text, name_chars)
    assert lexed(formula.tokenize, text, name_chars) == expected


def test_alpha_equivalent_texts_parse_equal():
    assert parse_query("Q() :- R(x, y), S(y)") == parse_query("Q() :- R(u, v), S(v)")
    assert parse_query("Q() :- R(x, y)") != parse_query("Q() :- R(x, x)")


def test_constant_syntax():
    q = parse_query('Q() :- R("a", Bob, 5, x)')
    constants = [t for t in q.atoms[0].terms if isinstance(t, Const)]
    assert [c.value for c in constants] == ["a", "Bob", "5"]


def test_head_variables():
    q = parse_query("Q(x, s) :- R(x, s)")
    assert not q.is_boolean
    assert [v.name for v in q.head] == ["x", "s"]
    with pytest.raises(ParseError):
        parse_query('Q("a") :- R("a")')
    with pytest.raises(ValueError, match="head variable"):
        parse_query("Q(z) :- R(x)")


def test_parse_rejects_garbage():
    for text in ["", "Q()", "Q() :-", "Q() :- R", "Q() :- R()", "Q() :- R(x) S(x)"]:
        with pytest.raises(ParseError):
            parse_query(text)


def test_format_parse_round_trip():
    texts = [
        "Q() :- S(x), R(x,y), S(y)",
        'Q() :- R("a", x), S(x, Bob, 12)',
        "Q(v) :- R(v, v)",
        # A constant holding one quote kind is printed inside the other.
        """Q() :- R('a"b', x)""",
        """Q() :- R("it's", x), S('"')""",
    ]
    for text in texts:
        q = parse_query(text)
        assert parse_query(format_query(q)) == q


@given(st.integers(0, 10**9))
@settings(max_examples=60)
def test_format_parse_round_trip_random(seed):
    q = random_query(random.Random(seed))
    assert parse_query(format_query(q)) == q


# ---------------------------------------------------------------------------
# Databases and evaluation


def test_evaluate_worked_example(ex1_db, ex1_query):
    assert evaluate(ex1_db, ex1_query) is True


def test_evaluate_empty_database(ex1_query):
    db = Database()
    db.add_relation("R", 2)
    db.add_relation("S", 1)
    assert evaluate(db, ex1_query) is False


def test_removing_pivotal_tuple_falsifies(ex1_db, ex1_query):
    kept = set(ex1_db.tuple_ids()) - {"S(b)"}
    assert evaluate(ex1_db.restrict(kept), ex1_query) is False


def test_evaluate_unknown_relation(ex1_db):
    with pytest.raises(UnknownRelationError):
        evaluate(ex1_db, parse_query("Q() :- Missing(x)"))


def test_evaluate_arity_mismatch(ex1_db):
    with pytest.raises(ArityMismatchError):
        evaluate(ex1_db, parse_query("Q() :- R(x)"))


def test_duplicate_rows_rejected():
    db = Database()
    db.add("R", ("a", "b"))
    with pytest.raises(DuplicateTupleError):
        db.add("R", ("a", "b"))
    with pytest.raises(DuplicateTupleError):
        db.add("S", ("c",), tuple_id="R:0")


def test_restrict_preserves_schema(ex1_db):
    sub = ex1_db.restrict(set())
    assert sub.relation_names() == ("R", "S")
    assert sub.arity("R") == 2
    assert len(sub) == 0


def test_unknown_tuple_lookup(ex1_db):
    with pytest.raises(UnknownTupleError):
        ex1_db.values_of("nope")
    with pytest.raises(UnknownTupleError):
        ex1_db.restrict({"nope"})


# ---------------------------------------------------------------------------
# Lineage


def test_compile_lineage_worked_example(ce_db, ce_query):
    lineage = compile_lineage(ce_db, ce_query)
    assert str(lineage) == "(R(a,b) & S(b)) | (R(a,c) & S(c)) | (R(c,b) & S(b))"
    assert lineage.support() == frozenset(ce_db.tuple_ids())


def test_compile_lineage_false_query(ex1_db):
    lineage = compile_lineage(ex1_db, parse_query('Q() :- R(x, "zzz")'))
    assert str(lineage) == "false"
    assert lineage.support() == frozenset()
    assert lineage.evaluate(ex1_db.tuple_ids()) is False


def test_compile_lineage_single_literal():
    db = Database.from_dict({"R": [("a",)]})
    lineage = compile_lineage(db, parse_query('Q() :- R("a")'))
    assert str(lineage) == "R:0"


def test_compile_lineage_merges_duplicate_disjuncts():
    # x and y range independently, but the matched tuple set is the same
    # whenever both land on the same row.
    db = Database.from_dict({"R": [("a",), ("b",)]})
    lineage = compile_lineage(db, parse_query("Q() :- R(x), R(y)"))
    assert str(lineage) == "R:0 | (R:0 & R:1) | R:1"


def test_lineage_soundness_exhaustive(ex1_db, ex1_query):
    lineage = compile_lineage(ex1_db, ex1_query)
    ids = ex1_db.tuple_ids()
    for size in range(len(ids) + 1):
        for kept in combinations(ids, size):
            present = frozenset(kept)
            assert evaluate(ex1_db.restrict(present), ex1_query) == lineage.evaluate(present)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_lineage_soundness_random(seed):
    rng = random.Random(seed)
    query = random_query(rng, max_atoms=2)
    db = random_database_for(rng, query, max_tuples=6)
    lineage = compile_lineage(db, query)
    ids = db.tuple_ids()
    for size in range(len(ids) + 1):
        for kept in combinations(ids, size):
            present = frozenset(kept)
            assert evaluate(db.restrict(present), query) == lineage.evaluate(present)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_monotone_growth(seed):
    rng = random.Random(seed)
    query = random_query(rng, max_atoms=2)
    db = random_database_for(rng, query, max_tuples=6)
    ids = list(db.tuple_ids())
    for _ in range(10):
        small = {t for t in ids if rng.random() < 0.5}
        grown = small | {t for t in ids if rng.random() < 0.5}
        if evaluate(db.restrict(small), query):
            assert evaluate(db.restrict(grown), query)


# ---------------------------------------------------------------------------
# The hash join against the nested-loop oracle


def _join_outputs(db, query):
    """Everything the join shows above `_matches`: lineage text and support,
    truth, and the valuations.  Every variable occurs in some atom, so a
    valuation's matched ids fix its binding, and equal id tuples mean equal
    valuations."""
    lineage = compile_lineage(db, query)
    return (
        str(lineage),
        lineage.support(),
        evaluate(db, query),
        sorted(reldb._matches(db, query)),
    )


def _assert_join_matches_oracle(db, query):
    fast = _join_outputs(db, query)

    def oracle_ids(db, query):
        return (used for _, used in matches_by_nested_loop(db, query))

    with mock.patch.object(reldb, "_matches", oracle_ids):
        slow = _join_outputs(db, query)
    assert fast == slow


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_join_matches_nested_loop_random(seed):
    # Constants, repeated variables, self-joins and empty relations all occur.
    rng = random.Random(seed)
    query = random_query(rng, max_atoms=4, constants=0.2)
    db = random_database_for(rng, query, max_tuples=12)
    _assert_join_matches_oracle(db, query)


JOIN_DB = {
    "R": [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")],
    "S": [("a",), ("c",)],
    "T": [("a", "b", "b"), ("b", "b", "b"), ("c", "a", "b")],
}


@pytest.mark.parametrize(
    "text",
    [
        "Q() :- R(x,x)",
        "Q() :- R(x,x), S(x)",
        'Q() :- R("b", y), S(y)',
        'Q() :- R(x, y), R(y, "a")',
        "Q() :- R(x,y), R(y,z), S(z)",
        "Q() :- T(x,y,y), R(y,y)",
        "Q() :- S(x), S(y)",
        "Q() :- R(x,y), E(y,z)",
        'Q() :- R(x, "zzz")',
        "Q() :- R(x,y), S(z)",
    ],
)
def test_join_matches_nested_loop_cases(text):
    db = Database.from_dict(JOIN_DB)
    db.add_relation("E", 2)
    _assert_join_matches_oracle(db, parse_query(text))


def test_plan_joins_the_smallest_linked_atom_next():
    chain = parse_query("Q() :- S(x), R(x,y), S(y)").atoms
    path = parse_query("Q() :- R(x,y), R(y,z), S(z)").atoms
    # Sizes of the benchmark's largest chain and path instances.
    assert reldb._plan(chain, [40, 1600, 40]) == (0, 1, 2)
    assert reldb._plan(path, [850, 850, 21]) == (2, 1, 0)
    # An unlinked atom waits while a linked one is left, however small.
    assert reldb._plan(parse_query("Q() :- R(x,y), S(y), T(z)").atoms, [9, 5, 1]) == (2, 1, 0)
    assert reldb._plan(parse_query("Q() :- R(x,y), S(z), T(y)").atoms, [3, 1, 9]) == (1, 0, 2)


@pytest.mark.parametrize(
    "text, plan",
    [("Q() :- R(x,y), R(y,z), S(z)", (2, 1, 0)), ("Q() :- R(x,y), S(z)", (1, 0))],
)
def test_join_out_of_query_order_yields_ids_in_query_order(text, plan):
    # `test_join_matches_nested_loop_cases` holds both queries to the oracle.
    query = parse_query(text)
    assert reldb._plan(query.atoms, [len(JOIN_DB[a.relation]) for a in query.atoms]) == plan
    matches = list(reldb._matches(Database.from_dict(JOIN_DB), query))
    assert matches
    for used in matches:
        assert [tid.split(":")[0] for tid in used] == [a.relation for a in query.atoms]


def test_compile_reads_each_atom_once(monkeypatch):
    # The nested loop read R again for every partial binding.
    db = Database.from_dict(JOIN_DB)
    read = []
    rows = Database.rows

    def spy(self, relation):
        read.append(relation)
        return rows(self, relation)

    monkeypatch.setattr(Database, "rows", spy)
    lineage = compile_lineage(db, parse_query("Q() :- R(x,y), R(y,z), S(z)"))
    assert read == ["R", "R", "S"]
    assert str(lineage) == (
        "(R:0 & R:3 & S:0) | (R:0 & S:0) | (R:1 & R:2 & S:1) | (R:2 & R:3 & S:0)"
        " | (R:2 & R:4 & S:1)"
    )


def test_parse_lineage_path_example(path_db):
    lineage = parse_lineage("t1 | (t2 & t3) | (t4 & t5 & t6)", path_db)
    assert lineage.support() == frozenset({"t1", "t2", "t3", "t4", "t5", "t6"})
    assert lineage.evaluate({"t1"}) is True
    assert lineage.evaluate({"t2"}) is False
    assert lineage.evaluate({"t2", "t3"}) is True
    # printing uses the same grammar, so it round-trips
    assert str(parse_lineage(str(lineage), path_db)) == str(lineage)


def test_parse_lineage_single_literal(path_db):
    assert str(parse_lineage("t1", path_db)) == "t1"


def test_parse_lineage_rejects_negation(path_db):
    with pytest.raises(ParseError, match="monotone"):
        parse_lineage("!t1", path_db)
    with pytest.raises(ParseError, match="monotone"):
        parse_lineage("t1 & ~t2", path_db)


def test_parse_lineage_unknown_tuple(path_db):
    with pytest.raises(UnknownTupleError):
        parse_lineage("t1 | t99", path_db)


def test_parse_lineage_colon_ids():
    db = Database.from_dict({"R": [("a",), ("b",)]})
    lineage = parse_lineage("R:0 & R:1", db)
    assert lineage.support() == {"R:0", "R:1"}


# ---------------------------------------------------------------------------
# Structural analysis


def test_hierarchical_example():
    q = parse_query("Q() :- R(x,y), S(x,z)")
    result = analyze(q)
    assert result.hierarchical is True
    assert result.self_join_free is True
    assert dichotomy_verdict(result) == "poly-time"
    assert result.atoms_by_var == {"x": {0, 1}, "y": {0}, "z": {1}}


def test_non_hierarchical_example():
    result = analyze(parse_query("Q() :- R(x), S(x,y), T(y)"))
    assert result.hierarchical is False
    assert result.self_join_free is True
    assert dichotomy_verdict(result) == "FP^#P-complete"


def test_single_atom_is_hierarchical():
    result = analyze(parse_query("Q() :- R(x, y, z)"))
    assert result.hierarchical is True
    assert result.self_join_free is True


def test_self_join_detected():
    result = analyze(parse_query("Q() :- R(x,y), R(y,z)"))
    assert result.self_join_free is False
    assert dichotomy_verdict(result) == "dichotomy inapplicable: self-joins present"


def test_constants_only_query():
    result = analyze(parse_query('Q() :- R("a"), S("b")'))
    assert result.hierarchical is True


@given(st.integers(0, 10**9))
@settings(max_examples=100)
def test_hierarchy_matches_direct_definition(seed):
    q = random_query(random.Random(seed))
    assert analyze(q).hierarchical == hierarchy_by_definition(q)


# ---------------------------------------------------------------------------
# CSV loading


def test_load_csv_worked_example(data_dir):
    db = load_csv({"R": data_dir / "ex1_R.csv", "S": data_dir / "ex1_S.csv"})
    assert len(db) == 6
    assert db.values_of("R(a,b)") == ("a", "b")
    assert db.values_of("S(b)") == ("b",)
    assert db.arity("R") == 2


def test_load_csv_auto_ids(tmp_path):
    f = tmp_path / "T.csv"
    f.write_text("A,B\n1,2\n3,4\n")
    db = load_csv({"T": f})
    assert db.tuple_ids() == ("T:0", "T:1")
    assert db.values_of("T:1") == ("3", "4")


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Spreadsheet exports often start with one; the header is still `_id,a`.
    f = tmp_path / "R.csv"
    f.write_text("\ufeff_id,a\nr1,x\n", encoding="utf-8")
    db = load_csv({"R": f})
    assert (db.arity("R"), db.tuple_ids(), db.values_of("r1")) == (1, ("r1",), ("x",))


def test_load_csv_empty_relation(tmp_path):
    f = tmp_path / "T.csv"
    f.write_text("A,B\n")
    db = load_csv({"T": f})
    assert db.arity("T") == 2
    assert len(db) == 0


def test_load_csv_bad_column_count(tmp_path):
    f = tmp_path / "T.csv"
    f.write_text("A,B\n1,2\n1,2,3\n")
    with pytest.raises(reldb.DatabaseError, match="row 3"):
        load_csv({"T": f})


@pytest.mark.parametrize(
    "t_text, error, message",
    [
        ("A,B\n1,2\n1,2\n", DuplicateTupleError, "duplicate tuple ('1', '2') in relation T"),
        ("_id,A\nR:0,y\n", DuplicateTupleError, "duplicate tuple id 'R:0'"),  # R loads first
        ("A,B\n1,2\n3\n", reldb.DatabaseError, "{T}: row 3 has 1 fields, expected 2"),
    ],
)
def test_load_csv_refusals(tmp_path, t_text, error, message):
    r, t = tmp_path / "R.csv", tmp_path / "T.csv"
    r.write_text("A\nx\n")
    t.write_text(t_text)
    with pytest.raises(error) as caught:
        load_csv({"R": r, "T": t})
    assert str(caught.value) == message.format(T=t)


@pytest.mark.parametrize("header", ["_id,A,_id", "_id,_id,A", "A,_id,B,_id,_id"])
def test_load_csv_refuses_a_second_id_column(tmp_path, header):
    t = tmp_path / "T.csv"
    t.write_text(header + "\n")
    with pytest.raises(reldb.DatabaseError) as caught:
        load_csv({"T": t})
    assert str(caught.value) == f"{t}: header has more than one _id column"


@pytest.mark.parametrize("blank", ["", "  "])
def test_load_csv_refuses_an_empty_id(tmp_path, blank):
    t = tmp_path / "T.csv"
    t.write_text(f"_id,A,B\nr one,x,y\n{blank},y,z\n")
    with pytest.raises(reldb.DatabaseError) as caught:
        load_csv({"T": t})
    assert str(caught.value) == f"{t}: row 3 has an empty _id"


def test_add_refuses_a_row_of_another_arity():
    db = Database()
    db.add("R", ("a", "b"))
    with pytest.raises(ArityMismatchError, match=r"^relation R declared with arity 2, got 3$"):
        db.add("R", ("a", "b", "c"))


def test_load_csv_duplicate_explicit_id(tmp_path):
    f = tmp_path / "T.csv"
    f.write_text("_id,A\nt1,x\nt1,y\n")
    with pytest.raises(DuplicateTupleError):
        load_csv({"T": f})
