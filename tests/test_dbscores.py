import random
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    causal_effect_by_enumeration,
    causes_by_exhaustion,
    lineage_probability_by_enumeration,
    matches_by_nested_loop,
    min_contingency_unrestricted,
    monte_carlo_by_player,
    random_database_for,
    random_dnf_lineage,
    random_nested_lineage,
    random_sjf_query,
    shapley_by_permutations,
    substitute_then_simplify,
    swing_counts_by_enumeration,
)
from xscore import formula, games, reldb
from xscore.dbscores import (
    NothingToExplainError,
    VacuousInterventionWarning,
    causal_effect,
    intervene,
    lineage_causes,
    lineage_game,
    lineage_probability,
    monte_carlo_shapley,
    query_lineage,
    swing_counts,
    swing_scores,
)
from xscore.games import BudgetExceededError
from xscore.reldb import Database, compile_lineage, parse_lineage, parse_query


# ---------------------------------------------------------------------------
# Actual causes and responsibility


def _causes(db, query):
    """Every tuple's cause report for a Boolean query over `db`."""
    return lineage_causes(query_lineage(db, query), db.tuple_ids())


def _query_game(db, query):
    """The query game: its lineage's game with every tuple of `db` a player."""
    return lineage_game(compile_lineage(db, query), db.tuple_ids())


EX1_RESPONSIBILITY = {
    "S(b)": Fraction(1),
    "R(a,b)": Fraction(1, 2),
    "R(b,b)": Fraction(1, 2),
    "S(a)": Fraction(1, 2),
    "R(c,d)": Fraction(0),
    "S(c)": Fraction(0),
}


def test_causes_golden(ex1_db, ex1_query):
    reports = {r.tuple_id: r for r in _causes(ex1_db, ex1_query)}
    assert set(reports) == set(ex1_db.tuple_ids())

    pivot = reports["S(b)"]
    assert pivot.is_counterfactual_cause and pivot.is_actual_cause
    assert pivot.min_contingency_size == 0
    assert pivot.witness_contingency == ()
    assert pivot.responsibility == 1

    ab = reports["R(a,b)"]
    assert ab.is_actual_cause and not ab.is_counterfactual_cause
    assert ab.min_contingency_size == 1
    assert ab.witness_contingency == ("R(b,b)",)
    assert ab.responsibility == Fraction(1, 2)

    for tid, expected in EX1_RESPONSIBILITY.items():
        assert reports[tid].responsibility == expected

    for tid in ("R(c,d)", "S(c)"):
        report = reports[tid]
        assert not report.is_actual_cause
        assert report.min_contingency_size is None
        assert report.witness_contingency is None


def _responsibility(db, query, tuple_id, charge=None):
    (report,) = lineage_causes(query_lineage(db, query), [tuple_id], charge)
    return report.responsibility


def test_responsibility_projection(ex1_db, ex1_query):
    assert _responsibility(ex1_db, ex1_query, "S(b)") == 1
    assert _responsibility(ex1_db, ex1_query, "R(b,b)") == Fraction(1, 2)
    assert _responsibility(ex1_db, ex1_query, "S(a)") == Fraction(1, 2)
    assert _responsibility(ex1_db, ex1_query, "R(c,d)") == 0


def test_causes_requires_true_query(ex1_db):
    with pytest.raises(NothingToExplainError):
        _causes(ex1_db, parse_query('Q() :- R(x, "nope")'))


def test_lineage_causes_defaults_to_support(path_lineage):
    reports = lineage_causes(path_lineage)
    assert [r.tuple_id for r in reports] == ["t1", "t2", "t3", "t4", "t5", "t6"]
    # every edge lies on some a-to-b path, and flipping the query needs the
    # two other paths broken first: responsibility is 1/3 across the board
    for report in reports:
        assert report.is_actual_cause and not report.is_counterfactual_cause
        assert report.min_contingency_size == 2
        assert report.responsibility == Fraction(1, 3)
    by_id = {r.tuple_id: r for r in reports}
    assert by_id["t1"].witness_contingency == ("t2", "t4")


def test_support_restriction_matches_unrestricted_search(ex1_db, ex1_query):
    for report in _causes(ex1_db, ex1_query):
        direct = min_contingency_unrestricted(ex1_db, ex1_query, report.tuple_id)
        assert report.min_contingency_size == direct


def test_contingency_budget_counts_candidates(ex1_db, ex1_query):
    # The ex1 swing counts take 77 units and the batch's witness searches
    # test 5 candidates, each charged the lineage's 5 tuple occurrences;
    # R(a,b) alone pays only its own count, 38 units, and tests only its
    # witness (R(b,b),), at the size the count gives.
    lineage = compile_lineage(ex1_db, ex1_query)
    with pytest.raises(BudgetExceededError, match="more than 101 units of work"):
        lineage_causes(lineage, ex1_db.tuple_ids(), games.meter(101))
    reports = lineage_causes(lineage, ex1_db.tuple_ids(), games.meter(102))
    assert reports == causes_by_exhaustion(lineage, ex1_db.tuple_ids())
    with pytest.raises(BudgetExceededError, match="more than 42 units of work"):
        _responsibility(ex1_db, ex1_query, "R(a,b)", games.meter(42))
    assert _responsibility(ex1_db, ex1_query, "R(a,b)", games.meter(43)) == Fraction(1, 2)
    # Counts handed in are not charged again.
    swings = swing_counts(lineage)
    assert lineage_causes(lineage, charge=games.meter(25), swings=swings) == lineage_causes(lineage)


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_cause_reports_match_exhaustive_oracle(seed, nested):
    # Every field of every report, null player t6 included.
    rng = random.Random(seed)
    ids = NESTED_IDS[:5]
    root = random_nested_lineage(rng, ids) if nested else random_dnf_lineage(rng, ids)
    lineage = reldb.Lineage(root)
    assert lineage_causes(lineage, NESTED_IDS) == causes_by_exhaustion(lineage, NESTED_IDS)


def test_absorbed_tuples_test_no_candidates():
    # T:1 .. T:23 are never pivotal: their swing counts are all zero, so
    # they are non-causes without a search, and T:0 tests its one witness,
    # charged the lineage's 25 tuple occurrences.
    db = Database.from_dict({"T": [(str(i),) for i in range(24)]})
    lineage = parse_lineage("T:0 | (" + " & ".join(f"T:{i}" for i in range(24)) + ")", db)
    swings = swing_counts(lineage)
    reports = lineage_causes(lineage, charge=games.meter(25), swings=swings)
    assert [r.responsibility for r in reports] == [1] + [0] * 23
    assert reports[0].witness_contingency == ()
    assert lineage_causes(lineage, charge=games.meter(50_000)) == reports


def _pairs_lineage(pairs: int) -> reldb.Lineage:
    # T:00 | (T:01 & T:02) | (T:03 & T:04) | ...: T:00's witness takes one
    # tuple of each pair, and combinations order reaches it late.
    ids = [f"T:{i:02d}" for i in range(2 * pairs + 1)]
    var = formula.Var
    terms = (formula.And((var(a), var(b))) for a, b in zip(ids[1::2], ids[2::2]))
    return reldb.Lineage(formula.Or((var(ids[0]), *terms)))


def test_long_witness_search_stays_small_up_to_the_budget():
    # The count takes 2,615 units and the witness searches 9,027
    # candidates of 15 units each, so the budget stops a search; nothing
    # is kept per candidate.
    lineage = _pairs_lineage(7)
    swing_counts(lineage, games.meter(20_000))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            lineage_causes(lineage, charge=games.meter(20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# Interventions and lineage probability


def test_intervene_worked_example(ce_db, ce_query):
    lineage = compile_lineage(ce_db, ce_query)
    assert str(intervene(lineage, "S(b)", 0)) == "R(a,c) & S(c)"
    assert str(intervene(lineage, "S(b)", 1)) == "R(a,b) | (R(a,c) & S(c)) | R(c,b)"


def test_intervene_single_literal_to_false():
    db = Database.from_dict({"R": [("a",)]})
    lineage = parse_lineage("R:0", db)
    assert str(intervene(lineage, "R:0", 0)) == "false"
    assert str(intervene(lineage, "R:0", 1)) == "true"


def test_intervene_vacuous_warns(path_db, path_lineage):
    db = path_db
    db.add("E", ("z", "z"), tuple_id="t7")
    lineage = parse_lineage("t1 | (t2 & t3)", db)
    with pytest.warns(VacuousInterventionWarning):
        out = intervene(lineage, "t7", 0)
    assert str(out) == str(lineage)


def test_intervene_rejects_non_bit(path_lineage):
    with pytest.raises(ValueError):
        intervene(path_lineage, "t1", 2)


FORMULA_NAMES = ("a", "b", "c", "d")
FORMULAS = st.recursive(
    st.one_of(st.sampled_from(FORMULA_NAMES).map(formula.Var), st.booleans().map(formula.Const)),
    lambda parts: st.one_of(
        parts.map(formula.Not),
        st.lists(parts, max_size=3).map(lambda ps: formula.And(tuple(ps))),
        st.lists(parts, max_size=3).map(lambda ps: formula.Or(tuple(ps))),
    ),
    max_leaves=12,
)


@given(FORMULAS, st.dictionaries(st.sampled_from(FORMULA_NAMES), st.booleans()))
@settings(max_examples=300)
def test_substitute_matches_two_pass_oracle(node, assignment):
    # Negations, constant leaves and connectives of zero or one part are
    # drawn on purpose: no compiled or parsed lineage holds them.
    assert formula.substitute(node, assignment) == substitute_then_simplify(node, assignment)


def test_lineage_probability_worked_example(ce_db, ce_query):
    lineage = compile_lineage(ce_db, ce_query)
    assert lineage_probability(intervene(lineage, "S(b)", 0)) == Fraction(1, 4)
    assert lineage_probability(intervene(lineage, "S(b)", 1)) == Fraction(13, 16)


def test_lineage_probability_constants(path_db):
    lineage = parse_lineage("t1", path_db)
    assert lineage_probability(intervene(lineage, "t1", 1)) == 1
    assert lineage_probability(intervene(lineage, "t1", 0)) == 0
    assert lineage_probability(lineage, probabilities=Fraction(1, 3)) == Fraction(1, 3)


def test_lineage_probability_per_tuple_table(path_db):
    lineage = parse_lineage("t1 | t2", path_db)
    p = {"t1": Fraction(1, 2), "t2": Fraction(1, 4)}
    assert lineage_probability(lineage, probabilities=p) == Fraction(5, 8)


def test_lineage_probability_budget(path_lineage):
    # Two units per distinct sub-formula of the Shannon expansion, its
    # swing and its probability: 12 in all.
    with pytest.raises(BudgetExceededError, match="more than 11 units of work"):
        lineage_probability(path_lineage, charge=games.meter(11))
    assert lineage_probability(path_lineage, charge=games.meter(12)) == Fraction(43, 64)
    # A causal effect carries t2's swing through the same expansion: two
    # more units, where the root carries it past its pivot t1.
    with pytest.raises(BudgetExceededError, match="more than 13 units of work"):
        causal_effect(path_lineage, "t2", charge=games.meter(13))
    assert causal_effect(path_lineage, "t2", charge=games.meter(14)) == Fraction(7, 32)


def test_swing_counts_work_is_deterministic(ex1_db, ex1_query):
    # ex1's swing counts take 77 units, 61 in the expansion and 16 in the
    # conversion, so a change to the work the count does shows here
    # without timing.
    lineage = query_lineage(ex1_db, ex1_query)
    with pytest.raises(BudgetExceededError, match="more than 76 units of work"):
        swing_counts(lineage, games.meter(76))
    assert swing_counts(lineage, games.meter(77)) == swing_counts(lineage)


def test_lineage_probability_rejects_bad_probability(path_db):
    lineage = parse_lineage("t1", path_db)
    with pytest.raises(ValueError):
        lineage_probability(lineage, probabilities=Fraction(3, 2))


def test_causal_effect_worked_example(ce_db, ce_query):
    assert causal_effect(compile_lineage(ce_db, ce_query), "S(b)") == Fraction(9, 16)


def test_causal_effect_path_lineage(path_lineage):
    expected = {
        "t1": Fraction(21, 32),
        "t2": Fraction(7, 32),
        "t3": Fraction(7, 32),
        "t4": Fraction(3, 32),
        "t5": Fraction(3, 32),
        "t6": Fraction(3, 32),
    }
    for tid, value in expected.items():
        assert causal_effect(path_lineage, tid) == value
    assert float(expected["t1"]) == 0.65625
    assert float(expected["t2"]) == 0.21875
    assert float(expected["t4"]) == 0.09375


def test_causal_effect_absent_tuple_is_zero(ex1_db, ex1_query):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # must not warn either
        assert causal_effect(compile_lineage(ex1_db, ex1_query), "R(c,d)") == 0


# ---------------------------------------------------------------------------
# Query games


def test_query_game_values(ex1_db, ex1_query):
    game = _query_game(ex1_db, ex1_query)
    assert game.players == tuple(sorted(ex1_db.tuple_ids()))
    assert game.value(frozenset()) == 0
    assert game.value(frozenset(ex1_db.tuple_ids())) == 1
    assert game.value(frozenset({"R(a,b)", "S(a)", "S(b)"})) == 1
    assert game.value(frozenset({"R(a,b)", "S(a)"})) == 0


def test_query_game_rejects_head_variables(ex1_db):
    with pytest.raises(ValueError, match="Boolean query"):
        query_lineage(ex1_db, parse_query("Q(x) :- R(x, y)"))


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_query_game_is_the_sub_instance_game(seed):
    # The query game plays the compiled lineage; each coalition's value
    # must still be the query's truth on that sub-instance.
    rng = random.Random(seed)
    query = random_sjf_query(rng)
    db = random_database_for(rng, query)
    game = _query_game(db, query)
    ids = db.tuple_ids()
    assert game.players == tuple(sorted(ids))
    for bits in product((False, True), repeat=len(ids)):
        coalition = frozenset(t for t, bit in zip(ids, bits) if bit)
        assert game.value(coalition) == reldb.evaluate(db.restrict(coalition), query)


def test_lineage_game_matches_query_game(ce_db, ce_query):
    lineage = compile_lineage(ce_db, ce_query)
    qg = _query_game(ce_db, ce_query)
    lg = lineage_game(lineage)
    assert games.shapley_all(qg) == games.shapley_all(lg)


# ---------------------------------------------------------------------------
# Lineage counting against brute force


NESTED_IDS = ("t1", "t2", "t3", "t4", "t5", "t6")
PROBABILITIES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def test_swing_counts_path_lineage(path_lineage):
    # t1 swings every set of the other five tuples on which neither
    # (t2 & t3) nor (t4 & t5 & t6) holds.
    counts = swing_counts(path_lineage)
    assert counts["t1"] == [1, 5, 9, 6, 0, 0]
    assert counts["t2"] == [0, 1, 3, 3, 0, 0]
    assert sum(swing_scores(counts, "shapley").values()) == 1


@given(st.integers(0, 10**9), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_swing_counts_match_enumeration(seed, nested, asked):
    # The raw counts, not only the scores read off them: t6 (and t4, t5
    # when not drawn) are null players, and DNF lineages hold absorbed
    # disjuncts such as a | (a & b).
    rng = random.Random(seed)
    ids = NESTED_IDS[: rng.randint(3, 5)]
    root = random_nested_lineage(rng, ids) if nested else random_dnf_lineage(rng, ids)
    lineage = reldb.Lineage(root)
    tuple_ids = rng.sample(NESTED_IDS, rng.randint(0, len(NESTED_IDS))) if asked else None
    expected = swing_counts_by_enumeration(lineage, tuple_ids)
    assert swing_counts(lineage, tuple_ids=tuple_ids) == expected


@given(st.integers(0, 10**9), st.booleans())
@settings(max_examples=40, deadline=None)
def test_lineage_counting_matches_enumeration(seed, nested):
    rng = random.Random(seed)
    # t6 never occurs, so there is always at least one null player.
    ids = NESTED_IDS[:5]
    root = random_nested_lineage(rng, ids) if nested else random_dnf_lineage(rng, ids)
    lineage = reldb.Lineage(root)
    support = lineage.support()
    counts = swing_counts(lineage)
    assert set(counts) == support
    # Asking for some tuples carries only their swings, with the same counts.
    asked = rng.sample(NESTED_IDS, rng.randint(0, len(NESTED_IDS)))
    assert swing_counts(lineage, tuple_ids=asked) == {t: counts[t] for t in asked if t in support}

    shapley = swing_scores(counts, "shapley")
    with_nulls = lineage_game(lineage, players=NESTED_IDS)
    assert games.shapley_all(with_nulls) == {t: shapley.get(t, 0) for t in NESTED_IDS}
    assert shapley == games.shapley_all(lineage_game(lineage))
    for t in support:
        assert shapley[t] == shapley_by_permutations(with_nulls, t)
    banzhaf = swing_scores(counts, "banzhaf")
    assert games.banzhaf_all(with_nulls) == {t: banzhaf.get(t, 0) for t in NESTED_IDS}

    for p in PROBABILITIES:
        effects = swing_scores(counts, "causal_effect", p)
        for t in NESTED_IDS:
            expected = causal_effect_by_enumeration(lineage, t, p)
            assert effects.get(t, 0) == expected
            assert causal_effect(lineage, t, probabilities=p) == expected
        assert lineage_probability(lineage, p) == lineage_probability_by_enumeration(lineage, p)
    assert swing_scores(counts, "causal_effect") == swing_scores(counts, "banzhaf")

    table = {t: rng.choice(PROBABILITIES + (Fraction(2, 7),)) for t in NESTED_IDS[:4]}
    assert lineage_probability(lineage, table) == lineage_probability_by_enumeration(
        lineage, table
    )
    for t in support:
        assert causal_effect(lineage, t, probabilities=table) == causal_effect_by_enumeration(
            lineage, t, table
        )


EX1_SHAPLEY = {
    "R(a,b)": Fraction(1, 12),
    "R(b,b)": Fraction(1, 4),
    "R(c,d)": Fraction(0),
    "S(a)": Fraction(1, 12),
    "S(b)": Fraction(7, 12),
    "S(c)": Fraction(0),
}


def test_shapley_tuple_golden(ex1_db, ex1_query):
    game = _query_game(ex1_db, ex1_query)
    values = games.shapley_all(game)
    for tid, expected in EX1_SHAPLEY.items():
        assert values[tid] == expected
        assert values[tid] == shapley_by_permutations(game, tid)
    assert sum(EX1_SHAPLEY.values()) == 1  # efficiency: G(D) - G(empty)


def test_query_game_plays_without_restrict_or_evaluate(ex1_db, ex1_query, monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(reldb.Database, "restrict", spy("restrict", reldb.Database.restrict))
    monkeypatch.setattr(reldb, "evaluate", spy("evaluate", reldb.evaluate))
    assert games.shapley_all(_query_game(ex1_db, ex1_query)) == EX1_SHAPLEY
    assert calls == []


def test_swing_scores_unknown_kind(path_lineage):
    with pytest.raises(ValueError, match="no swing score of kind 'responsibility'"):
        swing_scores(swing_counts(path_lineage), "responsibility")


def test_shapley_tuple_monte_carlo(ex1_db, ex1_query):
    game = _query_game(ex1_db, ex1_query)
    score = games.shapley_monte_carlo(game, "S(b)", epsilon=0.1, delta=0.1, seed=3)
    assert abs(score - float(EX1_SHAPLEY["S(b)"])) <= 0.1
    again = games.shapley_monte_carlo(game, "S(b)", epsilon=0.1, delta=0.1, seed=3)
    assert score == again
    with pytest.raises(ValueError):
        games.shapley_monte_carlo(game, "S(b)", epsilon=0.0, delta=0.1, seed=3)


@given(st.integers(0, 10**9), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_monte_carlo_shapley_equals_the_sampled_game(seed, sample_seed):
    # Nested And/Or trees with repeated tuples, DNFs and single tuples over
    # some of t1..t5; t6 and the tuples a lineage misses are null players,
    # and support tuples left out of the players are never present.
    rng = random.Random(seed)
    ids = NESTED_IDS[:5]
    shapes = (random_nested_lineage, random_dnf_lineage, lambda r, i: formula.Var(r.choice(i)))
    lineage = reldb.Lineage(rng.choice(shapes)(rng, ids))
    players = rng.choice((None, NESTED_IDS, NESTED_IDS[2:]))
    epsilon, delta = rng.choice(((0.3, 0.2), (0.5, 0.4), (0.25, 0.05), (0.1, 0.1)))
    estimates = monte_carlo_shapley(lineage, epsilon, delta, sample_seed, players)
    game = lineage_game(lineage, players)
    assert estimates == games.shapley_monte_carlo_all(game, epsilon, delta, sample_seed)
    assert list(estimates) == list(game.players)
    for player in game.players:
        assert (estimates[player], games.sample_count(epsilon, delta)) == monte_carlo_by_player(
            game, player, epsilon, delta, sample_seed
        )


def test_monte_carlo_shapley_constant_lineage_credits_nobody():
    for root in (formula.TRUE, formula.FALSE):
        lineage = reldb.Lineage(root)
        estimates = monte_carlo_shapley(lineage, 0.2, 0.1, 5, NESTED_IDS)
        assert estimates == dict.fromkeys(NESTED_IDS, 0.0)
        game = lineage_game(lineage, NESTED_IDS)
        assert estimates == games.shapley_monte_carlo_all(game, 0.2, 0.1, 5)


def test_monte_carlo_shapley_charges_samples_times_players_up_front(ex1_db, ex1_query):
    lineage = compile_lineage(ex1_db, ex1_query)
    needed = games.sample_count(0.1, 0.05) * len(ex1_db.tuple_ids())
    estimates = monte_carlo_shapley(lineage, 0.1, 0.05, 1, ex1_db.tuple_ids(), games.meter(needed))
    assert abs(sum(estimates.values()) - 1) < 1e-12
    with pytest.raises(BudgetExceededError, match=f"more than {needed - 1} units of work"):
        monte_carlo_shapley(lineage, 0.1, 0.05, 1, ex1_db.tuple_ids(), games.meter(needed - 1))


def test_banzhaf_equals_causal_effect_worked_example(ce_db, ce_query):
    value = games.banzhaf_all(_query_game(ce_db, ce_query))["S(b)"]
    assert value == Fraction(9, 16)
    assert value == causal_effect(compile_lineage(ce_db, ce_query), "S(b)")


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_banzhaf_equals_causal_effect_random(seed):
    rng = random.Random(seed)
    query = random_sjf_query(rng)
    db = random_database_for(rng, query)
    lineage = compile_lineage(db, query)
    indices = games.banzhaf_all(lineage_game(lineage, db.tuple_ids()))
    for tid in db.tuple_ids():
        assert indices[tid] == causal_effect(lineage, tid)


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_responsibility_shapley_nonzero_agreement(seed):
    rng = random.Random(seed)
    query = random_sjf_query(rng)
    db = random_database_for(rng, query)
    if not reldb.evaluate(db, query):
        return
    lineage = compile_lineage(db, query)
    values = games.shapley_all(lineage_game(lineage, db.tuple_ids()))
    for report in lineage_causes(lineage, db.tuple_ids()):
        assert (report.responsibility > 0) == (values[report.tuple_id] > 0)


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_counterfactual_implies_positive_effect(seed):
    rng = random.Random(seed)
    query = random_sjf_query(rng)
    db = random_database_for(rng, query)
    if not reldb.evaluate(db, query):
        return
    lineage = compile_lineage(db, query)
    for report in lineage_causes(lineage, db.tuple_ids()):
        if report.is_counterfactual_cause:
            assert report.responsibility == 1
            assert causal_effect(lineage, report.tuple_id) > 0


def test_scores_invariant_under_insertion_order(ex1_query):
    forward = Database()
    backward = Database()
    rows_r = [("a", "b"), ("c", "d"), ("b", "b")]
    rows_s = [("a",), ("c",), ("b",)]
    for values in rows_r:
        forward.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for values in rows_s:
        forward.add("S", values, tuple_id=f"S({values[0]})")
    for values in reversed(rows_s):
        backward.add("S", values, tuple_id=f"S({values[0]})")
    for values in reversed(rows_r):
        backward.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    assert games.shapley_all(_query_game(forward, ex1_query)) == games.shapley_all(
        _query_game(backward, ex1_query)
    )
    assert {r.tuple_id: r for r in _causes(forward, ex1_query)} == {
        r.tuple_id: r for r in _causes(backward, ex1_query)
    }


# ---------------------------------------------------------------------------
# Aggregates by linearity


def test_summation_shapley_is_linear_in_answers():
    # The game of a sum over answers, played on sub-instances through the
    # nested-loop oracle, has the value-weighted sum of each answer's
    # lineage Shapley values as its own.
    db = Database.from_dict(
        {"R": [("a", "b"), ("a", "c"), ("b", "b")], "W": [("b", "10"), ("c", "3")]}
    )
    query = parse_query("Q(x, y, v) :- R(x, y), W(y, v)")

    def answers(sub):
        return {tuple(b[v] for v in query.head) for b, _ in matches_by_nested_loop(sub, query)}

    def total(coalition):
        return sum(Fraction(v) for _, _, v in answers(db.restrict(coalition)))

    aggregate = games.shapley_all(games.Game(players=db.tuple_ids(), value=total))

    weighted: dict[str, Fraction] = {tid: Fraction(0) for tid in db.tuple_ids()}
    for x, y, v in answers(db):
        single = parse_query(f'Q() :- R("{x}", "{y}"), W("{y}", "{v}")')
        for tid, value in swing_scores(swing_counts(query_lineage(db, single)), "shapley").items():
            weighted[tid] += Fraction(v) * value
    assert aggregate == weighted
