"""The package's records are frozen value classes.

Every record class compares, hashes and prints as a frozen dataclass with
the same fields would: equal fields give equal records with equal hashes,
records of two classes are never equal, fields cannot be assigned or
deleted, defaults and `__post_init__` checks hold, and `repr` gives the
`Name(field=value, ...)` text.
"""
from fractions import Fraction

import pytest

from xscore import formula, games, reldb
from xscore.classify import (
    Entity,
    FeatureSpace,
    FunctionClassifier,
    UniformDistribution,
)
from xscore.knowledge import Constraint, Sample
from xscore.dbscores import CauseReport
from xscore.mlscores import ExplanationRequest, FeatureScore, RespWitness

SPACE = FeatureSpace(("F1", "F2"))
CLASSIFIER = FunctionClassifier(2, lambda e: e.bits[0])
DISTRIBUTION = UniformDistribution(SPACE)
X, Y = formula.Var("x"), formula.Var("y")
QX, QY = reldb.Var(0, "x"), reldb.Var(1, "y")
ATOM = reldb.Atom("R", (QX, reldb.Const("a")))


def request(**options):
    return ExplanationRequest(Entity((1, 0)), CLASSIFIER, DISTRIBUTION, **options)


# For each record class: a maker of equal records, and one that differs.
RECORDS = {
    "Token": (lambda: formula.Token("name", "x", 1, 1), formula.Token("name", "x", 1, 2)),
    "formula.Var": (lambda: formula.Var("x"), Y),
    "Not": (lambda: formula.Not(formula.Var("x")), formula.Not(Y)),
    "And": (lambda: formula.And((X, Y)), formula.And((Y, X))),
    "Or": (lambda: formula.Or((X, Y)), formula.Or((X,))),
    "formula.Const": (lambda: formula.Const(True), formula.FALSE),
    "reldb.Var": (lambda: reldb.Var(0, "x"), QY),
    "reldb.Const": (lambda: reldb.Const("a"), reldb.Const("b")),
    "Atom": (lambda: reldb.Atom("R", (reldb.Var(0, "x"), reldb.Const("a"))), reldb.Atom("S", ())),
    "ConjunctiveQuery": (
        lambda: reldb.ConjunctiveQuery((ATOM,)),
        reldb.ConjunctiveQuery((ATOM,), (QX,)),
    ),
    "Lineage": (lambda: reldb.Lineage(formula.Var("t")), reldb.Lineage(formula.Var("u"))),
    "QueryAnalysis": (
        lambda: reldb.QueryAnalysis(True, True, {"x": frozenset({0})}),
        reldb.QueryAnalysis(True, False, {"x": frozenset({0})}),
    ),
    "Game": (lambda: games.Game((2, 1), len), games.Game((1, 3), len)),
    "CauseReport": (
        lambda: CauseReport("t", True, False, 1, ("u",), Fraction(1, 2)),
        CauseReport("u", True, False, 1, ("t",), Fraction(1, 2)),
    ),
    "FeatureSpace": (lambda: FeatureSpace(("F1", "F2")), FeatureSpace(("F2", "F1"))),
    "Entity": (lambda: Entity((0, 1)), Entity((1, 0))),
    "Constraint": (lambda: Constraint(SPACE, formula.Var("F1")), Constraint(SPACE, Y)),
    "Sample": (lambda: Sample(SPACE, (Entity((0, 1)),), None), Sample(SPACE, (), None)),
    "ExplanationRequest": (lambda: request(), request(target_label=0)),
    "RespWitness": (
        lambda: RespWitness(("F2",), (1,), 0, Entity((0, 1))),
        RespWitness(("F2",), (1,), 1, Entity((0, 1))),
    ),
    "FeatureScore": (
        lambda: FeatureScore("F1", "shap", Fraction(1, 2)),
        FeatureScore("F1", "shap", Fraction(1, 2), "actual"),
    ),
}
UNHASHABLE = {"QueryAnalysis"}  # a dict field, as with a frozen dataclass


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_hash_is_that_of_the_compared_values():
    assert hash(Entity((0, 1))) == hash(((0, 1),))
    assert hash(formula.Token("name", "x", 1, 2)) == hash(("name", "x", 1, 2))
    assert hash(reldb.Var(0, "x")) == hash((0,))


def test_records_of_different_classes_are_unequal():
    parts = (X, Y)
    assert formula.And(parts) != formula.Or(parts)
    assert not formula.And(parts) == formula.Or(parts)
    assert formula.Var("x") != reldb.Const("x")
    assert formula.Const(True) != True  # noqa: E712 - no cross-type equality
    assert formula.And(parts).__eq__(formula.Or(parts)) is NotImplemented
    assert len({formula.And(parts), formula.Or(parts)}) == 2


def test_query_variables_compare_by_index_only():
    assert reldb.Var(0, "x") == reldb.Var(0, "y")
    assert hash(reldb.Var(0, "x")) == hash(reldb.Var(0, "y"))
    assert reldb.Var(0, "x") != reldb.Var(1, "x")
    assert reldb.parse_query("Q() :- R(x)") == reldb.parse_query("Q() :- R(z)")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    made = RECORDS[name][0]()
    field = next(iter(type(made).__annotations__))
    before = repr(made)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(made, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(made, field)
    with pytest.raises(AttributeError):
        made.extra = 1
    assert repr(made) == before


def test_defaults_hold():
    assert reldb.ConjunctiveQuery((ATOM,)).head == ()
    made = request()
    assert (made.target_label, made.max_contingency, made.skip_zero_mass) == (1, None, False)
    score = FeatureScore("F1", "shap", Fraction(0))
    assert (score.explanation_kind, score.witness) == ("none", None)
    assert FeatureScore(value=Fraction(0), kind="shap", feature="F1") == score


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: reldb.ConjunctiveQuery(()), ValueError, "needs at least one atom"),
        (
            lambda: reldb.ConjunctiveQuery((ATOM,), (QY,)),
            ValueError,
            "head variable 'y' does not occur in the body",
        ),
        (lambda: games.Game((1, 2, 1), len), ValueError, "player ids must be unique"),
        (
            lambda: request(max_contingency=-1),
            ValueError,
            "max_contingency must be non-negative, got -1",
        ),
        (lambda: Entity((0, 2)), ValueError, "entity bits must be 0/1"),
        (lambda: FeatureSpace(("F1", "F1")), ValueError, "feature names must be unique"),
        (lambda: FeatureSpace(("F1", "")), ValueError, "feature names must be non-empty"),
    ],
    ids=[
        "empty-query", "head-variable", "game-players", "max-contingency", "bits", "names",
        "blank-name",
    ],
)
def test_post_init_refusals_still_raise(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_game_players_are_sorted_after_init():
    assert games.Game((3, 1, 2), len).players == (1, 2, 3)


@pytest.mark.parametrize(
    "made, text",
    [
        (formula.Token("name", "x", 1, 2), "Token(kind='name', text='x', line=1, column=2)"),
        (formula.Var("x"), "Var(name='x')"),
        (formula.And((X, formula.Not(Y))), "And(parts=(Var(name='x'), Not(child=Var(name='y'))))"),
        (reldb.Var(0, "x"), "Var(index=0, name='x')"),
        (games.Game((2, 1), len), "Game(players=(1, 2), value=<built-in function len>)"),
        (
            CauseReport("R(a,b)", True, False, 1, ("R(b,b)",), Fraction(1, 2)),
            "CauseReport(tuple_id='R(a,b)', is_actual_cause=True, is_counterfactual_cause=False,"
            " min_contingency_size=1, witness_contingency=('R(b,b)',),"
            " responsibility=Fraction(1, 2))",
        ),
        (Entity((0, 1)), "Entity(bits=(0, 1))"),
        (
            FeatureScore("F1", "shap", Fraction(1, 2)),
            "FeatureScore(feature='F1', kind='shap', value=Fraction(1, 2),"
            " explanation_kind='none', witness=None)",
        ),
    ],
    ids=[
        "formula-token", "formula", "formula-nested", "reldb", "games", "dbscores", "classify", "mlscores",
    ],
)
def test_repr_is_the_dataclass_text(made, text):
    assert repr(made) == text


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FeatureScore("F1", "shap"), "missing argument 'value'"),
        (lambda: formula.Var("x", "y"), "got 2 positional arguments for 1 fields"),
        (lambda: formula.Var(nam="x"), "unexpected or repeated argument 'nam'"),
        (lambda: formula.Var("x", name="y"), "unexpected or repeated argument 'name'"),
    ],
    ids=["missing", "too-many", "unknown", "repeated"],
)
def test_bad_arguments_raise_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()
