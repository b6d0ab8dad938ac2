#!/usr/bin/env python3
"""Recompute every worked-example score in one pass and print the results.

Covers both halves of the library: tuple-level scores (responsibility,
causal effect, Shapley, Banzhaf) on three small relational instances, and
feature-level scores (SHAP, COUNTER, RESP) on an 8-row truth-table
classifier, including a constraint-conditioned variant.
"""
from fractions import Fraction

from xscore import dbscores, mlscores, reldb
from xscore.classify import (
    Entity,
    FeatureSpace,
    TableClassifier,
    UniformDistribution,
    condition,
    parse_constraint,
)
from xscore.mlscores import ExplanationRequest


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def show(label: str, value) -> None:
    if isinstance(value, Fraction):
        print(f"  {label:<14} {str(value):>6}   ({float(value)})")
    else:
        print(f"  {label:<14} {value}")


def tuple_scores(db: reldb.Database, swings, kind: str) -> dict:
    """Every tuple's score of `kind`; tuples outside the lineage score 0."""
    values = dbscores.swing_scores(swings, kind)
    return {t: values.get(t, Fraction(0)) for t in db.tuple_ids()}


def triangle_example() -> None:
    header("six-tuple instance, Q() :- S(x), R(x,y), S(y)")
    db = reldb.Database()
    for values in [("a", "b"), ("c", "d"), ("b", "b")]:
        db.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for value in ["a", "c", "b"]:
        db.add("S", (value,), tuple_id=f"S({value})")
    query = reldb.parse_query("Q() :- S(x), R(x,y), S(y)")
    lineage = dbscores.query_lineage(db, query)
    print(f"  lineage: {lineage}")
    print("  responsibility / shapley / banzhaf:")
    swings = dbscores.swing_counts(lineage)
    shapley = tuple_scores(db, swings, "shapley")
    banzhaf = tuple_scores(db, swings, "banzhaf")
    for report in dbscores.lineage_causes(lineage, db.tuple_ids(), swings=swings):
        tid = report.tuple_id
        print(
            f"    {tid:<7} rho={str(report.responsibility):>4} "
            f"shapley={str(shapley[tid]):>5} banzhaf={str(banzhaf[tid]):>4}"
        )
    print(f"  shapley total (efficiency): {sum(shapley.values())}")


def causal_effect_example() -> None:
    header("five-tuple instance, Q() :- R(x,y), S(y)")
    db = reldb.Database()
    for values in [("a", "b"), ("a", "c"), ("c", "b")]:
        db.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for value in ["b", "c"]:
        db.add("S", (value,), tuple_id=f"S({value})")
    query = reldb.parse_query("Q() :- R(x,y), S(y)")
    lineage = dbscores.query_lineage(db, query)
    print(f"  lineage: {lineage}")
    off = dbscores.intervene(lineage, "S(b)", 0)
    on = dbscores.intervene(lineage, "S(b)", 1)
    print(f"  do(S(b)=0): {off}")
    print(f"  do(S(b)=1): {on}")
    show("P | do(.=0)", dbscores.lineage_probability(off))
    show("P | do(.=1)", dbscores.lineage_probability(on))
    show("CE(S(b))", dbscores.causal_effect(lineage, "S(b)"))
    show("Banzhaf(S(b))", dbscores.swing_scores(dbscores.swing_counts(lineage), "banzhaf")["S(b)"])


def path_example() -> None:
    header("path graph a->b, lineage supplied directly")
    db = reldb.Database()
    edges = [("a", "b"), ("a", "c"), ("c", "b"), ("a", "d"), ("d", "e"), ("e", "b")]
    for i, values in enumerate(edges):
        db.add("E", values, tuple_id=f"t{i + 1}")
    lineage = reldb.parse_lineage("t1 | (t2 & t3) | (t4 & t5 & t6)", db)
    print(f"  lineage: {lineage}")
    print("  responsibility vs causal effect (responsibility ties, CE does not):")
    for report in dbscores.lineage_causes(lineage):
        tid = report.tuple_id
        ce = dbscores.causal_effect(lineage, tid)
        print(f"    {tid}: rho={report.responsibility}  CE={ce} ({float(ce)})")


EX6_TABLE = {
    (0, 1, 1): 1,
    (1, 1, 1): 1,
    (1, 1, 0): 1,
    (1, 0, 1): 0,
    (1, 0, 0): 1,
    (0, 1, 0): 1,
    (0, 0, 1): 0,
    (0, 0, 0): 0,
}


def classifier_example() -> None:
    header("truth-table classifier, entity 011 labeled 1")
    space = FeatureSpace(("F1", "F2", "F3"))
    classifier = TableClassifier(3, EX6_TABLE)
    entity = Entity((0, 1, 1))
    request = ExplanationRequest(
        entity=entity, classifier=classifier, distribution=UniformDistribution(space)
    )
    for kind in ("shap", "counter", "resp"):
        print(f"  {kind}:")
        for score in mlscores.score_all(request, [kind]):
            extra = ""
            if kind == "resp" and score.witness is not None:
                extra = f"  [{score.explanation_kind}, witness entity {score.witness.entity}]"
            print(f"    {score.feature}: {score.value}{extra}")

    constrained = condition(
        UniformDistribution(space), parse_constraint("!(~F2)", space)
    )
    request2 = ExplanationRequest(entity=entity, classifier=classifier, distribution=constrained)
    print("  counter, conditioned on the constraint !(~F2):")
    for score in mlscores.score_all(request2, ["counter"]):
        print(f"    {score.feature}: {score.value}")


def main() -> None:
    triangle_example()
    causal_effect_example()
    path_example()
    classifier_example()


if __name__ == "__main__":
    main()
