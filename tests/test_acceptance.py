"""Acceptance suite: one test per release criterion.

Each criterion prints a `[criterion NN] PASS/FAIL` line (visible under
`pytest -s` or `-v` with output capture off) and enforces its stated time
bound.  All exact checks use rational arithmetic with zero tolerance.
"""
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    hierarchy_by_definition,
    random_database_for,
    random_monotone_game,
    random_query,
    random_sjf_query,
    random_truth_table,
    resp_by_exhaustion,
    shapley_by_permutations,
)
from xscore import cli, dbscores, games, mlscores, reldb
from xscore.classify import (
    Constraint,
    EmpiricalDistribution,
    Entity,
    FeatureSpace,
    InconsistentConstraintError,
    ProductDistribution,
    UniformDistribution,
    all_entities,
    condition,
    parse_constraint,
)
from xscore.mlscores import ExplanationRequest, counter, resp, shap


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:02d}] PASS {label} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s, limit {limit_seconds}s"


def test_criterion_01_responsibility_golden(ex1_db, ex1_query):
    with criterion(1, "responsibility golden values", 1.0):
        lineage = dbscores.query_lineage(ex1_db, ex1_query)
        reports = {
            r.tuple_id: r.responsibility
            for r in dbscores.lineage_causes(lineage, ex1_db.tuple_ids())
        }
        assert reports["S(b)"] == Fraction(1)
        assert reports["R(a,b)"] == Fraction(1, 2)
        assert reports["R(b,b)"] == Fraction(1, 2)
        assert reports["S(a)"] == Fraction(1, 2)
        assert reports["R(c,d)"] == Fraction(0)
        assert reports["S(c)"] == Fraction(0)


def test_criterion_02_causal_effect_golden(ce_db, ce_query):
    with criterion(2, "intervened lineage probabilities and causal effect", 1.0):
        lineage = reldb.compile_lineage(ce_db, ce_query)
        off = dbscores.intervene(lineage, "S(b)", 0)
        on = dbscores.intervene(lineage, "S(b)", 1)
        assert dbscores.lineage_probability(off) == Fraction(1, 4)
        assert dbscores.lineage_probability(on) == Fraction(13, 16)
        assert dbscores.causal_effect(lineage, "S(b)") == Fraction(9, 16)


def test_criterion_03_path_lineage_golden(path_lineage):
    with criterion(3, "path-lineage causal effects", 1.0):
        expected = {
            "t1": Fraction(21, 32),
            "t2": Fraction(7, 32),
            "t3": Fraction(7, 32),
            "t4": Fraction(3, 32),
            "t5": Fraction(3, 32),
            "t6": Fraction(3, 32),
        }
        for tid, value in expected.items():
            assert dbscores.causal_effect(path_lineage, tid) == value


def test_criterion_04_banzhaf_equals_causal_effect():
    with criterion(4, "Banzhaf = causal effect on 200 random instances", 60.0):
        rng = random.Random(0xDB5C0)
        for _ in range(200):
            query = random_sjf_query(rng, max_atoms=3)
            db = random_database_for(rng, query, max_tuples=8)
            lineage = reldb.compile_lineage(db, query)
            indices = games.banzhaf_all(dbscores.lineage_game(lineage, db.tuple_ids()))
            for tid in db.tuple_ids():
                assert indices[tid] == dbscores.causal_effect(lineage, tid)


def test_criterion_05_shapley_properties():
    with criterion(5, "Shapley properties on 100 random monotone games", 60.0):
        rng = random.Random(0x5AB1E)
        for _ in range(100):
            game = random_monotone_game(rng, max_players=6)
            values = games.shapley_all(game)
            grand = Fraction(game.value(frozenset(game.players)))
            empty = Fraction(game.value(frozenset()))
            assert sum(values.values()) == grand - empty  # efficiency
            twin, null = game.players[-2], game.players[-1]
            assert values[null] == 0  # null player
            assert values[0] == values[twin]  # symmetry
            for player in game.players:  # subset form == permutation average
                assert values[player] == shapley_by_permutations(game, player)


def test_criterion_06_dichotomy_classifier():
    with criterion(6, "hierarchy dichotomy classification", 5.0):
        hierarchical = reldb.analyze(reldb.parse_query("Q() :- R(x,y), S(x,z)"))
        assert hierarchical.hierarchical and hierarchical.self_join_free
        assert reldb.dichotomy_verdict(hierarchical) == "poly-time"
        nh = reldb.analyze(reldb.parse_query("Q() :- R(x), S(x,y), T(y)"))
        assert not nh.hierarchical and nh.self_join_free
        assert reldb.dichotomy_verdict(nh) == "FP^#P-complete"
        rng = random.Random(0xD1C07)
        for _ in range(50):
            query = random_query(rng)
            analysis = reldb.analyze(query)
            assert analysis.hierarchical == hierarchy_by_definition(query)
            relations = [a.relation for a in query.atoms]
            assert analysis.self_join_free == (len(set(relations)) == len(relations))


def test_criterion_07_monte_carlo_shapley(ex1_db, ex1_query):
    with criterion(7, "Monte Carlo Shapley coverage (100 seeded runs)", 60.0):
        lineage = reldb.compile_lineage(ex1_db, ex1_query)
        players = ex1_db.tuple_ids()
        exact = games.shapley_all(dbscores.lineage_game(lineage, players))
        epsilon = delta = 0.05
        runs = [
            dbscores.monte_carlo_shapley(lineage, epsilon, delta, seed, players)
            for seed in range(100)
        ]
        for tid in players:
            hits = sum(abs(run[tid] - float(exact[tid])) <= epsilon for run in runs)
            assert hits >= 95, f"{tid}: only {hits}/100 runs within ±{epsilon}"


def test_criterion_08_resp_golden(ex6_space, ex6_classifier, ex6_e1):
    with criterion(8, "RESP golden values and exhaustive-oracle check", 1.0):
        request = ExplanationRequest(
            entity=ex6_e1,
            classifier=ex6_classifier,
            distribution=UniformDistribution(ex6_space),
        )
        f2 = resp(request, "F2")
        assert f2.value == 1
        assert f2.explanation_kind == "counterfactual"
        assert str(f2.witness.entity) == "001"  # consistent with the 0-labeled flip
        f1 = resp(request, "F1")
        assert f1.value == Fraction(1, 2)
        assert f1.witness.contingency == ("F2",)
        f3 = resp(request, "F3")
        assert f3.value == resp_by_exhaustion(ex6_classifier, ex6_space, ex6_e1, "F3")
        assert f3.value == Fraction(1, 2)  # frozen from the oracle


def test_criterion_09_shap_efficiency():
    with criterion(9, "SHAP efficiency on 100 random classifiers", 60.0):
        rng = random.Random(0x5AAB)
        for _ in range(100):
            width = rng.randint(1, 6)
            space, clf = random_truth_table(rng, width)
            population = list(all_entities(width))

            entity = rng.choice(population)
            uniform = ExplanationRequest(
                entity=entity, classifier=clf, distribution=UniformDistribution(space)
            )
            total = sum(s.value for s in mlscores.score_all(uniform, ["shap"]))
            mean = Fraction(sum(clf.label(e) for e in population), 2**width)
            assert total == clf.label(entity) - mean

            sample = rng.sample(population, rng.randint(1, len(population)))
            member = rng.choice(sample)
            empirical = ExplanationRequest(
                entity=member,
                classifier=clf,
                distribution=EmpiricalDistribution(space, sample),
            )
            total = sum(s.value for s in mlscores.score_all(empirical, ["shap"]))
            sample_mean = Fraction(sum(clf.label(e) for e in sample), len(sample))
            assert total == clf.label(member) - sample_mean


def test_criterion_10_counter_two_point_identity():
    with criterion(10, "COUNTER two-point identity sweeps", 60.0):
        # exhaustive over every classifier for n <= 3, seeded samples above
        for width in (1, 2, 3):
            population = list(product((0, 1), repeat=width))
            for labels in product((0, 1), repeat=len(population)):
                table = dict(zip(population, labels))
                _check_counter_identity(width, table)
        rng = random.Random(0xC0C0)
        for width in (4, 5):
            population = list(product((0, 1), repeat=width))
            for _ in range(40):
                table = {bits: rng.randint(0, 1) for bits in population}
                _check_counter_identity(width, table)


def _check_counter_identity(width, table):
    from xscore.classify import TableClassifier

    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    clf = TableClassifier(width, table)
    dist = UniformDistribution(space)
    for bits in product((0, 1), repeat=width):
        entity = Entity(bits)
        request = ExplanationRequest(entity=entity, classifier=clf, distribution=dist)
        for i, name in enumerate(space.names):
            expected = Fraction(clf.label(entity) - clf.label(entity.flip(i)), 2)
            assert counter(request, name).value == expected


def test_criterion_11_constraint_conditioning():
    with criterion(11, "constraint conditioning on 100 random pairs", 60.0):
        rng = random.Random(0xC0115)
        checked = 0
        while checked < 100:
            width = rng.randint(1, 10)
            space = FeatureSpace(tuple(f"F{i}" for i in range(width)))
            base = _random_distribution(rng, space)
            constraint = _random_constraint(rng, space)
            try:
                conditioned = condition(base, constraint)
            except InconsistentConstraintError:
                continue  # zero-mass pair; rejected as designed
            checked += 1
            total = Fraction(0)
            mass = sum(
                base.prob(e) for e in all_entities(width) if constraint.satisfied_by(e)
            )
            for e in all_entities(width):
                p = conditioned.prob(e)
                total += p
                if not constraint.satisfied_by(e):
                    assert p == 0
                else:
                    assert p == base.prob(e) / mass  # base-proportional
            assert total == 1

        space = FeatureSpace(("A", "B"))
        with pytest.raises(InconsistentConstraintError):
            condition(UniformDistribution(space), parse_constraint("false", space))
        with pytest.raises(InconsistentConstraintError):
            condition(
                UniformDistribution(space),
                [parse_constraint("!(A)", space), parse_constraint("!(~A)", space)],
            )


def _random_distribution(rng, space):
    variant = rng.choice(("uniform", "empirical", "product"))
    if variant == "uniform":
        return UniformDistribution(space)
    if variant == "empirical":
        population = list(all_entities(space.width))
        return EmpiricalDistribution(
            space, rng.sample(population, rng.randint(1, min(len(population), 64)))
        )
    return ProductDistribution(
        space, [Fraction(rng.randint(0, 8), 8) for _ in range(space.width)]
    )


def _random_constraint(rng, space):
    if rng.random() < 0.7:
        names = list(space.names)
        rng.shuffle(names)
        k = rng.randint(1, min(3, len(names)))
        chosen = names[:k]
        split = rng.randint(0, k)
        return Constraint.denial(space, positive=chosen[:split], negative=chosen[split:])
    literals = []
    for name in rng.sample(space.names, rng.randint(1, min(3, space.width))):
        literals.append(name if rng.random() < 0.5 else f"~{name}")
    connective = " | " if rng.random() < 0.5 else " & "
    return parse_constraint(connective.join(literals), space)


def test_criterion_12_external_classifier_byte_identical(data_dir, tmp_path):
    with criterion(12, "external classifier scores byte-identical", 60.0):
        table = str(data_dir / "ex6_table.csv")
        local_out = tmp_path / "local.json"
        external_out = tmp_path / "external.json"
        base = ["ml-scores", "--entity", "011", "--kinds", "counter,resp,shap"]
        assert (
            cli.main(base + ["--classifier", table, "--output", str(local_out)]) == 0
        )
        assert (
            cli.main(
                base
                + [
                    "--classifier-cmd",
                    f"{sys.executable} -m xscore.clfserver {table}",
                    "--features",
                    "F1,F2,F3",
                    "--output",
                    str(external_out),
                ]
            )
            == 0
        )
        local = json.loads(local_out.read_text())["records"]
        external = json.loads(external_out.read_text())["records"]
        assert json.dumps(local, sort_keys=True) == json.dumps(external, sort_keys=True)
