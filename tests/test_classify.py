import os
import random
import re
import sys
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DISTRIBUTIONS,
    expectation_by_formula,
    masses_by_formula,
    random_distribution,
    random_formula,
    random_truth_table,
)
from xscore import classify, clfserver
from xscore.classify import (
    Constraint,
    ClassifierProtocolError,
    DuplicateSampleError,
    EmpiricalDistribution,
    Entity,
    ExternalClassifier,
    FeatureSpace,
    FunctionClassifier,
    InconsistentConstraintError,
    ProductDistribution,
    TableClassifier,
    UniformDistribution,
    UnknownFeatureError,
    WidthLimitError,
    ZeroMassEventError,
    all_entities,
    condition,
    conditional_expectation,
    conjoin,
    load_sample_csv,
    load_truth_table_csv,
    parse_constraint,
)
from xscore.formula import ParseError


# ---------------------------------------------------------------------------
# Entities, feature spaces, classifiers


def test_entity_basics():
    e = Entity.from_bits("011")
    assert e.bits == (0, 1, 1)
    assert str(e) == "011"
    assert e.flip(0) == Entity((1, 1, 1))
    assert e.with_bits({1: 0, 2: 0}) == Entity((0, 0, 0))
    with pytest.raises(ValueError):
        Entity.from_bits("01x")


@given(st.data())
@settings(max_examples=100)
def test_flip_changes_exactly_the_given_bits(data):
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=12)))
    indices = data.draw(st.lists(st.integers(0, len(bits) - 1), unique=True))
    entity = Entity(bits)
    assert entity.flip(*indices) == entity.with_bits({i: 1 - bits[i] for i in indices})
    i = data.draw(st.integers(0, len(bits) - 1))
    assert entity.flip(i).bits == bits[:i] + (1 - bits[i],) + bits[i + 1 :]


@pytest.mark.parametrize("text", ["", "01x", "0 1", None])
def test_entity_from_bits_refuses_other_text(text):
    with pytest.raises(ValueError) as caught:
        Entity.from_bits(text)
    assert str(caught.value) == f"entity must be a non-empty string of 0/1, got {text!r}"


@pytest.mark.parametrize("bits", [(0, 2), (0, "1"), (None,), (1, 0.5)])
def test_entity_rejects_non_bits(bits):
    with pytest.raises(ValueError, match="entity bits must be 0/1"):
        Entity(bits)


def test_feature_space_validation():
    space = FeatureSpace(("A", "B"))
    assert space.width == 2
    assert space.index("B") == 1
    with pytest.raises(UnknownFeatureError):
        space.index("C")
    with pytest.raises(ValueError):
        FeatureSpace(("A", "A"))
    with pytest.raises(ValueError):
        FeatureSpace(())


def test_truth_table_labels(ex6_classifier):
    assert ex6_classifier.label(Entity.from_bits("011")) == 1
    assert ex6_classifier.label(Entity.from_bits("001")) == 0


def test_constant_classifier():
    clf = FunctionClassifier(3, lambda e: 0)
    for e in all_entities(3):
        assert clf.label(e) == 0


def test_label_width_check(ex6_classifier):
    with pytest.raises(ValueError):
        ex6_classifier.label(Entity.from_bits("01"))


def test_label_range_check():
    clf = FunctionClassifier(1, lambda e: 2)
    with pytest.raises(ValueError, match="expected 0 or 1"):
        clf.label(Entity.from_bits("0"))


def test_pure_classifier_caches():
    calls = []

    def fn(e):
        calls.append(e)
        return 1

    clf = FunctionClassifier(2, fn)
    e = Entity.from_bits("10")
    assert clf.label(e) == clf.label(e) == 1
    assert len(calls) == 1


def test_partial_table_requires_total_flag():
    with pytest.raises(ValueError, match="needs all"):
        TableClassifier(2, {(0, 0): 1})
    partial = TableClassifier(2, {(0, 0): 1}, total=False)
    assert partial.label(Entity.from_bits("00")) == 1
    with pytest.raises(ValueError, match="no label"):
        partial.label(Entity.from_bits("11"))


@pytest.mark.parametrize("total", [True, False])
def test_table_label_other_than_a_bit_is_refused_at_construction(total):
    with pytest.raises(ValueError, match="^truth table label 2 is not 0 or 1$"):
        TableClassifier(1, {(0,): 0, (1,): 2}, total=total)


@pytest.mark.parametrize("total", [True, False])
@pytest.mark.parametrize(
    "table, key",
    [
        ({(0, 0, 0): 1, (0, 0, 1): 0, (0, 1, 0): 1, (1, 1, 1): 0}, (0, 0, 0)),
        ({(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 2): 0}, (1, 2)),
        ({(0, 0): 1, (0, 1): 0, (1, 0): 1, "11": 0}, "11"),
    ],
)
def test_table_key_other_than_a_bit_tuple_of_its_width_is_refused(table, key, total):
    message = f"^truth table key {re.escape(repr(key))} is not a 0/1 tuple of width 2$"
    with pytest.raises(ValueError, match=message):
        TableClassifier(2, table, total=total)


def test_table_given_as_pairs_is_checked_as_a_mapping_is():
    table = {(0, 0): 1, (0, 1): 0, (1, 0): 1, (1, 1): 0}
    clf = TableClassifier(2, zip(table, table.values()))
    assert [clf.label(Entity(bits)) for bits in table] == list(table.values())
    bad_tables = [
        {**table, (1, 1): 2},  # a non-bit label
        {**table, (1, 2): 0},  # a key that is not a 0/1 pair
        dict(list(table.items())[:3]),  # a missing row
    ]
    for bad in bad_tables:
        with pytest.raises(ValueError) as as_mapping:
            TableClassifier(2, bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(as_mapping.value))}$"):
            TableClassifier(2, iter(bad.items()))


# ---------------------------------------------------------------------------
# Distributions


def test_uniform_probability():
    dist = UniformDistribution(FeatureSpace(("A", "B", "C")))
    for e in all_entities(3):
        assert dist.prob(e) == Fraction(1, 8)


def test_empirical_probability():
    space = FeatureSpace(("A", "B", "C"))
    sample = [Entity.from_bits(s) for s in ("000", "011", "101", "111")]
    dist = EmpiricalDistribution(space, sample)
    assert dist.prob(Entity.from_bits("011")) == Fraction(1, 4)
    assert dist.prob(Entity.from_bits("010")) == 0
    with pytest.raises(DuplicateSampleError):
        EmpiricalDistribution(space, sample + [Entity.from_bits("000")])


def test_product_probability():
    space = FeatureSpace(("A", "B"))
    dist = ProductDistribution(space, [Fraction(1, 3), Fraction(3, 4)])
    assert dist.prob(Entity.from_bits("10")) == Fraction(1, 3) * Fraction(1, 4)
    assert dist.prob(Entity.from_bits("01")) == Fraction(2, 3) * Fraction(3, 4)
    with pytest.raises(ValueError):
        ProductDistribution(space, [Fraction(1, 2)])
    with pytest.raises(ValueError):
        ProductDistribution(space, [Fraction(3, 2), Fraction(1, 2)])


def test_product_from_sample():
    space = FeatureSpace(("A", "B"))
    sample = [Entity.from_bits(s) for s in ("00", "01", "11")]
    dist = ProductDistribution.from_sample(space, sample)
    assert dist.marginals == (Fraction(1, 3), Fraction(2, 3))


def test_conditioned_masses_derived_example():
    # Forbid A=1, B=0 on a width-2 uniform space: survivor masses 1/3 each.
    space = FeatureSpace(("A", "B"))
    constraint = Constraint.denial(space, positive=["A"], negative=["B"])
    dist = condition(UniformDistribution(space), constraint)
    masses = {str(e): dist.prob(e) for e in all_entities(2)}
    assert masses == {
        "00": Fraction(1, 3),
        "01": Fraction(1, 3),
        "10": Fraction(0),
        "11": Fraction(1, 3),
    }


@given(st.integers(0, 10**9), st.integers(1, 8))
@settings(max_examples=40)
def test_total_mass_is_one(seed, width):
    rng = random.Random(seed)
    space = FeatureSpace(tuple(f"F{i}" for i in range(width)))
    variant = rng.choice(["uniform", "empirical", "product"])
    if variant == "uniform":
        dist = UniformDistribution(space)
    elif variant == "empirical":
        population = list(all_entities(width))
        members = rng.sample(population, rng.randint(1, len(population)))
        dist = EmpiricalDistribution(space, members)
    else:
        dist = ProductDistribution(
            space, [Fraction(rng.randint(0, 8), 8) for _ in range(width)]
        )
    if rng.random() < 0.5:
        pivot = rng.choice(space.names)
        constraint = Constraint.denial(space, positive=[pivot], negative=[])
        try:
            dist = condition(dist, constraint)
        except InconsistentConstraintError:
            return  # the sample or marginals put no mass on the survivors
    assert sum(dist.prob(e) for e in all_entities(width)) == 1


@given(st.integers(0, 10**9), st.integers(1, 4), st.sampled_from(DISTRIBUTIONS), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_prob_and_expectation_match_rational_formulas(seed, width, kind, nested):
    # Product marginals include 0 and 1; up to two more constraints are
    # conditioned on top of any kind, conditioned ones included.
    rng = random.Random(seed)
    space, clf = random_truth_table(rng, width)
    try:
        dist = random_distribution(rng, space, kind)
    except InconsistentConstraintError:
        return
    for _ in range(nested):
        constraint = Constraint(space=space, root=random_formula(rng, space.names))
        base = masses_by_formula(dist)
        if sum(p for e, p in base.items() if constraint.satisfied_by(e)) == 0:
            with pytest.raises(InconsistentConstraintError):
                condition(dist, constraint)
            break
        dist = condition(dist, constraint)
    masses = masses_by_formula(dist)
    assert {e: dist.prob(e) for e in masses} == masses
    entity = rng.choice(list(masses))
    for size in range(width + 1):
        for fixed in combinations(space.names, size):
            try:
                expected = expectation_by_formula(dist, clf, entity, fixed)
            except ZeroMassEventError:
                with pytest.raises(ZeroMassEventError):
                    conditional_expectation(dist, clf, entity, fixed)
                continue
            assert conditional_expectation(dist, clf, entity, fixed) == expected


def test_condition_on_true_is_identity_masses(ex6_space):
    base = UniformDistribution(ex6_space)
    dist = condition(base, parse_constraint("true", ex6_space))
    for e in all_entities(3):
        assert dist.prob(e) == base.prob(e)


def test_condition_singleton_conjunction_equals_single(ex6_space):
    base = UniformDistribution(ex6_space)
    chi = parse_constraint("!(F1 & ~F2)", ex6_space)
    one = condition(base, chi)
    many = condition(base, [chi])
    for e in all_entities(3):
        assert one.prob(e) == many.prob(e)


def test_condition_zero_mass_rejected(ex6_space):
    base = UniformDistribution(ex6_space)
    message = "^constraint false has zero mass under the base distribution$"
    with pytest.raises(InconsistentConstraintError, match=message):
        condition(base, parse_constraint("false", ex6_space))
    # two denials that jointly forbid both values of F1
    theta = [
        parse_constraint("!(F1)", ex6_space),
        parse_constraint("!(~F1)", ex6_space),
    ]
    with pytest.raises(InconsistentConstraintError):
        condition(base, theta)
    # satisfiable constraint, but with no mass on an empirical sample
    sample = EmpiricalDistribution(ex6_space, [Entity.from_bits("100")])
    with pytest.raises(InconsistentConstraintError):
        condition(sample, parse_constraint("!(F1)", ex6_space))


def test_conditioning_stops_at_the_first_survivor_with_mass(monkeypatch):
    space = FeatureSpace(tuple(f"F{i}" for i in range(1, 17)))
    constraint = parse_constraint("!(F1 & ~F2)", space)
    tested = []
    satisfied_by = Constraint.satisfied_by
    monkeypatch.setattr(
        Constraint, "satisfied_by", lambda self, e: tested.append(e) or satisfied_by(self, e)
    )
    dist = condition(UniformDistribution(space), constraint)
    assert tested == [Entity((0,) * 16)]
    # `prob` sums the survivors' total when it first reads it.
    assert dist.prob(Entity((0,) * 16)) == Fraction(1, 3 * 2**14)


def test_nested_conditioning(ex6_space):
    base = UniformDistribution(ex6_space)
    first = condition(base, parse_constraint("!(F1)", ex6_space))
    second = condition(first, parse_constraint("!(F2)", ex6_space))
    survivors = [e for e in all_entities(3) if e.bits[0] == 0 and e.bits[1] == 0]
    assert sum(second.prob(e) for e in all_entities(3)) == 1
    for e in survivors:
        assert second.prob(e) == Fraction(1, 2)


def test_conditioned_support_is_filtered_once(ex6_space):
    sample = [Entity.from_bits(bits) for bits in ("000", "011", "100", "110")]
    not_f1 = parse_constraint("!(F1)", ex6_space)
    dist = condition(EmpiricalDistribution(ex6_space, sample), not_f1)
    assert dist.finite_support == (sample[0], sample[1])
    assert dist.finite_support is dist.finite_support
    assert condition(UniformDistribution(ex6_space), not_f1).finite_support is None


# ---------------------------------------------------------------------------
# Constraints


def test_denial_constraint_example():
    # forbid "age flag off while the large-overdraft flag is on"
    space = FeatureSpace(("AgeOver20", "OverDr50M"))
    chi = Constraint.denial(space, positive=["OverDr50M"], negative=["AgeOver20"])
    assert not chi.satisfied_by(Entity.from_bits("01"))
    for bits in ("00", "10", "11"):
        assert chi.satisfied_by(Entity.from_bits(bits))


def test_denial_requires_disjoint_sides(ex6_space):
    with pytest.raises(ValueError):
        Constraint.denial(ex6_space, positive=["F1"], negative=["F1"])
    with pytest.raises(ValueError):
        Constraint.denial(ex6_space, positive=[], negative=[])
    with pytest.raises(UnknownFeatureError):
        Constraint.denial(ex6_space, positive=["F9"], negative=[])


def test_tautology_via_general_form(ex6_space):
    chi = parse_constraint("true", ex6_space)
    for e in all_entities(3):
        assert chi.satisfied_by(e)


def test_conjunction_semantics(ex6_space):
    a = parse_constraint("!(F1 & ~F2)", ex6_space)
    b = parse_constraint("!(F3)", ex6_space)
    both = conjoin([a, b])
    for e in all_entities(3):
        assert both.satisfied_by(e) == (a.satisfied_by(e) and b.satisfied_by(e))
    with pytest.raises(ValueError):
        conjoin([])


def test_parse_constraint_forms(ex6_space):
    chi = parse_constraint("!(F1 & ~F2)", ex6_space)
    assert not chi.satisfied_by(Entity.from_bits("101"))
    assert chi.satisfied_by(Entity.from_bits("111"))
    general = parse_constraint("F1 | (~F2 & F3)", ex6_space)
    assert general.satisfied_by(Entity.from_bits("100"))
    assert general.satisfied_by(Entity.from_bits("001"))
    assert not general.satisfied_by(Entity.from_bits("010"))


def test_parse_constraint_precedence(ex6_space):
    # & binds tighter than |
    chi = parse_constraint("F1 | F2 & F3", ex6_space)
    assert chi.satisfied_by(Entity.from_bits("100"))
    assert chi.satisfied_by(Entity.from_bits("011"))
    assert not chi.satisfied_by(Entity.from_bits("010"))


def test_parse_constraint_errors(ex6_space):
    with pytest.raises(ParseError):
        parse_constraint("F1 &", ex6_space)
    with pytest.raises(ParseError, match="unknown feature"):
        parse_constraint("F9", ex6_space)


def test_satisfiability_check(ex6_space):
    assert parse_constraint("!(F1)", ex6_space).is_satisfiable()
    assert not parse_constraint("false", ex6_space).is_satisfiable()


# ---------------------------------------------------------------------------
# Conditional expectations


def test_fully_fixed_expectation_is_the_label(ex6_space, ex6_classifier, ex6_e1):
    dist = UniformDistribution(ex6_space)
    value = conditional_expectation(dist, ex6_classifier, ex6_e1, ex6_space.names)
    assert value == ex6_classifier.label(ex6_e1) == 1


def test_constant_classifier_expectation(ex6_space, ex6_e1):
    dist = UniformDistribution(ex6_space)
    clf = FunctionClassifier(3, lambda e: 1)
    for fixed in ([], ["F1"], ["F1", "F3"]):
        assert conditional_expectation(dist, clf, ex6_e1, fixed) == 1


def test_expectation_two_completions(ex6_space, ex6_classifier, ex6_e1):
    dist = UniformDistribution(ex6_space)
    value = conditional_expectation(dist, ex6_classifier, ex6_e1, ["F1", "F3"])
    assert value == Fraction(1, 2)  # completions 011 (label 1) and 001 (label 0)


@given(st.integers(0, 10**9))
@settings(max_examples=30)
def test_uniform_expectation_is_mean_of_completions(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    space, clf = random_truth_table(rng, width)
    entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    fixed = [n for n in space.names if rng.random() < 0.5]
    fixed_idx = [space.index(n) for n in fixed]
    dist = UniformDistribution(space)
    value = conditional_expectation(dist, clf, entity, fixed)
    agreeing = [
        e
        for e in all_entities(width)
        if all(e.bits[i] == entity.bits[i] for i in fixed_idx)
    ]
    mean = Fraction(sum(clf.label(e) for e in agreeing), len(agreeing))
    assert value == mean


def test_zero_mass_event_is_an_error(ex6_space, ex6_classifier):
    dist = EmpiricalDistribution(ex6_space, [Entity.from_bits("111")])
    outsider = Entity.from_bits("000")
    with pytest.raises(ZeroMassEventError):
        conditional_expectation(dist, ex6_classifier, outsider, ["F1"])


def test_conditioned_expectation_excludes_violators(ex6_space, ex6_classifier, ex6_e1):
    # forbidding F2=0 removes e7 = 001 from F2-free completions
    dist = condition(UniformDistribution(ex6_space), parse_constraint("!(~F2)", ex6_space))
    value = conditional_expectation(dist, ex6_classifier, ex6_e1, ["F1", "F3"])
    assert value == 1  # only 011 remains


def test_width_limit_guard():
    space = FeatureSpace(tuple(f"F{i}" for i in range(24)))
    dist = UniformDistribution(space)
    clf = FunctionClassifier(24, lambda e: 0)
    entity = Entity((0,) * 24)
    with pytest.raises(WidthLimitError):
        conditional_expectation(dist, clf, entity, [])
    with pytest.raises(WidthLimitError):
        list(all_entities(24))
    # Without a sample, conditioning seeks its first survivor over all 2^24.
    with pytest.raises(WidthLimitError):
        condition(dist, parse_constraint("F1", space))


# ---------------------------------------------------------------------------
# External classifier protocol


def external_for(path) -> ExternalClassifier:
    return ExternalClassifier([sys.executable, "-m", "xscore.clfserver", str(path)])


def test_external_matches_in_process(tmp_path):
    rng = random.Random(99)
    width = 6
    space, local = random_truth_table(rng, width)
    table_csv = tmp_path / "table.csv"
    rows = [",".join(space.names) + ",label"]
    for bits in product((0, 1), repeat=width):
        rows.append(",".join(map(str, bits)) + f",{local.label(Entity(bits))}")
    table_csv.write_text("\n".join(rows) + "\n")

    with external_for(table_csv) as remote:
        assert remote.width == width
        for e in all_entities(width):
            assert remote.label(e) == local.label(e)


def test_external_labels_windows_and_unread_answers(tmp_path, monkeypatch):
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", 3)
    width = 4
    space, local = random_truth_table(random.Random(5), width)
    table_csv = tmp_path / "table.csv"
    rows = [",".join(space.names) + ",label"]
    for bits in product((0, 1), repeat=width):
        rows.append(",".join(map(str, bits)) + f",{local.label(Entity(bits))}")
    table_csv.write_text("\n".join(rows) + "\n")
    entities = list(all_entities(width))

    with external_for(table_csv) as remote:
        assert list(remote.labels(entities[:7] + entities[:2])) == [
            local.label(e) for e in entities[:7] + entities[:2]
        ]
        # Two labels read of a window of three: the third answer is cached
        # before the next request is written.
        labels = remote.labels(entities[8:])
        assert [next(labels), next(labels)] == [local.label(e) for e in entities[8:10]]
        assert remote.label(entities[15]) == local.label(entities[15])
        assert entities[10].bits in remote._cache
        assert entities[11].bits not in remote._cache
        assert list(labels) == [local.label(e) for e in entities[10:]]


def test_external_asks_an_outstanding_entity_once(tmp_path, monkeypatch):
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", 3)
    count = tmp_path / "count"
    code = (
        "import sys; print('xscore-clf v1 n=2', flush=True); n = 0\n"
        "for line in sys.stdin:\n    n += 1; print(1, flush=True)\n"
        f"open({str(count)!r}, 'w').write(str(n))"
    )
    entities = list(all_entities(2))
    with ExternalClassifier([sys.executable, "-c", code]) as clf:
        assert next(clf.labels(entities[:3])) == 1
        # Its answer is outstanding: read, not asked again.
        assert clf.label(entities[1]) == 1
        assert clf.label(entities[3]) == 1
    assert count.read_text() == "4"


def test_external_interleaved_label_streams(tmp_path, monkeypatch):
    # Every window is answered whole before its first label is yielded, so
    # two streams drawn in turn over one classifier see no stray answers.
    monkeypatch.setattr(classify, "WINDOW_REQUESTS", 3)
    width = 4
    space, local = random_truth_table(random.Random(11), width)
    table_csv = tmp_path / "table.csv"
    rows = [",".join(space.names) + ",label"]
    for bits in product((0, 1), repeat=width):
        rows.append(",".join(map(str, bits)) + f",{local.label(Entity(bits))}")
    table_csv.write_text("\n".join(rows) + "\n")
    forward = list(all_entities(width))
    backward = forward[::-1]

    with external_for(table_csv) as remote:
        pairs = list(zip(remote.labels(forward), remote.labels(backward)))
    assert pairs == [(local.label(a), local.label(b)) for a, b in zip(forward, backward)]


def test_external_close_lets_the_child_answer_what_is_outstanding():
    # The client stops reading after one answer of a window of four; the
    # slow child must still write the other three into an open pipe.
    code = (
        "import sys, time; print('xscore-clf v1 n=2', flush=True)\n"
        "for line in sys.stdin:\n    time.sleep(0.02); print(1, flush=True)"
    )
    clf = ExternalClassifier([sys.executable, "-c", code])
    assert next(clf.labels(all_entities(2))) == 1
    clf.close()
    assert clf._proc.returncode == 0


def test_external_bad_handshake():
    with pytest.raises(ClassifierProtocolError, match="handshake"):
        ExternalClassifier([sys.executable, "-c", "print('hello there')"])


@pytest.mark.parametrize(
    "width,message",
    [("abc", r"bad handshake width in 'xscore-clf v1 n=abc\n'"), ("0", "bad handshake width 0")],
)
def test_external_bad_handshake_width(width, message):
    code = f"print('xscore-clf v1 n={width}', flush=True)"
    with pytest.raises(ClassifierProtocolError, match=f"^{re.escape(message)}$"):
        ExternalClassifier([sys.executable, "-c", code])


@pytest.mark.parametrize(
    "line", ["hello there", "xscore-clf v1 n=abc", "xscore-clf v1 n=0"],
    ids=["bad prefix", "non-integer width", "width 0"],
)
def test_external_refused_handshake_reaps_the_child(tmp_path, line):
    # The child would block on its input forever: the refusal must close
    # the pipe and wait for it before the constructor raises.
    pid_file = tmp_path / "pid"
    code = (
        "import os, sys\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        f"print({line!r}, flush=True)\n"
        "sys.stdin.read()"
    )
    with pytest.raises(ClassifierProtocolError, match="^bad handshake"):
        ExternalClassifier([sys.executable, "-c", code])
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_external_empty_command():
    with pytest.raises(ValueError, match="^empty classifier command$"):
        ExternalClassifier([])


def test_external_unreachable_command():
    with pytest.raises(ClassifierProtocolError, match="cannot start"):
        ExternalClassifier(["/no/such/binary-xyz"])


def test_external_bad_response():
    code = (
        "print('xscore-clf v1 n=2', flush=True);"
        "input();"
        "print('banana', flush=True)"
    )
    with ExternalClassifier([sys.executable, "-c", code]) as clf:
        with pytest.raises(ClassifierProtocolError, match="response"):
            clf.label(Entity.from_bits("01"))


def test_external_process_death():
    code = "print('xscore-clf v1 n=2', flush=True)"
    with ExternalClassifier([sys.executable, "-c", code]) as clf:
        clf._proc.wait(timeout=5)
        with pytest.raises(ClassifierProtocolError):
            clf.label(Entity.from_bits("01"))


SILENT_CHILDREN = {
    "before the handshake": "import time; time.sleep(60)",
    "after a request": "print('xscore-clf v1 n=2', flush=True); input(); import time; time.sleep(60)",
}


@pytest.mark.parametrize("code", SILENT_CHILDREN.values(), ids=SILENT_CHILDREN.keys())
def test_external_silent_child_hits_deadline(monkeypatch, code):
    monkeypatch.setattr(classify, "RESPONSE_DEADLINE_S", 1.0)
    start = time.monotonic()
    with pytest.raises(ClassifierProtocolError, match="no line within 1.0 s"):
        with ExternalClassifier([sys.executable, "-c", code]) as clf:
            clf.label(Entity.from_bits("01"))
    # The child is killed, not waited for: closing waits up to 5 s.
    assert time.monotonic() - start < 2.0


# ---------------------------------------------------------------------------
# File loaders


def test_load_truth_table(data_dir):
    space, clf = load_truth_table_csv(data_dir / "ex6_table.csv")
    assert space.names == ("F1", "F2", "F3")
    assert clf.label(Entity.from_bits("011")) == 1
    assert clf.label(Entity.from_bits("001")) == 0


def test_bit_csvs_drop_a_byte_order_mark(data_dir, tmp_path):
    # Spreadsheet exports often start with one; F1 is still named F1, in a
    # truth table, in a sample and in the reference server's table.
    table, sample = tmp_path / "t.csv", tmp_path / "s.csv"
    table.write_text("\ufeff" + (data_dir / "ex6_table.csv").read_text(), encoding="utf-8")
    sample.write_text("\ufeffF1,F2\n0,1\n", encoding="utf-8")
    assert load_truth_table_csv(table)[0].names == ("F1", "F2", "F3")
    assert load_sample_csv(sample).space.names == ("F1", "F2")
    assert clfserver.read_truth_table(table)[0] == ["F1", "F2", "F3"]


def test_load_truth_table_requires_all_rows(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("A,B,label\n0,0,1\n")
    with pytest.raises(ValueError, match="needs all"):
        load_truth_table_csv(f)


def test_load_truth_table_rejects_duplicates(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("A,label\n0,1\n0,0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_truth_table_csv(f)


def test_load_truth_table_requires_label_column(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("A,B\n0,0\n")
    with pytest.raises(ValueError, match="label"):
        load_truth_table_csv(f)


def test_load_sample_with_labels(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("A,B,_label\n0,0,1\n1,0,0\n")
    sample = load_sample_csv(f)
    assert sample.space.names == ("A", "B")
    assert sample.entities == (Entity((0, 0)), Entity((1, 0)))
    assert sample.labels == {Entity((0, 0)): 1, Entity((1, 0)): 0}


def test_load_sample_without_labels(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("A,B\n0,0\n1,0\n")
    assert load_sample_csv(f).labels is None


def test_load_sample_duplicates(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("A,B\n0,0\n0,0\n1,1\n")
    with pytest.raises(DuplicateSampleError):
        load_sample_csv(f)
    sample = load_sample_csv(f, dedupe=True)
    assert sample.entities == (Entity((0, 0)), Entity((1, 1)))


def test_load_sample_duplicate_names_its_line(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("A,B\n0,0\n1,1\n0,1\n1,1\n")
    with pytest.raises(DuplicateSampleError) as caught:
        load_sample_csv(f)
    assert str(caught.value) == f"{f}: duplicate sample entity at line 5"


@pytest.mark.parametrize("labelled", [True, False])
def test_load_sample_dedupe_keeps_first_occurrences_in_file_order(tmp_path, labelled):
    rows = [("1", "1", "0"), ("0", "0", "1"), ("1", "1", "1"), ("0", "1", "0"), ("0", "0", "0")]
    header = "A,B,_label" if labelled else "A,B"
    f = tmp_path / "s.csv"
    f.write_text("\n".join([header] + [",".join(r if labelled else r[:2]) for r in rows]) + "\n")
    sample = load_sample_csv(f, dedupe=True)
    firsts = (Entity((1, 1)), Entity((0, 0)), Entity((0, 1)))
    assert sample.entities == firsts
    if labelled:
        assert list(sample.labels.items()) == list(zip(firsts, (0, 1, 0)))
    else:
        assert sample.labels is None


def test_load_sample_rejects_non_bits(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("A,B\n0,7\n")
    with pytest.raises(ValueError, match="non-bit"):
        load_sample_csv(f)


# Each file has two faults; the reader streams it, so the first in file
# order is the one refused, and a header fault comes before any row fault.
FIRST_FAULTS = {
    "table-row": ("A,B,label\n0,0,1\n0,0,0\n0,1,1\n1,x,0\n", "duplicate entity row at line 3"),
    "table-header": ("A,A,label\n0,x,1\n", "feature names must be unique"),
    "sample-row": ("A,B\n0,0\n0,0\n0,1\n1,x\n", "duplicate sample entity at line 3"),
    "sample-header": ("A,A\n0,x\n", "feature names must be unique"),
}


@pytest.mark.parametrize("case", sorted(FIRST_FAULTS))
def test_bit_csv_refuses_its_first_fault_in_file_order(tmp_path, case):
    text, fault = FIRST_FAULTS[case]
    f = tmp_path / "f.csv"
    f.write_text(text)
    loaders = [load_sample_csv]
    if case.startswith("table"):
        loaders = [load_truth_table_csv, clfserver.read_truth_table]
    for load in loaders:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}: {fault}')}$"):
            load(f)
