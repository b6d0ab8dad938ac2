import random
import re
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DISTRIBUTIONS,
    all_entities,
    flip,
    random_distribution,
    random_truth_table,
    resp_by_exhaustion,
    resp_by_replacement_search,
    shap_game_by_expectation,
    shap_by_expectation,
    shapley_by_permutations,
)
from xscore import games, mlscores
from xscore.classify import (
    Entity,
    FeatureSpace,
    FunctionClassifier,
    InconsistentConstraintError,
    TableClassifier,
    UniformDistribution,
    WidthLimitError,
    ZeroMassEventError,
    condition,
    conditional_expectation,
    parse_constraint,
)
from xscore.knowledge import EmpiricalDistribution, ProductDistribution
from xscore.mlscores import (
    ExplanationRequest,
    LabelMismatchError,
    ZeroMassSkipWarning,
    counter,
    resp,
    score_all,
    shap,
)


def uniform_request(space, classifier, entity, **kwargs) -> ExplanationRequest:
    return ExplanationRequest(
        entity=entity,
        classifier=classifier,
        distribution=UniformDistribution(space),
        **kwargs,
    )


@pytest.fixture
def ex6_request(ex6_space, ex6_classifier, ex6_e1):
    return uniform_request(ex6_space, ex6_classifier, ex6_e1)


def test_total_table_never_reaches_label(ex6_request, monkeypatch):
    def missing(self, entity):
        raise AssertionError(f"{entity} asked past the table")

    monkeypatch.setattr(TableClassifier, "_label", missing)
    scores = score_all(ex6_request, ["counter", "resp", "shap"])
    assert len(scores) == 9


def dictator_request(width=3):
    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    clf = FunctionClassifier(width, lambda e: e.bits[0])
    entity = Entity((1,) * width)
    return uniform_request(space, clf, entity)


# ---------------------------------------------------------------------------
# SHAP


def test_shap_constant_classifier(ex6_space, ex6_e1):
    clf = FunctionClassifier(3, lambda e: 1)
    request = uniform_request(ex6_space, clf, ex6_e1)
    for name in ex6_space.names:
        assert shap(request, name).value == 0


def test_shap_dictator():
    request = dictator_request()
    assert shap(request, "F1").value == Fraction(1, 2)
    assert shap(request, "F2").value == 0
    assert shap(request, "F3").value == 0


def test_shap_golden_truth_table(ex6_request):
    values = {name: shap(ex6_request, name).value for name in ("F1", "F2", "F3")}
    assert values == {
        "F1": Fraction(-1, 24),
        "F2": Fraction(11, 24),
        "F3": Fraction(-1, 24),
    }
    # efficiency: the scores sum to L(e1) - E(L) = 1 - 5/8
    assert sum(values.values()) == Fraction(3, 8)


def test_shap_matches_permutation_oracle(ex6_request):
    game = shap_game_by_expectation(ex6_request)
    for name in ("F1", "F2", "F3"):
        assert shap(ex6_request, name).value == shapley_by_permutations(game, name)


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_shap_efficiency_uniform_random(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    space, clf = random_truth_table(rng, width)
    entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    request = uniform_request(space, clf, entity)
    total = sum(shap(request, n).value for n in space.names)
    mean = Fraction(sum(clf.label(e) for e in all_entities(width)), 2**width)
    assert total == clf.label(entity) - mean


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_shap_efficiency_empirical_random(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    space, clf = random_truth_table(rng, width)
    population = list(all_entities(width))
    sample = rng.sample(population, rng.randint(1, len(population)))
    entity = rng.choice(sample)  # positive mass on every conditioning event
    dist = EmpiricalDistribution(space, sample)
    request = ExplanationRequest(entity=entity, classifier=clf, distribution=dist)
    total = sum(shap(request, n).value for n in space.names)
    mean = Fraction(sum(clf.label(e) for e in sample), len(sample))
    assert total == clf.label(entity) - mean


def test_shap_zero_mass_error_and_skip(ex6_space, ex6_classifier):
    # the scored entity is outside the sample, so the fully fixed event
    # (among others) carries no mass
    dist = EmpiricalDistribution(ex6_space, [Entity.from_bits("111")])
    entity = Entity.from_bits("000")
    failing = ExplanationRequest(entity=entity, classifier=ex6_classifier, distribution=dist)
    with pytest.raises(ZeroMassEventError):
        shap(failing, "F1")
    skipping = ExplanationRequest(
        entity=entity, classifier=ex6_classifier, distribution=dist, skip_zero_mass=True
    )
    with pytest.warns(ZeroMassSkipWarning):
        score = shap(skipping, "F1")
    assert isinstance(score.value, Fraction)


def _shap_outcome(compute):
    """What a SHAP computation reports: its values and warning texts, or
    the text of its zero-mass error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = compute()
        except ZeroMassEventError as exc:
            return "zero mass", str(exc)
    return values, [str(w.message) for w in caught]


def _oracle_skipping(request, names):
    values = {}
    for name in names:
        values[name], skipped = shap_by_expectation(request, name)
        if skipped:
            warnings.warn(f"shap({name}): skipped {skipped} zero-mass coalitions")
    return values


@given(st.integers(0, 10**9), st.sampled_from(DISTRIBUTIONS), st.booleans())
@settings(max_examples=120, deadline=None)
def test_shap_matches_per_coalition_oracle(seed, kind, skip_zero_mass):
    rng = random.Random(seed)
    width = rng.randint(1, 7)
    space, clf = random_truth_table(rng, width)
    try:
        dist = random_distribution(rng, space, kind)
    except InconsistentConstraintError:
        return
    support = dist.finite_support
    if support and rng.random() < 0.5:
        entity = rng.choice(support)
    else:  # possibly outside the support or violating the constraint
        entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    request = ExplanationRequest(
        entity=entity, classifier=clf, distribution=dist, skip_zero_mass=skip_zero_mass
    )
    feature = rng.choice(space.names)
    if skip_zero_mass:
        oracle = _shap_outcome(lambda: _oracle_skipping(request, space.names))
        oracle_one = _shap_outcome(lambda: _oracle_skipping(request, [feature])[feature])
    else:
        game = shap_game_by_expectation(request)
        oracle = _shap_outcome(lambda: games.shapley_all(game))
        oracle_one = _shap_outcome(lambda: shap_by_expectation(request, feature)[0])
    batch = _shap_outcome(lambda: {s.feature: s.value for s in score_all(request, ["shap"])})
    assert batch == oracle
    assert _shap_outcome(lambda: shap(request, feature).value) == oracle_one


def _wide_request(width, kind, skip_zero_mass):
    """A fixed-seed request of the given width.  The empirical sample leaves
    out the entity and the constraint denies it, so both have zero-mass
    coalitions; the uniform and product requests have none."""
    rng = random.Random(width * len(DISTRIBUTIONS) + DISTRIBUTIONS.index(kind))
    space, clf = random_truth_table(rng, width)
    entity = Entity((1, 0) + tuple(rng.randint(0, 1) for _ in range(width - 2)))
    marginals = [Fraction(rng.randint(1, 6), 7) for _ in range(width)]
    if kind == "uniform":
        dist = UniformDistribution(space)
    elif kind == "product":
        dist = ProductDistribution(space, marginals)
    elif kind == "empirical":
        population = [e for e in all_entities(width) if e != entity]
        dist = EmpiricalDistribution(space, rng.sample(population, 2 ** (width - 2)))
    else:  # F1 = 1 and F2 = 0 is denied, as the entity has it
        denial = parse_constraint("!(F1 & ~F2)", space)
        dist = condition(ProductDistribution(space, marginals), denial)
    return ExplanationRequest(
        entity=entity, classifier=clf, distribution=dist, skip_zero_mass=skip_zero_mass
    )


@pytest.mark.parametrize("skip_zero_mass", [False, True])
@pytest.mark.parametrize("kind", DISTRIBUTIONS)
@pytest.mark.parametrize("width", [8, 9])
def test_shap_matches_per_coalition_oracle_at_widths_8_and_9(width, kind, skip_zero_mass):
    # Fixed seeds at widths past the 1-7 that the hypothesis test draws.
    request = _wide_request(width, kind, skip_zero_mass)
    names = request.distribution.space.names
    if skip_zero_mass:
        oracle = _shap_outcome(lambda: _oracle_skipping(request, names))
    else:
        oracle = _shap_outcome(lambda: games.shapley_all(shap_game_by_expectation(request)))
    batch = _shap_outcome(lambda: {s.feature: s.value for s in score_all(request, ["shap"])})
    assert batch == oracle
    zero_mass = kind in ("empirical", "conditioned")
    assert (oracle[0] == "zero mass") == (zero_mass and not skip_zero_mass)
    assert bool(oracle[1]) == zero_mass  # the error text, or the skip warnings


def test_shap_builds_one_fraction_per_feature(monkeypatch):
    # A deterministic guard against per-coalition or per-term rationals:
    # the sums run in integers, and only each feature's score is a Fraction.
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(mlscores, "Fraction", counting_fraction)
    width = 10
    for kind, skip_zero_mass in (("uniform", False), ("product", False), ("empirical", True)):
        made.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroMassSkipWarning)
            scores = score_all(_wide_request(width, kind, skip_zero_mass), ["shap"])
        assert len(scores) == width
        assert len(made) == width


@pytest.mark.parametrize("width", [21, 22, 23])
def test_shap_too_wide_to_enumerate(width):
    # Without a finite support all 2^n entities are enumerated.
    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    clf, entity = FunctionClassifier(width, lambda e: 1), Entity((1,) * width)
    message = f"{width} free features exceed the enumeration limit 20"
    for skip_zero_mass in (False, True):
        request = uniform_request(space, clf, entity, skip_zero_mass=skip_zero_mass)
        with pytest.raises(WidthLimitError, match=message):
            score_all(request, ["shap"])


def test_shap_width_refusal_comes_before_any_label():
    def unreachable(entity):
        raise AssertionError("no kind may run before SHAP's refusals")

    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(21)))
    request = uniform_request(space, FunctionClassifier(21, unreachable), Entity((1,) * 21))
    with pytest.raises(WidthLimitError, match="21 free features"):
        score_all(request, ["counter", "resp", "shap"])


class CountingClassifier(FunctionClassifier):
    """Counts every label `labels` gives, cache hits included, and the
    distinct entities it computes a label for."""

    def __init__(self, width, fn):
        def computed(entity):
            self.distinct += 1
            return fn(entity)

        super().__init__(width, computed)
        self.calls = 0
        self.distinct = 0

    def labels(self, indices):
        for label in super().labels(indices):
            self.calls += 1
            yield label


@pytest.mark.parametrize("skip_zero_mass", [False, True])
@pytest.mark.parametrize("constraint, calls", [(None, 8), ("!(~F2)", 4)])
def test_shap_labels_each_entity_once(
    ex6_space, ex6_classifier, ex6_e1, skip_zero_mass, constraint, calls
):
    # One label call per positive-mass entity, not one per (coalition, entity).
    clf = CountingClassifier(3, ex6_classifier.label)
    dist = UniformDistribution(ex6_space)
    if constraint is not None:  # F2 = 0 gets no mass and no label call
        dist = condition(dist, parse_constraint(constraint, ex6_space))
    request = ExplanationRequest(
        entity=ex6_e1, classifier=clf, distribution=dist, skip_zero_mass=skip_zero_mass
    )
    score_all(request, ["shap"])
    assert clf.calls == calls


BUDGET_ERROR = "needs more than {0} units of work, budget is {0}"


def test_shap_budget_counts_coalitions(ex6_request, ex6_space, ex6_classifier, ex6_e1):
    message = BUDGET_ERROR.format(7)
    skipping = uniform_request(ex6_space, ex6_classifier, ex6_e1, skip_zero_mass=True)
    for request in (ex6_request, skipping):
        with pytest.raises(games.BudgetExceededError, match=message):
            score_all(request, ["shap"], games.meter(7))
        with pytest.raises(games.BudgetExceededError, match=message):
            shap(request, "F1", games.meter(7))
        assert len(score_all(request, ["shap"], games.meter(8))) == 3


# ---------------------------------------------------------------------------
# COUNTER


def test_counter_golden(ex6_request):
    # entities agreeing with e1 off F2 are e1 itself (label 1) and 001 (label 0)
    assert counter(ex6_request, "F2").value == Fraction(1, 2)
    assert counter(ex6_request, "F1").value == 0
    assert counter(ex6_request, "F3").value == 0


def test_counter_constant_classifier(ex6_space, ex6_e1):
    clf = FunctionClassifier(3, lambda e: 1)
    request = uniform_request(ex6_space, clf, ex6_e1)
    for name in ex6_space.names:
        assert counter(request, name).value == 0


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_counter_two_point_identity(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    space, clf = random_truth_table(rng, width)
    request = uniform_request(
        space, clf, Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    )
    for i, name in enumerate(space.names):
        expected = Fraction(
            clf.label(request.entity) - clf.label(flip(request.entity, i)), 2
        )
        assert counter(request, name).value == expected


def test_counter_zero_mass(ex6_space, ex6_classifier):
    dist = EmpiricalDistribution(ex6_space, [Entity.from_bits("111")])
    request = ExplanationRequest(
        entity=Entity.from_bits("000"), classifier=ex6_classifier, distribution=dist
    )
    with pytest.raises(ZeroMassEventError):
        counter(request, "F1")


COUNTER_CASES = ("uniform", "product", "empirical-in", "empirical-out", "conditioned")


def _counter_case(rng, space, entity, case):
    """A distribution for one COUNTER case: product marginals drawn from 0,
    1/2 and 1, so that the entity or its flips often have no mass; a sample
    that holds the entity or lacks it; a random conditioned distribution."""
    if case == "product":
        marginals = [rng.choice((Fraction(0), Fraction(1, 2), Fraction(1))) for _ in space.names]
        return ProductDistribution(space, marginals)
    if case.startswith("empirical"):
        others = [e for e in all_entities(space.width) if e != entity]
        sample = rng.sample(others, rng.randint(case == "empirical-out", len(others)))
        return EmpiricalDistribution(space, sample + [entity] * (case == "empirical-in"))
    return random_distribution(rng, space, case)


@pytest.mark.parametrize("case", COUNTER_CASES)
@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_counter_scores_match_the_general_expectation(case, seed):
    # The two-point batch against label(e) - E[L | e on every other feature]
    # from `conditional_expectation`: each feature gets the same score or
    # the same ZeroMassEventError, and the batch stops at the first error.
    rng = random.Random(seed)
    width = rng.randint(1, 5)
    space, clf = random_truth_table(rng, width)
    entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    try:
        dist = _counter_case(rng, space, entity, case)
    except InconsistentConstraintError:
        return
    request = ExplanationRequest(entity=entity, classifier=clf, distribution=dist)
    expected = {}
    for name in space.names:
        others = [n for n in space.names if n != name]
        try:
            expected[name] = clf.label(entity) - conditional_expectation(dist, clf, entity, others)
        except ZeroMassEventError as exc:
            expected[name] = exc
    for name, value in expected.items():
        if isinstance(value, ZeroMassEventError):
            with pytest.raises(ZeroMassEventError, match=re.escape(str(value))):
                counter(request, name)
        else:
            assert counter(request, name).value == value
    errors = [v for v in expected.values() if isinstance(v, ZeroMassEventError)]
    if errors:
        with pytest.raises(ZeroMassEventError, match=re.escape(str(errors[0]))):
            mlscores._counter_scores(request, space.names, None)
    else:
        batch = mlscores._counter_scores(request, space.names, None)
        assert {name: score.value for name, score in batch.items()} == expected


# ---------------------------------------------------------------------------
# RESP


def test_resp_golden_counterfactual(ex6_request):
    score = resp(ex6_request, "F2")
    assert score.value == 1
    assert score.explanation_kind == "counterfactual"
    assert score.witness.contingency == ()
    assert str(score.witness.entity) == "001"  # the single-flip witness


def test_resp_golden_actual(ex6_request):
    score = resp(ex6_request, "F1")
    assert score.value == Fraction(1, 2)
    assert score.explanation_kind == "actual"
    assert score.witness.contingency == ("F2",)
    assert score.witness.contingency_values == (0,)
    assert score.witness.replacement == 1
    assert str(score.witness.entity) == "101"  # flip F1 and F2 together


def test_resp_third_feature_matches_exhaustive_oracle(
    ex6_request, ex6_space, ex6_classifier, ex6_e1
):
    score = resp(ex6_request, "F3")
    assert score.value == resp_by_exhaustion(ex6_classifier, ex6_space, ex6_e1, "F3")
    assert score.value == Fraction(1, 2)
    assert score.witness.contingency == ("F2",)


def test_resp_rejects_wrong_label(ex6_space, ex6_classifier):
    request = uniform_request(ex6_space, ex6_classifier, Entity.from_bits("001"))
    with pytest.raises(LabelMismatchError):
        resp(request, "F1")


def test_resp_explains_label_zero_when_asked(ex6_space, ex6_classifier):
    request = uniform_request(
        ex6_space, ex6_classifier, Entity.from_bits("001"), target_label=0
    )
    score = resp(request, "F2")  # 001 -> 011 flips the label to 1
    assert score.value == 1
    assert score.explanation_kind == "counterfactual"


def test_resp_no_explanation_is_zero(ex6_space, ex6_e1):
    clf = FunctionClassifier(3, lambda e: 1)
    request = uniform_request(ex6_space, clf, ex6_e1)
    score = resp(request, "F1")
    assert score.value == 0
    assert score.explanation_kind == "none"
    assert score.witness is None


def test_resp_contingency_cap(ex6_request, ex6_space, ex6_classifier, ex6_e1):
    capped = ExplanationRequest(
        entity=ex6_e1,
        classifier=ex6_classifier,
        distribution=UniformDistribution(ex6_space),
        max_contingency=0,
    )
    assert resp(capped, "F2").value == 1  # counterfactual still found
    assert resp(capped, "F1").value == 0  # needs |Y| = 1, above the cap
    with pytest.raises(ValueError, match="max_contingency must be non-negative, got -1"):
        ExplanationRequest(
            entity=ex6_e1,
            classifier=ex6_classifier,
            distribution=UniformDistribution(ex6_space),
            max_contingency=-1,
        )


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_resp_matches_exhaustive_oracle_random(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 4)
    space, clf = random_truth_table(rng, width)
    ones = [e for e in all_entities(width) if clf.label(e) == 1]
    if not ones:
        return
    entity = rng.choice(ones)
    request = uniform_request(space, clf, entity)
    for name in space.names:
        score = resp(request, name)
        assert score.value == resp_by_exhaustion(clf, space, entity, name)
        if score.explanation_kind != "none":
            # the value is pinned to the witness contingency size
            assert score.value == Fraction(1, 1 + len(score.witness.contingency))
            assert clf.label(score.witness.entity) == 0
        else:
            assert score.value == 0 and score.witness is None


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_single_flip_counter_forces_resp_one(seed):
    rng = random.Random(seed)
    width = rng.randint(1, 4)
    space, clf = random_truth_table(rng, width)
    ones = [e for e in all_entities(width) if clf.label(e) == 1]
    if not ones:
        return
    entity = rng.choice(ones)
    request = uniform_request(space, clf, entity)
    for i, name in enumerate(space.names):
        full_swing = clf.label(entity) - clf.label(flip(entity, i)) == 1
        score = resp(request, name)
        if full_swing:
            assert score.value == 1
            assert score.explanation_kind == "counterfactual"
        assert (score.value == 1) == (score.explanation_kind == "counterfactual")


def test_resp_witness_is_lexicographically_least():
    # both F2 and F3 can serve as size-1 contingencies for F1; F2 wins
    space = FeatureSpace(("F1", "F2", "F3"))
    clf = FunctionClassifier(3, lambda e: 0 if sum(e.bits) >= 2 else 1)
    request = uniform_request(space, clf, Entity((0, 0, 0)))
    score = resp(request, "F1")
    assert score.witness.contingency == ("F2",)
    assert score.witness.contingency_values == (1,)


def _resp_outcome(search, width, names, table, entity, target_label, cap):
    """Every feature's RESP score (or label-mismatch text) under `search`,
    with the distinct entities the classifier was asked, in order."""
    asked = []

    def fn(e):
        asked.append(e.bits)
        return table[e.bits]

    request = uniform_request(
        FeatureSpace(names),
        FunctionClassifier(width, fn),
        entity,
        target_label=target_label,
        max_contingency=cap,
    )
    scores = []
    for name in names:
        try:
            scores.append(search(request, name))
        except LabelMismatchError as exc:
            scores.append(str(exc))
    return scores, asked


@given(st.integers(0, 10**9), st.integers(1, 8), st.sampled_from((0, 1)))
@settings(max_examples=150, deadline=None)
def test_resp_matches_replacement_search_oracle(seed, width, target_label):
    rng = random.Random(seed)
    names = [f"F{i + 1}" for i in range(width)]
    rng.shuffle(names)  # sorted order differs from declaration order
    if rng.random() < 0.5:
        table = {e.bits: rng.randint(0, 1) for e in all_entities(width)}
    else:  # a threshold: witnesses at every contingency size
        least = rng.randint(0, width)
        table = {e.bits: int(sum(e.bits) >= least) for e in all_entities(width)}
    target = [bits for bits, label in table.items() if label == target_label]
    if target and rng.random() < 0.9:
        entity = Entity(rng.choice(target))
    else:
        entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    cap = rng.choice((None, 0, 1, 2, width + 3))
    args = (width, tuple(names), table, entity, target_label, cap)
    assert _resp_outcome(resp, *args) == _resp_outcome(resp_by_replacement_search, *args)


@given(st.integers(0, 10**9), st.integers(1, 8), st.sampled_from((0, 1)))
@settings(max_examples=150, deadline=None)
def test_resp_walk_for_all_features_matches_replacement_search_oracle(seed, width, target_label):
    # score_all runs one flip-set walk for every feature at once.
    rng = random.Random(seed)
    names = [f"F{i + 1}" for i in range(width)]
    rng.shuffle(names)
    least = rng.randint(0, width + 1)
    table = {
        e.bits: rng.randint(0, 1) if least > width else int(sum(e.bits) >= least)
        for e in all_entities(width)
    }
    entity = Entity(tuple(rng.randint(0, 1) for _ in range(width)))
    request = uniform_request(
        FeatureSpace(tuple(names)),
        TableClassifier(width, table),
        entity,
        target_label=target_label,
        max_contingency=rng.choice((None, 0, 1, 2, width + 3)),
    )
    try:
        expected = [resp_by_replacement_search(request, n) for n in names]
    except LabelMismatchError as exc:
        with pytest.raises(LabelMismatchError, match=f"^{exc}$"):
            score_all(request, ["resp"])
        return
    expected.sort(key=lambda s: (-s.value, s.feature))
    assert score_all(request, ["resp"]) == expected


@pytest.mark.parametrize("width, calls, distinct", [(8, 222, 222), (11, 1820, 1820)])
def test_resp_tests_one_candidate_per_contingency(width, calls, distinct):
    # From all ones, a flip set reaches the label-0 side only at size
    # n - n//2 + 1, so every smaller flip set is asked, each once for all
    # the features it holds.
    clf = CountingClassifier(width, lambda e: int(sum(e.bits) >= width // 2 - 1))
    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    score_all(uniform_request(space, clf, Entity((1,) * width)), ["resp"])
    assert (clf.calls, clf.distinct) == (calls, distinct)


def test_resp_budget_counts_candidates_over_features(ex6_request):
    # The walk asks the three singletons, then {F1, F2}, {F1, F3} and
    # {F2, F3}: 6 flip sets.
    with pytest.raises(games.BudgetExceededError, match=BUDGET_ERROR.format(5)):
        score_all(ex6_request, ["resp"], games.meter(5))
    assert len(score_all(ex6_request, ["resp"], games.meter(6))) == 3
    # SHAP's 2^3 coalitions and the 6 flip sets draw on one sum.
    with pytest.raises(games.BudgetExceededError, match=BUDGET_ERROR.format(13)):
        score_all(ex6_request, ["shap", "resp"], games.meter(13))
    assert len(score_all(ex6_request, ["shap", "resp"], games.meter(14))) == 6


def test_resp_budget_meter_is_shared(ex6_request):
    charge = games.meter(4)
    assert resp(ex6_request, "F1", charge).value == Fraction(1, 2)
    assert resp(ex6_request, "F2", charge).value == 1
    with pytest.raises(games.BudgetExceededError, match=BUDGET_ERROR.format(4)):
        resp(ex6_request, "F3", charge)
    with pytest.raises(games.BudgetExceededError, match=BUDGET_ERROR.format(0)):
        resp(ex6_request, "F2", games.meter(0))


# ---------------------------------------------------------------------------
# Batch scoring and order invariance


def test_score_all_resp_ranking(ex6_request):
    scores = score_all(ex6_request, ["resp"])
    assert [(s.feature, s.value) for s in scores] == [
        ("F2", Fraction(1)),
        ("F1", Fraction(1, 2)),
        ("F3", Fraction(1, 2)),
    ]


def test_score_all_constant_classifier_name_order(ex6_space, ex6_e1):
    clf = FunctionClassifier(3, lambda e: 1)
    request = uniform_request(ex6_space, clf, ex6_e1)
    scores = score_all(request, ["shap", "counter"])
    assert [s.kind for s in scores] == ["counter"] * 3 + ["shap"] * 3
    assert [s.feature for s in scores] == ["F1", "F2", "F3"] * 2
    assert all(s.value == 0 for s in scores)


def test_score_all_dictator_ranks_dictator_first():
    request = dictator_request()
    scores = score_all(request, ["shap", "counter"])
    by_kind = {}
    for s in scores:
        by_kind.setdefault(s.kind, []).append(s.feature)
    assert by_kind["shap"][0] == "F1"
    assert by_kind["counter"][0] == "F1"


def test_score_all_batch_matches_single_calls(ex6_request):
    batch = {(s.kind, s.feature): s.value for s in score_all(ex6_request, ["shap", "resp"])}
    for name in ("F1", "F2", "F3"):
        assert batch[("shap", name)] == shap(ex6_request, name).value
        assert batch[("resp", name)] == resp(ex6_request, name).value


def test_score_all_rejects_unknown_kind(ex6_request):
    with pytest.raises(ValueError, match="unknown score kind"):
        score_all(ex6_request, ["resp", "magic"])


def test_scores_invariant_under_feature_declaration_order(ex6_classifier):
    # same classifier logic, features declared in reverse
    forward = FeatureSpace(("F1", "F2", "F3"))
    backward = FeatureSpace(("F3", "F2", "F1"))
    reversed_clf = FunctionClassifier(
        3, lambda e: ex6_classifier.label(Entity(tuple(reversed(e.bits))))
    )
    fwd_request = uniform_request(forward, ex6_classifier, Entity((0, 1, 1)))
    bwd_request = uniform_request(backward, reversed_clf, Entity((1, 1, 0)))
    for name in ("F1", "F2", "F3"):
        assert shap(fwd_request, name).value == shap(bwd_request, name).value
        assert counter(fwd_request, name).value == counter(bwd_request, name).value
        assert resp(fwd_request, name).value == resp(bwd_request, name).value


def test_request_width_validation(ex6_classifier, ex6_space):
    with pytest.raises(ValueError):
        ExplanationRequest(
            entity=Entity.from_bits("01"),
            classifier=ex6_classifier,
            distribution=UniformDistribution(ex6_space),
        )


def test_wide_shap_keeps_at_most_four_coalition_lists():
    # Width 16 uniform: each list of 2^16 coalition values is a few MiB.
    # Keeping num, den, scaled, joined, left and the sizes at once peaked
    # at 10.9-11.3 MiB under tracemalloc (Python 3.10-3.13); releasing
    # each once read leaves den, scaled, joined and left, about 9 MiB.
    width = 16
    rng = random.Random(16)
    table = bytearray(rng.getrandbits(1) for _ in range(2**width))
    table[-1] = 1
    space = FeatureSpace(tuple(f"F{i + 1}" for i in range(width)))
    request = ExplanationRequest(
        Entity.at(2**width - 1, width), TableClassifier(width, table), UniformDistribution(space)
    )
    tracemalloc.start()
    try:
        scores = mlscores._shap_values(request, space.names, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # Efficiency: the scores sum to L(e) - E[L].
    assert sum(s.value for s in scores.values()) == 1 - Fraction(sum(table), 2**width)
