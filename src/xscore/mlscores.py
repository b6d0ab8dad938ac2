"""Feature-value explanation scores for binary black-box classifiers.

Three scores for "why did this entity get label 1":

* shap - Shapley value of the feature in the coalition game whose value on
  a feature set S is the expected label with S pinned to the entity;
* counter - the label minus the expected label when everything but the
  inspected feature is pinned;
* resp - responsibility 1 / (1 + |Y|) for the smallest set Y of other
  features whose joint change with the inspected feature flips the label.

shap and counter take their expectations under a configurable
distribution; resp intervenes with raw 0/1 replacements regardless of the
distribution, since it is defined by label equalities rather than
expectations.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm
from typing import Iterable

from . import games
from .classify import (
    WIDTH_LIMIT,
    Classifier,
    Distribution,
    Entity,
    ZeroMassEventError,
    all_entities,
    check_free_width,
    conditional_expectation,
)

__all__ = [
    "SCORE_KINDS",
    "ExplanationRequest",
    "FeatureScore",
    "RespWitness",
    "LabelMismatchError",
    "ZeroMassSkipWarning",
    "shap",
    "counter",
    "resp",
    "score_all",
]

SCORE_KINDS = ("shap", "counter", "resp")


class LabelMismatchError(ValueError):
    """The entity does not carry the label the request says to explain."""


class ZeroMassSkipWarning(UserWarning):
    """A zero-mass coalition was dropped from a SHAP sum on request."""


@dataclass(frozen=True)
class ExplanationRequest:
    """One entity whose label is to be explained.

    `target_label` is the label being explained (1 by convention: the
    outcome the requester wants undone).  `max_contingency` caps the
    responsibility search; None means up to n-1 other features.  When
    `skip_zero_mass` is set, SHAP drops coalitions whose conditioning
    event has no mass instead of failing, with a warning.
    """

    entity: Entity
    classifier: Classifier
    distribution: Distribution
    target_label: int = 1
    max_contingency: int | None = None
    skip_zero_mass: bool = False

    def __post_init__(self):
        if self.entity.width != self.distribution.space.width:
            raise ValueError("entity width does not match the distribution's space")
        if self.classifier.width != self.entity.width:
            raise ValueError("classifier width does not match the entity")


@dataclass(frozen=True)
class RespWitness:
    """The cheapest intervention found by the responsibility search:
    contingency features set to `contingency_values`, the inspected
    feature set to `replacement`, producing `entity` (which the
    classifier labels 0)."""

    contingency: tuple[str, ...]
    contingency_values: tuple[int, ...]
    replacement: int
    entity: Entity


@dataclass(frozen=True)
class FeatureScore:
    feature: str
    kind: str  # one of SCORE_KINDS
    value: Fraction
    explanation_kind: str = "none"  # resp only: "counterfactual" | "actual" | "none"
    witness: RespWitness | None = None


def shap(
    request: ExplanationRequest, feature: str, budget: int = games.DEFAULT_BUDGET
) -> FeatureScore:
    """SHAP score of one feature value, as an exact rational.

    The coalition game maps a feature set S to the expected label over
    entities agreeing with the request's entity on S; the score is that
    game's Shapley value for the feature.  Refuses (`BudgetExceededError`)
    when the 2^n coalitions exceed `budget`.
    """
    space = request.distribution.space
    space.index(feature)
    if request.skip_zero_mass:
        expectations = _coalition_expectations(request, budget)
        value = _shap_skipping_zero_mass(request, feature, expectations)
    else:
        value = games.shapley_exact(_shap_game(request, budget), feature, budget)
    return FeatureScore(feature=feature, kind="shap", value=value)


def counter(request: ExplanationRequest, feature: str) -> FeatureScore:
    """Label of the entity minus the expected label with every feature
    except `feature` pinned to the entity's values."""
    space = request.distribution.space
    space.index(feature)
    others = [n for n in space.names if n != feature]
    expected = conditional_expectation(
        request.distribution, request.classifier, request.entity, others
    )
    label = request.classifier.label(request.entity)
    return FeatureScore(feature=feature, kind="counter", value=label - expected)


def resp(request: ExplanationRequest, feature: str) -> FeatureScore:
    """Responsibility of one feature value for the explained label.

    Searches contingency sets Y of other features in increasing size; the
    feature is a counterfactual explanation when changing its value alone
    flips the label to 0, and an actual explanation when jointly changing
    Y (to any replacement values, the originals included) and the feature
    (to a genuinely different value) does.  Score: 1 / (1 + |Y|) for the
    smallest such Y, with the lexicographically least witness; 0 when no
    contingency within the cap works.
    """
    space = request.distribution.space
    index = space.index(feature)
    entity = request.entity
    label = request.classifier.label(entity)
    if label != request.target_label:
        raise LabelMismatchError(
            f"entity has label {label}, request explains label {request.target_label}"
        )
    flipped_label = 0 if request.target_label == 1 else 1
    cap = request.max_contingency
    if cap is None:
        cap = space.width - 1
    cap = min(cap, space.width - 1)

    other_names = sorted(n for n in space.names if n != feature)
    replacement = 1 - entity.bits[index]
    for size in range(cap + 1):
        for names in combinations(other_names, size):
            indices = [space.index(n) for n in names]
            for values in product((0, 1), repeat=size):
                changes = dict(zip(indices, values))
                changes[index] = replacement
                candidate = entity.with_bits(changes)
                if request.classifier.label(candidate) == flipped_label:
                    kind = "counterfactual" if size == 0 else "actual"
                    return FeatureScore(
                        feature=feature,
                        kind="resp",
                        value=Fraction(1, size + 1),
                        explanation_kind=kind,
                        witness=RespWitness(
                            contingency=names,
                            contingency_values=values,
                            replacement=replacement,
                            entity=candidate,
                        ),
                    )
    return FeatureScore(feature=feature, kind="resp", value=Fraction(0))


def score_all(
    request: ExplanationRequest, kinds: Iterable[str], budget: int = games.DEFAULT_BUDGET
) -> list[FeatureScore]:
    """Scores of every feature for the requested kinds, ranked within each
    kind by descending value with feature-name tiebreak.  `budget` caps
    the 2^n coalitions SHAP enumerates."""
    wanted = sorted(set(kinds))
    for kind in wanted:
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
    names = request.distribution.space.names
    out: list[FeatureScore] = []
    for kind in wanted:
        if kind == "shap":
            values = _shap_values(request, budget)
            batch = [FeatureScore(feature=n, kind="shap", value=values[n]) for n in names]
        else:
            fn = {"counter": counter, "resp": resp}[kind]
            batch = [fn(request, n) for n in names]
        batch.sort(key=lambda s: (-s.value, s.feature))
        out.extend(batch)
    return out


def _shap_values(request: ExplanationRequest, budget: int) -> dict[str, Fraction]:
    """SHAP score of every feature from one coalition table."""
    if request.skip_zero_mass:
        expectations = _coalition_expectations(request, budget)
        names = request.distribution.space.names
        return {n: _shap_skipping_zero_mass(request, n, expectations) for n in names}
    # One engine pass shares the coalition-value memo across features.
    return games.shapley_all(_shap_game(request, budget), budget)


def _shap_game(request: ExplanationRequest, budget: int = games.DEFAULT_BUDGET) -> games.Game:
    """The SHAP coalition game; a zero-mass coalition raises
    `ZeroMassEventError` when the engine reaches it."""
    space = request.distribution.space
    expectations = _coalition_expectations(request, budget)
    bits = _feature_bits(space)

    def value(coalition):
        got = expectations[sum(bits[name] for name in coalition)]
        if got is None:
            raise ZeroMassEventError.pinned(request.entity, coalition)
        return got

    return games.Game(players=space.names, value=value)


def _coalition_expectations(request: ExplanationRequest, budget: int) -> list[Fraction | None]:
    """E[L | e on S] for every feature set S, indexed by the sum of the
    features' `_feature_bits`; None where the event has no mass.

    Each positive-mass entity x is labelled once and filed under its
    agreement mask with the request's entity e (the features where x and
    e agree).  Distinct entities have distinct masks, so before the sum
    each slot holds at most one entity's mass, scaled to an integer by the
    lcm of the mass denominators.  Adding slot S | {j} into slot S for each
    feature j (O(n 2^n) integer additions) turns the slots into the
    label-1 mass and the total mass of the entities agreeing with e on S.
    """
    dist, entity = request.distribution, request.entity
    n = entity.width
    games.check_budget(n, budget)
    candidates = dist.finite_support
    if candidates is None:
        # Evaluated one by one, the game's first coalitions are a singleton
        # and the empty set: the first of them too wide to enumerate fails.
        check_free_width(n - 1 if n - 1 > WIDTH_LIMIT else n)
        candidates = all_entities(n)
    full = (1 << n) - 1
    target = int(str(entity), 2)
    num: list = [0] * (full + 1)
    den: list = [0] * (full + 1)
    for x in candidates:
        p = dist.prob(x)
        if p == 0:
            continue
        agree = full & ~(int(str(x), 2) ^ target)
        den[agree] = p
        if request.classifier.label(x) == 1:
            num[agree] = p
    scale = lcm(*(p.denominator for p in den))
    num = [p.numerator * (scale // p.denominator) for p in num]
    den = [p.numerator * (scale // p.denominator) for p in den]
    for j in range(n):
        bit = 1 << j
        for s in range(full + 1):
            if not s & bit:
                num[s] += num[s | bit]
                den[s] += den[s | bit]
    return [Fraction(a, b) if b else None for a, b in zip(num, den)]


def _feature_bits(space) -> dict[str, int]:
    # Feature j is bit n-1-j, so an entity's bit string reads as its mask.
    return {name: 1 << (space.width - 1 - j) for j, name in enumerate(space.names)}


def _shap_skipping_zero_mass(
    request: ExplanationRequest, feature: str, expectations: list[Fraction | None]
) -> Fraction:
    """Subset-weighted SHAP sum that drops zero-mass coalitions.

    Only needed where some coalition's event has no mass (a finite
    support, a constraint, a 0 or 1 marginal); the number of dropped terms
    is reported through `ZeroMassSkipWarning`.
    """
    space = request.distribution.space
    n = space.width
    bit = _feature_bits(space)[feature]
    weights = [Fraction(factorial(k) * factorial(n - k - 1), factorial(n)) for k in range(n)]
    total = Fraction(0)
    skipped = 0
    for without in range(1 << n):
        if without & bit:
            continue
        with_value, without_value = expectations[without | bit], expectations[without]
        if with_value is None or without_value is None:
            skipped += 1
            continue
        total += weights[without.bit_count()] * (with_value - without_value)
    if skipped:
        warnings.warn(
            f"shap({feature}): skipped {skipped} zero-mass coalitions",
            ZeroMassSkipWarning,
            stacklevel=3,
        )
    return total
