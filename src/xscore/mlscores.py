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
from itertools import combinations
from math import factorial, lcm
from typing import Callable, Iterable

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
    request.distribution.space.index(feature)
    value = _shap_values(request, budget, [feature])[feature]
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


def resp(
    request: ExplanationRequest, feature: str, charge: Callable[[], None] | None = None
) -> FeatureScore:
    """Responsibility of one feature value for the explained label.

    Searches contingency sets Y of other features in increasing size; the
    feature is a counterfactual explanation when changing its value alone
    flips the label, and an actual explanation when jointly changing Y and
    the feature does.  Score: 1 / (1 + |Y|) for the smallest such Y, with
    the lexicographically least witness; 0 when no contingency within the
    cap works.

    Each Y is tried once, with every feature of Y flipped: a replacement
    that keeps some original value is the entity of a smaller contingency,
    which the search tested at its own size.  Each candidate tested calls
    `charge`, which raises `BudgetExceededError` past its budget; the
    default is a fresh `games.candidate_meter(games.DEFAULT_BUDGET)`.
    """
    space = request.distribution.space
    index = space.index(feature)
    entity = request.entity
    label = request.classifier.label(entity)
    if label != request.target_label:
        raise LabelMismatchError(
            f"entity has label {label}, request explains label {request.target_label}"
        )
    if charge is None:
        charge = games.candidate_meter(games.DEFAULT_BUDGET)
    flipped_label = 0 if request.target_label == 1 else 1
    cap = request.max_contingency
    if cap is None:
        cap = space.width - 1
    cap = min(cap, space.width - 1)

    others = sorted((n, space.index(n)) for n in space.names if n != feature)
    bits = list(entity.bits)
    bits[index] = 1 - bits[index]
    for size in range(cap + 1):
        for chosen in combinations(others, size):
            flipped = bits[:]
            for _, i in chosen:
                flipped[i] = 1 - flipped[i]
            candidate = Entity(tuple(flipped))
            charge()
            if request.classifier.label(candidate) == flipped_label:
                return FeatureScore(
                    feature=feature,
                    kind="resp",
                    value=Fraction(1, size + 1),
                    explanation_kind="counterfactual" if size == 0 else "actual",
                    witness=RespWitness(
                        contingency=tuple(n for n, _ in chosen),
                        contingency_values=tuple(candidate.bits[i] for _, i in chosen),
                        replacement=bits[index],
                        entity=candidate,
                    ),
                )
    return FeatureScore(feature=feature, kind="resp", value=Fraction(0))


def score_all(
    request: ExplanationRequest, kinds: Iterable[str], budget: int = games.DEFAULT_BUDGET
) -> list[FeatureScore]:
    """Scores of every feature for the requested kinds, ranked within each
    kind by descending value with feature-name tiebreak.  `budget` caps
    the 2^n coalitions SHAP enumerates, and separately the RESP candidates
    tested, summed over the features.  SHAP's refusals come before any
    kind runs."""
    wanted = sorted(set(kinds))
    for kind in wanted:
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
    if "shap" in wanted:
        _check_enumerable(request, budget)
    names = request.distribution.space.names
    out: list[FeatureScore] = []
    for kind in wanted:
        if kind == "shap":
            values = _shap_values(request, budget)
            batch = [FeatureScore(feature=n, kind="shap", value=values[n]) for n in names]
        elif kind == "resp":
            charge = games.candidate_meter(budget)
            batch = [resp(request, n, charge) for n in names]
        else:
            batch = [counter(request, n) for n in names]
        batch.sort(key=lambda s: (-s.value, s.feature))
        out.extend(batch)
    return out


def _shap_values(
    request: ExplanationRequest, budget: int, features: Iterable[str] | None = None
) -> dict[str, Fraction]:
    """SHAP scores of `features` (default: all, in space order) as one
    subset-weighted sum over the coalition table.

    Feature j's score sums k!(n-1-k)!/n! (E[S + j] - E[S]) over the sets S
    of k other features.  A zero-mass coalition raises the
    `ZeroMassEventError` of the first term that reaches it, taking the
    least feature and then S by size and in `combinations` order; with
    `skip_zero_mass` its terms are dropped instead, and each feature's
    count of dropped terms is reported through `ZeroMassSkipWarning`.
    """
    space = request.distribution.space
    names = space.names if features is None else list(features)
    expectations = _coalition_expectations(request, budget)
    bits = _feature_bits(space)
    if not request.skip_zero_mass and None in expectations:
        _raise_first_zero_mass(request, min(names), expectations, bits)
    n = space.width
    weights = [Fraction(factorial(k) * factorial(n - k - 1), factorial(n)) for k in range(n)]
    values = {}
    for name in names:
        bit = bits[name]
        by_size = [Fraction(0)] * n
        skipped = 0
        for without in range(1 << n):
            if without & bit:
                continue
            with_value, without_value = expectations[without | bit], expectations[without]
            if with_value is None or without_value is None:
                skipped += 1
                continue
            by_size[without.bit_count()] += with_value - without_value
        if skipped:
            warnings.warn(
                f"shap({name}): skipped {skipped} zero-mass coalitions",
                ZeroMassSkipWarning,
                stacklevel=3,
            )
        values[name] = sum((w * d for w, d in zip(weights, by_size)), Fraction(0))
    return values


def _raise_first_zero_mass(request, feature, expectations, bits) -> None:
    # Zero mass is upward closed, so the first term to reach a zero-mass
    # coalition does so through S + feature.
    others = sorted(n for n in request.distribution.space.names if n != feature)
    for size in range(len(others) + 1):
        for chosen in combinations(others, size):
            if expectations[bits[feature] + sum(bits[n] for n in chosen)] is None:
                raise ZeroMassEventError.pinned(request.entity, (feature, *chosen))


def _check_enumerable(request: ExplanationRequest, budget: int) -> None:
    """SHAP's refusals: 2^n coalitions past `budget`, or a space without a
    finite support too wide to enumerate."""
    n = request.entity.width
    games.check_budget(n, budget)
    if request.distribution.finite_support is None:
        # Evaluated one by one, the game's first coalitions are a singleton
        # and the empty set: the first of them too wide to enumerate fails.
        check_free_width(n - 1 if n - 1 > WIDTH_LIMIT else n)


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
    _check_enumerable(request, budget)
    dist, entity = request.distribution, request.entity
    n = entity.width
    candidates = dist.finite_support
    if candidates is None:
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
