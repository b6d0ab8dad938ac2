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
from typing import Callable, Iterable

from . import games
from .classify import (
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
    outcome the requester wants undone).  `max_contingency` (at least 0)
    caps the responsibility search; None means up to n-1 other features.  When
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
        if self.max_contingency is not None and self.max_contingency < 0:
            raise ValueError(f"max_contingency must be non-negative, got {self.max_contingency}")
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
    request: ExplanationRequest, feature: str, charge: Callable | None = None
) -> FeatureScore:
    """SHAP score of one feature value, as an exact rational.

    The coalition game maps a feature set S to the expected label over
    entities agreeing with the request's entity on S; the score is that
    game's Shapley value for the feature.  Its 2^n coalitions are charged
    up front.
    """
    request.distribution.space.index(feature)
    _check_enumerable(request, charge or games.meter(games.DEFAULT_BUDGET))
    value = _shap_values(request, [feature])[feature]
    return FeatureScore(feature=feature, kind="shap", value=value)


def counter(
    request: ExplanationRequest, feature: str, charge: Callable | None = None
) -> FeatureScore:
    """Label of the entity minus the expected label with every feature
    except `feature` pinned to the entity's values; each entity the
    expectation weighs is charged."""
    dist, clf = request.distribution, request.classifier
    dist.space.index(feature)
    others = [n for n in dist.space.names if n != feature]
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    expected = conditional_expectation(dist, clf, request.entity, others, charge)
    label = clf.label(request.entity)
    return FeatureScore(feature=feature, kind="counter", value=label - expected)


def resp(
    request: ExplanationRequest, feature: str, charge: Callable | None = None
) -> FeatureScore:
    """Responsibility of one feature value for the explained label.

    Searches contingency sets Y of other features by size through
    `games.least_contingency`; the feature is a counterfactual explanation
    when changing its value alone flips the label, and an actual
    explanation when jointly changing Y and the feature does.  Score:
    1 / (1 + |Y|) for the smallest such Y, with the lexicographically least
    witness; 0 when no contingency within the cap works.

    Each Y is tried once, with every feature of Y flipped: a replacement
    that keeps some original value is the entity of a smaller contingency,
    which the search tested at its own size.  Each candidate tested is
    charged.
    """
    space = request.distribution.space
    index = space.index(feature)
    entity = request.entity
    label = request.classifier.label(entity)
    if label != request.target_label:
        raise LabelMismatchError(
            f"entity has label {label}, request explains label {request.target_label}"
        )
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    flipped_label = 0 if request.target_label == 1 else 1
    bits = list(entity.bits)
    bits[index] = 1 - bits[index]

    def flip(y) -> Entity:
        flipped = bits[:]
        for _, i in y:
            flipped[i] = 1 - flipped[i]
        return Entity(tuple(flipped))

    chosen = games.least_contingency(
        sorted((n, space.index(n)) for n in space.names if n != feature),
        lambda y: request.classifier.label(flip(y)) == flipped_label,
        request.max_contingency,
        charge,
    )
    if chosen is None:
        return FeatureScore(feature=feature, kind="resp", value=Fraction(0))
    witness = RespWitness(
        contingency=tuple(n for n, _ in chosen),
        contingency_values=tuple(1 - entity.bits[i] for _, i in chosen),
        replacement=bits[index],
        entity=flip(chosen),
    )
    kind = "actual" if chosen else "counterfactual"
    return FeatureScore(feature, "resp", Fraction(1, len(chosen) + 1), kind, witness)


def score_all(
    request: ExplanationRequest, kinds: Iterable[str], charge: Callable | None = None
) -> list[FeatureScore]:
    """Scores of every feature for the requested kinds, ranked within each
    kind by descending value with feature-name tiebreak.  Every kind
    charges the one `charge`: SHAP its 2^n coalitions, COUNTER each entity
    it weighs and RESP each candidate it tests.  SHAP's charge and width
    refusal come before any kind runs."""
    wanted = sorted(set(kinds))
    for kind in wanted:
        if kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {kind!r}")
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    if "shap" in wanted:
        _check_enumerable(request, charge)
    names = request.distribution.space.names
    out: list[FeatureScore] = []
    for kind in wanted:
        if kind == "shap":
            values = _shap_values(request)
            batch = [FeatureScore(feature=n, kind="shap", value=values[n]) for n in names]
        elif kind == "resp":
            batch = [resp(request, n, charge) for n in names]
        else:
            batch = [counter(request, n, charge) for n in names]
        batch.sort(key=lambda s: (-s.value, s.feature))
        out.extend(batch)
    return out


def _shap_values(
    request: ExplanationRequest, features: Iterable[str] | None = None
) -> dict[str, Fraction]:
    """SHAP scores of `features` (default: all, in space order) as one
    subset-weighted sum over the coalition table.

    Feature j's score sums w[k] (E[S + j] - E[S]) over the sets S of k
    other features, w = `games.size_weights("shapley", n)`.  A zero-mass
    coalition raises the `ZeroMassEventError` of the first term that
    reaches it, taking the least feature and then the first S of
    `games.least_contingency`; with `skip_zero_mass` its terms are dropped
    instead, and each feature's count of dropped terms is reported
    through `ZeroMassSkipWarning`.
    """
    space = request.distribution.space
    names = space.names if features is None else list(features)
    expectations = _coalition_expectations(request)
    bits = _feature_bits(space)
    if not request.skip_zero_mass and None in expectations:
        _raise_first_zero_mass(request, min(names), expectations, bits)
    n = space.width
    weights = games.size_weights("shapley", n)
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
    chosen = games.least_contingency(
        sorted(n for n in request.distribution.space.names if n != feature),
        lambda s: expectations[bits[feature] + sum(bits[n] for n in s)] is None,
    )
    raise ZeroMassEventError.pinned(request.entity, (feature, *chosen))


def _check_enumerable(request: ExplanationRequest, charge: Callable) -> None:
    """SHAP's up-front checks: charge its 2^n coalitions, and refuse a space
    without a finite support too wide to enumerate."""
    n = request.entity.width
    charge(2**n)
    if request.distribution.finite_support is None:
        check_free_width(n)


def _coalition_expectations(request: ExplanationRequest) -> list[Fraction | None]:
    """E[L | e on S] for every feature set S, indexed by the sum of the
    features' `_feature_bits`; None where the event has no mass.

    Each positive-weight entity x is labelled once and filed under its
    agreement mask with the request's entity e (the features where x and
    e agree).  Distinct entities have distinct masks, so before the sum
    each slot holds at most one entity's integer weight.  Adding slot
    S | {j} into slot S for each feature j (O(n 2^n) integer additions)
    turns the slots into the label-1 weight and the total weight of the
    entities agreeing with e on S.  The caller has passed
    `_check_enumerable`.
    """
    dist, entity = request.distribution, request.entity
    n = entity.width
    candidates = dist.finite_support
    if candidates is None:
        candidates = all_entities(n)
    full = (1 << n) - 1
    target = int(str(entity), 2)
    num = [0] * (full + 1)
    den = [0] * (full + 1)
    for x in candidates:
        w = dist.weight(x)
        if w == 0:
            continue
        agree = full & ~(int(str(x), 2) ^ target)
        den[agree] = w
        if request.classifier.label(x) == 1:
            num[agree] = w
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
