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
expectations.  All three walk entity indices (see `classify`), and only a
RESP witness becomes an `Entity`.
"""
from __future__ import annotations

import math
import operator
import warnings
from fractions import Fraction
from itertools import combinations, compress, tee
from typing import Callable, Iterable, Iterator, Sequence

from . import DEFAULT_BUDGET, meter
from ._record import record
from .classify import (
    Classifier,
    Distribution,
    Entity,
    ZeroMassEventError,
    _weighed_labels,
    check_free_width,
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


@record
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


@record
class RespWitness:
    """The cheapest intervention found by the responsibility search:
    contingency features set to `contingency_values`, the inspected
    feature set to `replacement`, producing `entity` (which the
    classifier labels 0)."""

    contingency: tuple[str, ...]
    contingency_values: tuple[int, ...]
    replacement: int
    entity: Entity


@record
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
    _check_enumerable(request, charge or meter(DEFAULT_BUDGET))
    return _shap_values(request, [feature], charge)[feature]


def counter(
    request: ExplanationRequest, feature: str, charge: Callable | None = None
) -> FeatureScore:
    """COUNTER score of one feature value, as `_counter_scores` gives it."""
    return _counter_scores(request, [feature], charge)[feature]


def _counter_scores(
    request: ExplanationRequest, features: Sequence[str], charge: Callable | None
) -> dict[str, FeatureScore]:
    """COUNTER scores of `features`: the label of the request's entity e
    minus the expected label over the entities that agree with e on every
    feature but F.  Those are e and its flip f on F, of weights w_e and w_f,
    so the score is w_f (L(e) - L(f)) / (w_e + w_f).

    e is weighed once.  Then each feature in turn charges 2 units (e and f),
    weighs f and raises its `ZeroMassEventError` when neither has mass.
    One `labels` stream then reads e and every flip of positive weight.
    """
    dist, entity = request.distribution, request.entity
    charge = charge or meter(DEFAULT_BUDGET)
    e = entity.index
    own, flips = dist.weight(e), {}
    for name in features:
        flipped = e ^ dist.space.bit(name)
        charge(2)
        flips[name] = flipped, dist.weight(flipped)
        if not (own or flips[name][1]):
            raise ZeroMassEventError.pinned(entity, set(dist.space.names) - {name})
    got = request.classifier.labels([e, *(f for f, w in flips.values() if w)])
    label, out = next(got), {}
    for name, (_, w) in flips.items():  # a flip of no weight has no label and scores 0
        out[name] = FeatureScore(name, "counter", Fraction(w and w * (label - next(got)), own + w))
    return out


def resp(
    request: ExplanationRequest, feature: str, charge: Callable | None = None
) -> FeatureScore:
    """Responsibility of one feature value for the explained label: the
    walk of `_resp_scores`, which stops at the feature's witness."""
    request.distribution.space.index(feature)
    return _resp_scores(request, [feature], charge)[feature]


def _resp_scores(
    request: ExplanationRequest, features: Sequence[str], charge: Callable | None
) -> dict[str, FeatureScore]:
    """RESP scores of `features` from one walk over flip sets.

    A feature is a counterfactual explanation when changing its value alone
    flips the label, and an actual explanation when jointly changing a
    contingency set Y of other features and the feature does.  Score:
    1 / (1 + |Y|) for the smallest such Y, with the lexicographically least
    witness; 0 when no contingency within the cap works.

    Each Y of feature i is tried once, as its flip set F = Y + {i}, the
    entity's index XOR F's bits: a replacement that keeps some original
    value is the entity of a smaller flip set.  The walk goes by size (up to
    `max_contingency` + 1), then in `combinations` order over the sorted
    names, asking only the sets that hold a `pending` feature; the first
    flipping F that holds i is i's witness, Y = F - {i}.  Dropping one fixed
    element keeps lexicographic order, so this is i's least Y of least size.
    One `tee` pairs each flipped index with its label from one `labels`
    stream, as in `_weighed_labels`.  Each flip set is charged when its
    label is read, so the budget edge does not depend on how far ahead a
    classifier asks.
    """
    names = request.distribution.space.names
    entity, classifier = request.entity, request.classifier
    label = classifier.label(entity)
    if label != request.target_label:
        raise LabelMismatchError(
            f"entity has label {label}, request explains label {request.target_label}"
        )
    charge = charge or meter(DEFAULT_BUDGET)
    flipped_label = 0 if request.target_label == 1 else 1
    n, e = len(names), entity.index
    bit = list(map(request.distribution.space.bit, names))
    order = sorted(range(n), key=names.__getitem__)
    ordered_bits = [bit[j] for j in order]
    pending = sum({bit[names.index(name)] for name in features})
    cap = request.max_contingency
    top = n if cap is None else min(n, cap + 1)

    def flip_sets() -> Iterator[int]:
        for size in range(1, top + 1):
            for chosen in combinations(ordered_bits, size):
                if (mask := sum(chosen)) & pending:
                    yield e ^ mask

    flips, asked = tee(flip_sets())
    scores = {}
    for flipped, got in zip(flips, classifier.labels(asked)):
        charge()
        if got != flipped_label:
            continue
        mask, witness_entity = flipped ^ e, Entity.at(flipped, n)
        chosen = [j for j in order if bit[j] & mask]
        for i in (j for j in chosen if bit[j] & pending):
            y = [j for j in chosen if j != i]
            witness = RespWitness(
                contingency=tuple(names[j] for j in y),
                contingency_values=tuple(witness_entity.bits[j] for j in y),
                replacement=witness_entity.bits[i],
                entity=witness_entity,
            )
            kind = "actual" if y else "counterfactual"
            value = Fraction(1, len(chosen))
            scores[names[i]] = FeatureScore(names[i], "resp", value, kind, witness)
        pending &= ~mask
        if not pending:
            break
    return {f: scores.get(f) or FeatureScore(f, "resp", Fraction(0)) for f in features}


def score_all(
    request: ExplanationRequest, kinds: Iterable[str], charge: Callable | None = None
) -> list[FeatureScore]:
    """Scores of every feature for the requested kinds, ranked within each
    kind by descending value with feature-name tiebreak.  Each kind is one
    batch over all the features, and every batch charges the one `charge`:
    SHAP its 2^n coalitions, COUNTER two units per feature and RESP each
    flip set whose label it reads.  SHAP's charge and width refusal come
    before any kind runs."""
    wanted = sorted(set(kinds))
    if unknown := set(wanted).difference(SCORE_KINDS):
        raise ValueError(f"unknown score kind {min(unknown)!r}")
    charge = charge or meter(DEFAULT_BUDGET)
    if "shap" in wanted:
        _check_enumerable(request, charge)
    batches = {"shap": _shap_values, "counter": _counter_scores, "resp": _resp_scores}
    out: list[FeatureScore] = []
    for kind in wanted:
        scores = batches[kind](request, request.distribution.space.names, charge).values()
        out.extend(sorted(scores, key=lambda s: (-s.value, s.feature)))
    return out


def _shap_values(
    request: ExplanationRequest, features: Sequence[str], charge: Callable | None
) -> dict[str, FeatureScore]:
    """SHAP scores of `features`, summed in integers with one `Fraction` per
    feature.  `charge` is not called: `_check_enumerable` charges the 2^n
    coalitions before any kind runs.

    Feature j's score sums c[|S|] (E[S + j] - E[S]) / n! over the S without
    j, c[k] = k!(n-1-k)!.  Written over L, the lcm of the nonzero den, each
    E[S] = num[S] / den[S] is Z[S] / L, so the score is (sum over T with j
    of c[|T|-1] Z[T] - sum over S without j of c[|S|] Z[S]) / (n! L).  The
    slots with j's bit b set come in blocks of b at stride 2b, each just
    after the block of the same sets without j, so `compress` picks either
    side, in aligned order, by a byte pattern and `sum` adds it in C.

    A zero-mass coalition (den 0) raises the `ZeroMassEventError` of the
    first term reaching it: the least feature, then the first S of
    `games.least_contingency`.  With `skip_zero_mass`, S's term is dropped
    exactly when den[S + j] is 0 (zero mass is upward closed, so this covers
    den[S] = 0, and Z is 0 there); each feature's count of dropped terms is
    reported through `ZeroMassSkipWarning`.
    """
    space, n = request.distribution.space, request.entity.width
    bits = {name: space.bit(name) for name in space.names}
    num, den = _coalition_counts(request)
    if not request.skip_zero_mass and 0 in den:
        _raise_first_zero_mass(request, min(features), den, bits)
    slots = len(den)
    common = math.lcm(*{d for d in den if d})
    scaled = [a * (common // b) if b else 0 for a, b in zip(num, den)]
    del num  # each 2^n list goes once read: den, scaled, joined, left at most
    c = [math.factorial(k) * math.factorial(n - 1 - k) for k in range(n)]
    # c[|S|-1] where S is some S' + j (never empty), c[|S|] where S lacks j.
    into, out = [0, *c], [*c, 0]
    sizes = bytes(map(int.bit_count, range(slots)))
    joined = [into[k] * z for k, z in zip(sizes, scaled)]
    left = [out[k] * z for k, z in zip(sizes, scaled)]
    del sizes, scaled
    scores = {}
    for name in features:
        bit = bits[name]
        has = (bytes(bit) + b"\x01" * bit) * (slots // (2 * bit))
        lacks = has[bit:] + has[:bit]
        with_mass = list(compress(den, has))  # den[S + j], aligned with S
        total = sum(compress(joined, has)) - sum(compress(compress(left, lacks), with_mass))
        if skipped := with_mass.count(0):
            message = f"shap({name}): skipped {skipped} zero-mass coalitions"
            warnings.warn(message, ZeroMassSkipWarning, stacklevel=3)
        scores[name] = FeatureScore(name, "shap", Fraction(total, math.factorial(n) * common))
    return scores


def _raise_first_zero_mass(request, feature, den, bits) -> None:
    # Zero mass is upward closed, so the first term to reach a zero-mass
    # coalition does so through S + feature.
    from . import games
    chosen = games.least_contingency(
        sorted(n for n in request.distribution.space.names if n != feature),
        lambda s: den[bits[feature] + sum(bits[n] for n in s)] == 0,
    )
    raise ZeroMassEventError.pinned(request.entity, (feature, *chosen))


def _check_enumerable(request: ExplanationRequest, charge: Callable) -> None:
    """SHAP's up-front checks: charge its 2^n coalitions, and refuse a space
    without a finite support too wide to enumerate."""
    n = request.entity.width
    charge(2**n)
    if request.distribution.finite_support is None:
        check_free_width(n)


def _coalition_counts(request: ExplanationRequest) -> tuple[list[int], list[int]]:
    """The label-1 weight num[S] and the total weight den[S] of the entities
    agreeing with the request's entity e on S, for every feature set S
    (feature j is bit n-1-j, as in an entity index): E[L | e on S] =
    num[S] / den[S], and den[S] is 0 where the event has no mass.

    Each entity index x of positive weight, labelled through one `labels`
    stream, is filed under its agreement mask full & ~(x ^ e); distinct
    entities have distinct masks.  Adding slot S | {j} into slot S for each
    feature j (O(n 2^n) integer additions) turns the slots into the sums
    over the entities agreeing with e on S.  The slots without bit b lie in
    runs of b at a stride of 2b, each just below its partners, so each pass
    is C-level slice arithmetic: b strided slices while those are the fewer,
    else one slice per run.  The caller has passed `_check_enumerable`.
    """
    dist = request.distribution
    n = request.entity.width
    full = (1 << n) - 1
    candidates = range(full + 1) if dist.support is None else dist.support
    disagree = full ^ request.entity.index  # x ^ disagree == full & ~(x ^ e)
    num = [0] * (full + 1)
    den = [0] * (full + 1)
    for (x, w), label in _weighed_labels(dist, request.classifier, candidates):
        agree = x ^ disagree
        den[agree] = w
        if label == 1:
            num[agree] = w
    add = operator.add
    for table in (num, den):
        for bit in (1 << j for j in range(n)):
            step = 2 * bit
            if bit <= (full + 1) // step:  # bit strided runs of 2^n / step slots
                for low in range(bit):
                    table[low::step] = map(add, table[low::step], table[low + bit :: step])
            else:  # 2^n / step contiguous runs of bit slots
                for low in range(0, full + 1, step):
                    high = low + bit
                    table[low:high] = map(add, table[low:high], table[high : high + bit])
    return num, den
