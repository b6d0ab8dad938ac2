"""Explanation scores for tuples in a database, given a Boolean query.

Four scores are computed over the same instance: causal responsibility
(via minimum contingency sets), the interventional causal effect on the
query lineage under an independent tuple-probability model, and the
Shapley / Banzhaf values of the query coalition game.

Every score depends only on the lineage, and every exact score on one
memoized Shannon expansion of it: the recurrence P = P0 + p_t (P1 - P0)
of its probability, carrying each asked tuple's swing P1 - P0.  At the
tuple probabilities it gives the lineage probability and causal effects;
at one shared, symbolic probability y (Owen's multilinear extension), a
swing read by size gives the tuple's swing counts: the sets of other
tuples on which adding it makes the lineage true.  Shapley, Banzhaf and
the causal effect at a shared tuple probability are weighted sums of
those counts; a least contingency is what the largest such set leaves out.

Every walk runs on the lineage's integer form (`_form`), the formula tree
node for node: tuple i of the sorted support is the bit 1 << i, a constant
a bool, and an And/Or the pair (is_or, parts), so a set of tuples is a
mask and memo keys hash in C.  Monte Carlo Shapley plays no game: each
sampled order credits the tuple that ends its least prefix on which the
lineage holds.
"""
from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, zip_longest
from math import comb, lcm
from operator import mul
from typing import Callable, Iterable, Mapping

from . import formula, games
from ._record import record
from .reldb import ConjunctiveQuery, Database, Lineage, compile_lineage

__all__ = [
    "CauseReport",
    "NothingToExplainError",
    "VacuousInterventionWarning",
    "query_lineage",
    "lineage_causes",
    "intervene",
    "lineage_probability",
    "causal_effect",
    "swing_counts",
    "swing_scores",
    "monte_carlo_shapley",
    "check_probability",
]

HALF = Fraction(1, 2)


class NothingToExplainError(ValueError):
    """The query is false in the database, so no tuple explains an answer."""


class VacuousInterventionWarning(UserWarning):
    """Emitted when an intervention targets a tuple the lineage never mentions."""


@record
class CauseReport:
    """Causal status of one tuple for a true query.

    A counterfactual cause flips the query by its sole removal; an actual
    cause needs a contingency set removed first.  `witness_contingency` is
    the lexicographically least contingency of minimum size, and
    responsibility is 1 / (1 + that size), or 0 for non-causes.
    """

    tuple_id: str
    is_actual_cause: bool
    is_counterfactual_cause: bool
    min_contingency_size: int | None
    witness_contingency: tuple[str, ...] | None
    responsibility: Fraction


# ---------------------------------------------------------------------------
# Actual causes and responsibility


def lineage_causes(
    lineage: Lineage,
    tuple_ids: Iterable[str] | None = None,
    charge: Callable | None = None,
    swings: Mapping[str, list[int]] | None = None,
) -> list[CauseReport]:
    """Causal reports computed directly from a lineage formula.

    `tuple_ids` defaults to the lineage support; pass the full instance's
    ids to also report the (zero) scores of unmentioned tuples.  Contingency
    sizes are read off `swing_counts` (counted for the reported tuples only,
    and charged, here when `swings` is None); only each witness is
    searched, at its one size, and each candidate tested is charged the
    lineage's tuple occurrences, the nodes its evaluation may visit.
    """
    form, bits = _form(lineage)
    if not _holds(form, sum(bits.values())):
        raise NothingToExplainError("lineage is false even with every tuple present")
    players = sorted(set(tuple_ids)) if tuple_ids is not None else list(bits)
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    if swings is None:
        swings = swing_counts(lineage, charge, players)
    search = partial(charge, len(_leaves(form)))
    return [_cause_of(form, bits, t, swings.get(t, ()), search) for t in players]


def query_lineage(db: Database, query: ConjunctiveQuery) -> Lineage:
    """The Boolean query's compiled lineage; a head variable is refused
    before the join, and a false query raises `NothingToExplainError`."""
    if not query.is_boolean:
        raise ValueError("query games need a Boolean query (empty head)")
    lineage = compile_lineage(db, query)
    if lineage.root is formula.FALSE:
        raise NothingToExplainError("query is false in the database")
    return lineage


def _cause_of(form, bits: dict, tuple_id: str, counts, charge) -> CauseReport:
    # A contingency gamma works when the lineage holds without gamma and
    # fails without gamma and the tuple: the tuple swings it on the other
    # m - 1 - |gamma| tuples.  The largest k with d[k] > 0 gives the least
    # size, and the first gamma of it over the sorted support is the witness.
    swung = [k for k, d in enumerate(counts) if d]
    if not swung:
        return CauseReport(tuple_id, False, False, None, None, Fraction(0))
    size, bit, full = len(bits) - 1 - swung[-1], bits[tuple_id], sum(bits.values())

    def hits(gamma):  # on bit masks
        kept = full - sum(map(bits.get, gamma))
        return _holds(form, kept) and not _holds(form, kept - bit)

    gamma = games.least_contingency([t for t in bits if t != tuple_id], hits, (size,), charge)
    return CauseReport(tuple_id, True, not gamma, size, gamma, Fraction(1, size + 1))


# ---------------------------------------------------------------------------
# Interventions and the causal-effect score


def intervene(lineage: Lineage, tuple_id: str, value: int) -> Lineage:
    """Force one tuple variable to a constant and constant-propagate.

    Interventions on tuples the formula never mentions are allowed but
    flagged with `VacuousInterventionWarning`.
    """
    if value not in (0, 1):
        raise ValueError(f"intervention value must be 0 or 1, got {value!r}")
    if tuple_id not in lineage.support():
        warnings.warn(
            f"intervention on {tuple_id!r} is vacuous: the lineage does not mention it",
            VacuousInterventionWarning,
            stacklevel=2,
        )
        return lineage
    return Lineage(root=formula.substitute(lineage.root, {tuple_id: bool(value)}))


def lineage_probability(
    lineage: Lineage,
    probabilities: Mapping[str, Fraction] | Fraction | None = None,
    charge: Callable | None = None,
) -> Fraction:
    """Probability that the lineage is true under independent tuple variables.

    Each tuple is present with its own probability (default 1/2 for all).
    Computed exactly by Shannon expansion, P = P0 + p_t (P1 - P0) with P1
    = P(f|t=1) and P0 = P(f|t=0), which charges two units per distinct
    sub-formula: the swing P1 - P0 and P.
    """
    return Fraction(_expand_at(lineage, probabilities, (), charge)[0][0])


def causal_effect(
    lineage: Lineage,
    tuple_id: str,
    probabilities: Mapping[str, Fraction] | Fraction | None = None,
    charge: Callable | None = None,
) -> Fraction:
    """Expected lineage value under do(X=1) minus under do(X=0).

    That is the tuple's swing at the tuple probabilities, carried through
    the one expansion `lineage_probability` makes.  Tuples the lineage
    never mentions have effect 0 and cost nothing.
    """
    if tuple_id not in lineage.support():
        return Fraction(0)
    _, swings = _expand_at(lineage, probabilities, frozenset([tuple_id]), charge)
    return Fraction(swings.get(tuple_id, [0])[0])


def swing_counts(
    lineage: Lineage, charge: Callable | None = None, tuple_ids: Iterable[str] | None = None
) -> dict[str, list[int]]:
    """Swing counts d[k] of the support tuples among `tuple_ids` (default:
    all of them), for k = 0 .. m-1, m the support size.

    d[k] is the number of k-sets S of the other m-1 support tuples on
    which t swings the lineage: f|t=1 is true on S and f|t=0 is not.  One
    Shannon expansion of the lineage at a shared, symbolic tuple
    probability y carries the swings of the asked tuples, polynomials in y
    (see `_expand`).  A swing sum_j a_j y^j is sum_k d[k] y^k (1 - y)^(m-1-k),
    so d[k] = sum_{j<=k} a_j C(m-1-j, k-j).  The expansion charges one unit
    per coefficient it writes, and each tuple's conversion m more.
    """
    support = lineage.support()
    wanted = support if tuple_ids is None else support.intersection(tuple_ids)
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    # A present tuple multiplies by y: one place up.
    _, swings = _expand(lineage, lambda i, poly: [0, *poly], wanted, charge)
    m, d = len(support), {}
    for t in sorted(wanted):
        charge(m)
        a = swings.get(t, [])
        d[t] = [sum(x * comb(m - 1 - j, k - j) for j, x in enumerate(a[:k + 1])) for k in range(m)]
    return d


def swing_scores(
    swings: Mapping[str, list[int]], kind: str, probability: Fraction | None = None
) -> dict[str, Fraction]:
    """Exact scores of the support tuples from their `swing_counts`.

    Each tuple's counts are weighted by `games.size_weights` of the kind,
    over the m support tuples and as integers over their common denominator;
    the causal effect takes the shared tuple probability p (default 1/2).
    Tuples outside the support are null players and score 0 in every kind,
    so these equal the scores of the query game over the whole instance.
    """
    if kind not in ("shapley", "banzhaf", "causal_effect"):
        raise ValueError(f"no swing score of kind {kind!r}")
    p = HALF
    if kind == "causal_effect" and probability is not None:
        p = Fraction(probability)
        check_probability(p)
    # Every count list runs over k = 0 .. m-1, whichever tuples were counted.
    m = max(map(len, swings.values()), default=0)
    weights = games.size_weights(kind, m, p)
    common = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (common // w.denominator) for w in weights]
    return {t: Fraction(sum(map(mul, scaled, counts)), common) for t, counts in swings.items()}


def monte_carlo_shapley(
    lineage: Lineage,
    epsilon: float,
    delta: float,
    seed: int,
    players: Iterable[str] | None = None,
    charge: Callable | None = None,
) -> dict[str, float]:
    """Monte Carlo Shapley estimates of `players` (default: the support) in
    the lineage's 0/1 game, equal to `games.shapley_monte_carlo_all` of it.

    In each of the `games.sample_orders`, only the player that first makes
    the monotone lineage true has a nonzero marginal, 1.  The orders shuffle
    the players' bits (0 outside the support) as they would the players,
    and the last player of the least prefix mask on which the lineage
    holds, found by bisection, is credited; a constant lineage credits
    nobody.  A player's estimate is its wins over the samples.
    """
    form, bits = _form(lineage)
    players = sorted(bits if players is None else players)
    samples, wins = games.sample_count(epsilon, delta), Counter()
    keys = [bits.get(p, 0) for p in players]
    for order in games.sample_orders(keys, epsilon, delta, seed, charge):
        first = bisect_left([0, *accumulate(order)], True, key=partial(_holds, form))
        if 0 < first <= len(order):
            wins[order[first - 1]] += 1
    return {p: wins[bits.get(p, 0)] / samples for p in players}


def _form(lineage: Lineage) -> tuple:
    # The integer form (see the module docstring) and the support's bits.
    bits = {t: 1 << i for i, t in enumerate(sorted(lineage.support()))}

    def build(node):
        if isinstance(node, (formula.And, formula.Or)):
            return isinstance(node, formula.Or), tuple(build(p) for p in node.parts)
        if isinstance(node, formula.Not):
            raise ValueError("a lineage must be monotone")
        return bits[node.name] if isinstance(node, formula.Var) else node.value

    return build(lineage.root), bits


def _leaves(node) -> list[int]:
    # The form's tuple bits, once per occurrence.
    if type(node) is tuple:
        return [b for part in node[1] for b in _leaves(part)]
    return [node] if type(node) is int else []


def _holds(node, present: int) -> bool:
    # The form's truth value when exactly the tuples of mask `present` are.
    if type(node) is not tuple:
        return node if type(node) is bool else present & node != 0
    for part in node[1]:
        if (present & part != 0 if type(part) is int else _holds(part, present)) is node[0]:
            return node[0]
    return not node[0]


def _sub(node, t: int, value: bool):
    # `formula.substitute` of the tuple bit t by `value`, on the form.
    if type(node) is not tuple:
        return value if node == t and node is not True else node
    is_or, kept = node[0], []
    for part in node[1]:
        part = _sub(part, t, value)
        if part is is_or:  # true absorbs an Or, false an And
            return part
        if part is not (not is_or):  # the other constant is dropped
            kept.append(part)
    return (is_or, tuple(kept)) if len(kept) > 1 else kept[0] if kept else not is_or


def _expand(lineage: Lineage, present, wanted: Iterable[str], charge) -> tuple[list, dict]:
    """Probability of the lineage and the swings of its `wanted` tuples
    (present minus absent), from one Shannon expansion of its integer form
    that expands each distinct sub-formula once, on its most frequent tuple
    t (least bit on ties): P = P0 + p_t (P1 - P0), P1 and P0 the branches
    with t present and absent, as coefficient lists; `present(i, poly)`
    multiplies one by p_t, t tuple i of the sorted support.  Another
    tuple's swing follows the same recurrence (Darwiche, JACM 2003), and a
    tuple a branch no longer mentions needs no smoothing.  Each recurrence
    charges one unit per coefficient it writes.  A lineage too deep for
    Python's recursion limit, to build or to pivot, is a `ValueError`.
    """
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    memo: dict = {}

    def mix(t, p0, p1):
        # P0 + p_t (P1 - P0), and the swing P1 - P0 on the way.
        swing = [x - y for x, y in zip_longest(p1, p0, fillvalue=0)]
        out = [x + y for x, y in zip_longest(p0, present(t.bit_length() - 1, swing), fillvalue=0)]
        charge(len(swing) + len(out))
        return out, swing

    def expand(node):
        if type(node) is bool:  # kept apart: True == 1, the first tuple's bit
            return [int(node)], {}
        got = memo.get(node)
        if got is None:
            t = min(Counter(_leaves(node)).items(), key=lambda c: (-c[1], c[0]))[0]
            p1, s1 = expand(_sub(node, t, True))
            p0, s0 = expand(_sub(node, t, False))
            swings = {u: mix(t, s0.get(u, []), s1.get(u, []))[0] for u in s1.keys() | s0.keys()}
            p, swing = mix(t, p0, p1)
            if t & mask:
                swings[t] = swing
            got = memo[node] = p, swings
        return got

    try:
        form, bits = _form(lineage)
        mask = sum(bits[t] for t in wanted)
        p, swings = expand(form)
    except RecursionError:
        size = len(lineage.support())
        raise ValueError(f"lineage of {size} tuples is too deep to expand") from None
    return p, {t: swings[b] for t, b in bits.items() if b in swings}


def _expand_at(lineage: Lineage, probabilities, wanted: frozenset, charge) -> tuple[list, dict]:
    # `_expand` at the support tuples' checked probabilities.
    table = probabilities if isinstance(probabilities, Mapping) else {}
    shared = HALF if probabilities is None or table is probabilities else Fraction(probabilities)
    prob = [Fraction(table.get(t, shared)) for t in sorted(lineage.support())]
    for p in (shared, *prob):
        check_probability(p)
    return _expand(lineage, lambda i, poly: [prob[i] * c for c in poly], wanted, charge)


def check_probability(p: Fraction) -> None:
    """Refuse a tuple probability outside [0, 1]."""
    if not 0 <= p <= 1:
        raise ValueError(f"tuple probability {p} outside [0, 1]")
