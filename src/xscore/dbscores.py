"""Explanation scores for tuples in a database, given a Boolean query.

Four scores are computed over the same instance: causal responsibility
(via minimum contingency sets), the interventional causal effect on the
query lineage under an independent tuple-probability model, and the
Shapley / Banzhaf values of the query coalition game.

Every score depends only on the lineage.  One memoized Shannon expansion
counts, for each support tuple and each size, the sets of other tuples on
which adding it makes the lineage true.  Shapley, Banzhaf and the causal
effect at a shared tuple probability are weighted sums of those counts;
a least contingency is what the largest such set leaves out.
The same expansion with per-tuple probabilities gives lineage
probabilities.

Monte Carlo Shapley plays no game: each sampled order credits the one
tuple that first makes the lineage true, found by a min/max walk.
"""
from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import formula, games
from ._record import record
from .games import Game
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
    "lineage_game",
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
    searched, at its one size, and each candidate tested is charged.
    """
    support = lineage.support()
    if not lineage.evaluate(support):
        raise NothingToExplainError("lineage is false even with every tuple present")
    players = sorted(set(tuple_ids)) if tuple_ids is not None else sorted(support)
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    if swings is None:
        swings = swing_counts(lineage, charge, players)
    return [_cause_of(lineage, support, t, swings.get(t, ()), charge) for t in players]


def query_lineage(db: Database, query: ConjunctiveQuery) -> Lineage:
    """The Boolean query's compiled lineage; a head variable is refused
    before the join, and a false query raises `NothingToExplainError`."""
    if not query.is_boolean:
        raise ValueError("query games need a Boolean query (empty head)")
    lineage = compile_lineage(db, query)
    if lineage.root is formula.FALSE:
        raise NothingToExplainError("query is false in the database")
    return lineage


def _cause_of(lineage: Lineage, support: frozenset, tuple_id: str, counts, charge) -> CauseReport:
    # A contingency gamma works when the lineage holds without gamma and
    # fails without gamma and the tuple: the tuple swings it on the other
    # m - 1 - |gamma| tuples.  The largest k with d[k] > 0 gives the least
    # size, and the first gamma of it over the sorted support is the witness.
    swung = [k for k, d in enumerate(counts) if d]
    if not swung:
        return CauseReport(tuple_id, False, False, None, None, Fraction(0))
    rest = support - {tuple_id}
    size = len(rest) - swung[-1]
    holds = lineage.evaluate
    gamma = games.least_contingency(
        sorted(rest),
        lambda g: holds(support.difference(g)) and not holds(rest.difference(g)),
        (size,),
        charge,
    )
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
    if not lineage.mentions(tuple_id):
        warnings.warn(
            f"intervention on {tuple_id!r} is vacuous: the lineage does not mention it",
            VacuousInterventionWarning,
            stacklevel=2,
        )
        return lineage
    root = formula.substitute(lineage.root, {tuple_id: bool(value)})
    return Lineage(root=root, source=lineage.source)


def lineage_probability(
    lineage: Lineage,
    probabilities: Mapping[str, Fraction] | Fraction | None = None,
    charge: Callable | None = None,
) -> Fraction:
    """Probability that the lineage is true under independent tuple variables.

    Each tuple is present with its own probability (default 1/2 for all).
    Computed exactly by Shannon expansion, P = p_t P(f|t=1) + (1 - p_t)
    P(f|t=0), which charges one unit per product it takes.
    """
    support = lineage.support()
    prob = _probability_table(sorted(support), probabilities)

    def weight(t):
        return [prob[t]], [1 - prob[t]]

    charge = charge or games.meter(games.DEFAULT_BUDGET)
    (total,) = _weighted_count(lineage.root, support, weight, {}, charge)
    return Fraction(total)


def causal_effect(
    lineage: Lineage,
    tuple_id: str,
    probabilities: Mapping[str, Fraction] | Fraction | None = None,
    charge: Callable | None = None,
) -> Fraction:
    """Expected lineage value under do(X=1) minus under do(X=0).

    Tuples the lineage never mentions have identical intervened formulas,
    hence effect 0.  Both `lineage_probability` calls charge one meter.
    """
    if not lineage.mentions(tuple_id):
        return Fraction(0)
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    p_on = lineage_probability(intervene(lineage, tuple_id, 1), probabilities, charge)
    p_off = lineage_probability(intervene(lineage, tuple_id, 0), probabilities, charge)
    return p_on - p_off


def swing_counts(
    lineage: Lineage, charge: Callable | None = None, tuple_ids: Iterable[str] | None = None
) -> dict[str, list[int]]:
    """Swing counts d[k] of the support tuples among `tuple_ids` (default:
    all of them), for k = 0 .. m-1, m the support size.

    d[k] is the number of k-sets S of the other m-1 support tuples on
    which t swings the lineage: f|t=1 is true on S and f|t=0 is not.  The
    cofactors of all tuples share one memo of sub-formula counts.  Each
    product of polynomials a and b charges len(a) len(b) units.
    """
    support = lineage.support()
    wanted = support if tuple_ids is None else support.intersection(tuple_ids)
    memo: dict = {}
    counts = {}
    charge = charge or games.meter(games.DEFAULT_BUDGET)
    for t in sorted(wanted):
        rest = support - {t}
        on, off = (
            _weighted_count(formula.substitute(lineage.root, {t: v}), rest, _by_size, memo, charge)
            for v in (True, False)
        )
        counts[t] = [a - b for a, b in zip(on, off)]
    return counts


def swing_scores(
    swings: Mapping[str, list[int]], kind: str, probability: Fraction | None = None
) -> dict[str, Fraction]:
    """Exact scores of the support tuples from their `swing_counts`.

    Each tuple's counts are weighted by `games.size_weights` of the kind,
    over the m support tuples; the causal effect takes the shared tuple
    probability p (default 1/2).  Tuples outside the support are null
    players and score 0 in every kind, so these equal the scores of the
    query game over the whole instance.
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
    return {t: sum(w * d for w, d in zip(weights, counts)) for t, counts in swings.items()}


def monte_carlo_shapley(
    lineage: Lineage,
    epsilon: float,
    delta: float,
    seed: int,
    players: Iterable[str] | None = None,
    charge: Callable | None = None,
) -> dict[str, float]:
    """Monte Carlo Shapley estimates of the players of `lineage_game(lineage,
    players)`, equal to `games.shapley_monte_carlo_all` of that game.

    In each of the `games.sample_orders`, only the player that first makes
    the monotone lineage true has a nonzero marginal, 1.  Its place is the
    lineage's value with each tuple at its place, an And the max of its
    parts and an Or the min; a constant lineage credits nobody.  A
    player's estimate is its wins over the samples.
    """
    players = sorted(lineage.support() if players is None else players)
    samples = games.sample_count(epsilon, delta)
    wins = dict.fromkeys(players, 0)
    never = len(players)
    for order in games.sample_orders(players, epsilon, delta, seed, charge):
        first = _first_place(lineage.root, dict(zip(order, range(never))), never)
        if 0 <= first < never:
            wins[order[first]] += 1
    return {p: wins[p] / samples for p in players}


def _first_place(node: formula.Node, place: Mapping[str, int], never: int) -> int:
    # The place in the order whose player first makes the monotone node
    # true: -1 when it holds on the empty prefix, `never` when on none.
    if isinstance(node, formula.Var):
        return place.get(node.name, never)
    if isinstance(node, formula.And):
        return max(_first_place(p, place, never) for p in node.parts)
    if isinstance(node, formula.Or):
        return min(_first_place(p, place, never) for p in node.parts)
    if isinstance(node, formula.Const):
        return -1 if node.value else never
    raise ValueError("a Monte Carlo lineage must be monotone")


def _weighted_count(node: formula.Node, names: frozenset, weight, memo: dict, charge) -> list:
    """Weighted model count of `node` over the tuples `names`.

    A count is a polynomial as a coefficient list.  `weight(t)` gives the
    (present, absent) polynomials of tuple t, and every valuation of
    `names` that satisfies the node adds the product of its tuples'
    weights.  `names` must hold the node's variables; each distinct
    sub-formula is Shannon-expanded once per memo, on the tuple occurring
    most often in it (least id on ties).  The products, whose exact
    multiply-adds dominate the count, are charged to `charge`.
    """
    got = memo.get(node)
    if got is None:
        if isinstance(node, formula.Const):
            got = frozenset(), [int(node.value)]
        else:
            occurrences = Counter(formula.occurrences(node))
            pivot = min(occurrences, key=lambda t: (-occurrences[t], t))
            own = frozenset(occurrences)
            total = [0]
            for value, w in zip((True, False), weight(pivot)):
                branch = formula.substitute(node, {pivot: value})
                count = _weighted_count(branch, own - {pivot}, weight, memo, charge)
                total = _poly_add(total, _poly_mul(w, count, charge))
            got = own, total
        memo[node] = got
    own, count = got
    for t in names - own:  # a tuple the node ignores may take either value
        count = _poly_mul(count, _poly_add(*weight(t)), charge)
    return count


def _by_size(t: str) -> tuple[list[int], list[int]]:
    # Counting sets by size: a present tuple adds one to the size.
    return [0, 1], [1]


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _poly_mul(a: list, b: list, charge) -> list:
    charge(len(a) * len(b))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Coalition games over database tuples


def lineage_game(lineage: Lineage, players: Iterable[str] | None = None) -> Game:
    """The 0/1 game over the lineage support; a coalition wins when the
    formula is true with exactly that coalition present.

    `players` (default: the support) may add null players, such as the
    other tuples of the instance; with every tuple of `db` this is the
    query game of the query whose lineage it is.
    """

    def value(coalition):
        return 1 if lineage.evaluate(coalition) else 0

    return Game(players=tuple(lineage.support() if players is None else players), value=value)


def _probability_table(
    support: list[str],
    probabilities: Mapping[str, Fraction] | Fraction | None,
) -> dict[str, Fraction]:
    if probabilities is None:
        return {t: HALF for t in support}
    if isinstance(probabilities, (Fraction, int)):
        shared = Fraction(probabilities)
        check_probability(shared)
        return {t: shared for t in support}
    table = {}
    for t in support:
        p = Fraction(probabilities.get(t, HALF))
        check_probability(p)
        table[t] = p
    return table


def check_probability(p: Fraction) -> None:
    """Refuse a tuple probability outside [0, 1]."""
    if not 0 <= p <= 1:
        raise ValueError(f"tuple probability {p} outside [0, 1]")
