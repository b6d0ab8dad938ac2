"""Explanation scores for tuples in a database, given a Boolean query.

Four scores are computed over the same instance: causal responsibility
(via minimum contingency sets), the interventional causal effect on the
query lineage under an independent tuple-probability model, and the
Shapley / Banzhaf values of the query coalition game.

All but responsibility depend only on the lineage.  One memoized Shannon
expansion counts, for each support tuple and each size, the sets of other
tuples on which adding it makes the lineage true; Shapley, Banzhaf and
the causal effect at a shared tuple probability are weighted sums of
those counts.
The same expansion with per-tuple probabilities gives lineage
probabilities.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from . import formula, games
from .games import Game
from .reldb import (
    ConjunctiveQuery,
    Database,
    Lineage,
    answers,
    compile_lineage,
    evaluate,
)

__all__ = [
    "CauseReport",
    "NothingToExplainError",
    "NonNumericValueError",
    "VacuousInterventionWarning",
    "causes",
    "query_lineage",
    "lineage_causes",
    "intervene",
    "lineage_probability",
    "causal_effect",
    "swing_counts",
    "swing_scores",
    "check_intervention_budget",
    "require_boolean",
    "query_game",
    "lineage_game",
    "summation_game",
]

HALF = Fraction(1, 2)


class NothingToExplainError(ValueError):
    """The query is false in the database, so no tuple explains an answer."""


class NonNumericValueError(ValueError):
    pass


class VacuousInterventionWarning(UserWarning):
    """Emitted when an intervention targets a tuple the lineage never mentions."""


@dataclass(frozen=True)
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


def causes(db: Database, query: ConjunctiveQuery) -> list[CauseReport]:
    """Causal report for every tuple of `db` (zero scores included).

    Requires the query to be true in `db`.  The contingency search runs
    over the lineage support only; tuples outside every disjunct cannot
    affect the query and are reported as non-causes directly.
    """
    return lineage_causes(query_lineage(db, query), db.tuple_ids())


def lineage_causes(
    lineage: Lineage,
    tuple_ids: Iterable[str] | None = None,
    budget: int = games.DEFAULT_BUDGET,
) -> list[CauseReport]:
    """Causal reports computed directly from a lineage formula.

    `tuple_ids` defaults to the lineage support; pass the full instance's
    ids to also report the (zero) scores of unmentioned tuples.  Each
    contingency candidate tested costs one unit of `budget`, summed over
    the batch; the first candidate past it raises `BudgetExceededError`.
    """
    support = lineage.support()
    if not lineage.evaluate(support):
        raise NothingToExplainError("lineage is false even with every tuple present")
    players = sorted(set(tuple_ids)) if tuple_ids is not None else sorted(support)
    truth = _memoized_truth(lineage)
    charge = games.candidate_meter(budget)
    return [_cause_of(support, tid, truth, charge) for tid in players]


def query_lineage(db: Database, query: ConjunctiveQuery) -> Lineage:
    """The query's compiled lineage; `NothingToExplainError` when the query is false."""
    lineage = compile_lineage(db, query)
    if lineage.root is formula.FALSE:
        raise NothingToExplainError("query is false in the database")
    return lineage


def _cause_of(support: frozenset, tuple_id: str, truth, charge) -> CauseReport:
    # A contingency gamma works when the lineage holds without gamma and
    # fails without gamma and the tuple; over the sorted support the least
    # one is of minimum size, and the lexicographic least of it.
    gamma = None
    if tuple_id in support:
        gamma = games.least_contingency(
            sorted(support - {tuple_id}),
            lambda g: truth(g) and not truth(tuple(sorted(g + (tuple_id,)))),
            charge=charge,
        )
    if gamma is None:
        return CauseReport(tuple_id, False, False, None, None, Fraction(0))
    return CauseReport(tuple_id, True, not gamma, len(gamma), gamma, Fraction(1, len(gamma) + 1))


def _memoized_truth(lineage: Lineage):
    # Truth with the sorted tuple `removed` taken out of the support, shared
    # by the searches of one batch and keyed on `removed`, which stays small
    # as the searches go by size.
    support = lineage.support()
    cache: dict[tuple, bool] = {}

    def truth(removed: tuple) -> bool:
        got = cache.get(removed)
        if got is None:
            got = cache[removed] = lineage.evaluate(support.difference(removed))
        return got

    return truth


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
    budget: int = games.DEFAULT_BUDGET,
) -> Fraction:
    """Probability that the lineage is true under independent tuple variables.

    Each tuple is present with its own probability (default 1/2 for all).
    Computed exactly by Shannon expansion, P = p_t P(f|t=1) + (1 - p_t)
    P(f|t=0); the budget caps 2^|support| valuations, checked up front.
    """
    support = lineage.support()
    prob = _probability_table(sorted(support), probabilities)
    games.check_budget(len(support), budget)

    def weight(t):
        return [prob[t]], [1 - prob[t]]

    (total,) = _weighted_count(lineage.root, support, weight, {})
    return Fraction(total)


def causal_effect(
    source: Lineage | Database,
    tuple_id: str,
    query: ConjunctiveQuery | None = None,
    probabilities: Mapping[str, Fraction] | Fraction | None = None,
    budget: int = games.DEFAULT_BUDGET,
) -> Fraction:
    """Expected query value under do(X=1) minus under do(X=0).

    Accepts a lineage directly, or a database together with `query`.
    Tuples the lineage never mentions have identical intervened formulas,
    hence effect 0.
    """
    if isinstance(source, Database):
        if query is None:
            raise ValueError("a query is required when scoring a database")
        lineage = compile_lineage(source, query)
    else:
        lineage = source
    if not lineage.mentions(tuple_id):
        return Fraction(0)
    p_on = lineage_probability(intervene(lineage, tuple_id, 1), probabilities, budget)
    p_off = lineage_probability(intervene(lineage, tuple_id, 0), probabilities, budget)
    return p_on - p_off


def swing_counts(lineage: Lineage) -> dict[str, list[int]]:
    """Swing counts d[k] of every support tuple t, for k = 0 .. m-1.

    d[k] is the number of k-sets S of the other m-1 support tuples on
    which t swings the lineage: f|t=1 is true on S and f|t=0 is not.  The
    cofactors of all tuples share one memo of sub-formula counts.
    """
    support = lineage.support()
    memo: dict = {}
    counts = {}
    for t in sorted(support):
        rest = support - {t}
        on, off = (
            _weighted_count(formula.substitute(lineage.root, {t: value}), rest, _by_size, memo)
            for value in (True, False)
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
        _check_probability(p)
    weights = games.size_weights(kind, len(swings), p)
    return {t: sum(w * d for w, d in zip(weights, counts)) for t, counts in swings.items()}


def check_intervention_budget(
    lineage: Lineage, probability: Fraction | None, budget: int
) -> None:
    """The up-front checks of `causal_effect` for every support tuple.

    The probability is validated first, then 2^|support| of each tuple's
    do(t=1) and do(t=0) lineages is checked against the budget, in tuple
    order.
    """
    support = sorted(lineage.support())
    if support and probability is not None:
        _check_probability(Fraction(probability))
    for t in support:
        for value in (1, 0):
            games.check_budget(len(intervene(lineage, t, value).support()), budget)


def _weighted_count(node: formula.Node, names: frozenset, weight, memo: dict) -> list:
    """Weighted model count of `node` over the tuples `names`.

    A count is a polynomial as a coefficient list.  `weight(t)` gives the
    (present, absent) polynomials of tuple t, and every valuation of
    `names` that satisfies the node adds the product of its tuples'
    weights.  `names` must hold the node's variables; each distinct
    sub-formula is Shannon-expanded once per memo, on the tuple occurring
    most often in it (least id on ties).
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
                count = _weighted_count(branch, own - {pivot}, weight, memo)
                total = _poly_add(total, _poly_mul(w, count))
            got = own, total
        memo[node] = got
    own, count = got
    for t in names - own:  # a tuple the node ignores may take either value
        count = _poly_mul(count, _poly_add(*weight(t)))
    return count


def _by_size(t: str) -> tuple[list[int], list[int]]:
    # Counting sets by size: a present tuple adds one to the size.
    return [0, 1], [1]


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# Coalition games over database tuples


def query_game(db: Database, query: ConjunctiveQuery) -> Game:
    """The 0/1 game whose players are all tuples of `db` and whose value on
    a coalition S is whether the query holds in the sub-instance S.

    That is the game of the query's lineage, with the tuples outside it as
    null players (Livshits et al., ICDT 2020), so it is played on the
    lineage compiled once instead of on a sub-instance per coalition.
    """
    require_boolean(query)
    return lineage_game(compile_lineage(db, query), players=db.tuple_ids())


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


def require_boolean(query: ConjunctiveQuery) -> None:
    if not query.is_boolean:
        raise ValueError("query games need a Boolean query (empty head)")


def summation_game(db: Database, query: ConjunctiveQuery, value_var: str | None = None) -> Game:
    """Aggregation game: the value of a coalition S is the sum, over the
    distinct answers of the query on sub-instance S, of the designated
    numeric output variable (default: the last head variable)."""
    if query.is_boolean:
        raise ValueError("summation needs a query with output variables in the head")
    head_names = [v.name for v in query.head]
    if value_var is None:
        value_var = head_names[-1]
    if value_var not in head_names:
        raise ValueError(f"value variable {value_var!r} is not in the query head")
    position = head_names.index(value_var)
    evaluate(db, query)

    def value(coalition):
        total = Fraction(0)
        for answer in answers(db.restrict(coalition), query):
            total += _numeric(answer[position])
        return total

    return Game(players=db.tuple_ids(), value=value)


def _probability_table(
    support: list[str],
    probabilities: Mapping[str, Fraction] | Fraction | None,
) -> dict[str, Fraction]:
    if probabilities is None:
        return {t: HALF for t in support}
    if isinstance(probabilities, (Fraction, int)):
        shared = Fraction(probabilities)
        _check_probability(shared)
        return {t: shared for t in support}
    table = {}
    for t in support:
        p = Fraction(probabilities.get(t, HALF))
        _check_probability(p)
        table[t] = p
    return table


def _check_probability(p: Fraction) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"tuple probability {p} outside [0, 1]")


def _numeric(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise NonNumericValueError(f"attribute value {text!r} is not numeric") from exc
