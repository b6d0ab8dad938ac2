"""Coalition-game scoring engine.

A game is a set of players plus a value oracle over coalitions (subsets of
players).  The engine computes exact Shapley and Banzhaf values with
arbitrary-precision rational arithmetic, and a seeded Monte Carlo Shapley
estimate for games too large to enumerate, whose orders are drawn from
sha256 digests of (seed, sample), alike on every Python and platform.

The work `meter` and its errors are the package root's, re-exported here.
"""
from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from . import DEFAULT_BUDGET, BudgetExceededError, GameError, meter
from ._record import record


class PlayerNotInGameError(GameError):
    pass


@record
class Game:
    """Players plus a total, deterministic coalition-value oracle.

    The oracle must be defined on every subset of `players`, including the
    empty coalition (which is always evaluated, never assumed to be 0).
    Players are kept in ascending order so batch output is deterministic.
    """

    players: tuple
    value: Callable[[frozenset], Fraction | int | float]

    def __post_init__(self):
        ordered = tuple(sorted(self.players))
        if len(set(ordered)) != len(ordered):
            raise ValueError("player ids must be unique")
        object.__setattr__(self, "players", ordered)


def sample_count(epsilon: float, delta: float) -> int:
    """Hoeffding sample size for an additive (epsilon, delta) guarantee on
    [0, 1]-bounded marginal contributions: ceil(ln(2/delta) / (2 eps^2)),
    and at least 1.  ln(2/delta) is taken as ln 2 - ln delta, finite for
    the least delta; a count past the largest float is past any budget."""
    check_epsilon_delta(epsilon, delta)
    spread = 2.0 * epsilon * epsilon  # 0.0 once epsilon^2 underflows
    count = (math.log(2.0) - math.log(delta)) / spread if spread else math.inf
    if count == math.inf:
        raise BudgetExceededError(f"epsilon {epsilon} needs more samples than a float can count")
    return max(1, math.ceil(count))


def shapley_all(game: Game, charge: Callable | None = None) -> dict:
    """Exact Shapley values for every player, sharing one coalition-value
    memo so each subset is evaluated at most once.

    A library-only subset loop: the CLI scores query and lineage games
    from `dbscores.swing_counts` instead, which is exponential only in
    the lineage, not in the players.
    """
    return _marginal_sums(game, "shapley", charge)


def banzhaf_all(game: Game, charge: Callable | None = None) -> dict:
    """Exact Banzhaf indices for every player (shared memo, as above)."""
    return _marginal_sums(game, "banzhaf", charge)


def shapley_monte_carlo(
    game: Game,
    player: Hashable,
    epsilon: float,
    delta: float,
    seed: int,
) -> float:
    """Monte Carlo Shapley estimate of one player: its entry of
    `shapley_monte_carlo_all`."""
    if player not in game.players:
        raise PlayerNotInGameError(f"player {player!r} is not in the game")
    return shapley_monte_carlo_all(game, epsilon, delta, seed)[player]


def shapley_monte_carlo_all(
    game: Game, epsilon: float, delta: float, seed: int, charge: Callable | None = None
) -> dict:
    """Monte Carlo Shapley estimates for every player from shared orders.

    Averages each player's marginal contribution over the `sample_orders`
    of the game's players.  For games whose marginals lie in [0, 1]
    (monotone 0/1 games in particular) each estimate is within epsilon of
    the exact value with probability at least 1 - delta.  One walk over
    each order's prefixes credits every player with its marginal
    contribution.
    """
    m = sample_count(epsilon, delta)
    players = list(game.players)
    value = cache(lambda coalition: Fraction(game.value(coalition)))
    totals = dict.fromkeys(players, Fraction(0))
    for order in sample_orders(players, epsilon, delta, seed, charge):
        before = frozenset()
        for player in order:
            after = before | {player}
            totals[player] += value(after) - value(before)
            before = after
    return {p: float(totals[p] / m) for p in players}


def sample_orders(
    players: Sequence, epsilon: float, delta: float, seed: int, charge: Callable | None = None
) -> Iterator[list]:
    """The `sample_count(epsilon, delta)` player orders of a Monte Carlo
    Shapley estimate.

    Sample i shuffles `players` with an RNG derived from (seed, i), so the
    orders are reproducible and independent of how the sample range might
    be partitioned across workers.  The samples x players units of work
    are charged before the first order is drawn.
    """
    m = sample_count(epsilon, delta)
    (charge or meter(DEFAULT_BUDGET))(m * len(players))
    for index in range(m):
        order = list(players)
        random.Random(_derived_seed(seed, index)).shuffle(order)
        yield order


def size_weights(kind: str, m: int, p: Fraction = Fraction(1, 2)) -> list[Fraction]:
    """Weight w[k] of a marginal contribution to a size-k coalition of the
    other m-1 players, k = 0 .. m-1: k!(m-1-k)!/m! for "shapley",
    1/2^(m-1) for "banzhaf", and p^k (1-p)^(m-1-k) for "causal_effect",
    where each player is present with probability p.  Empty when m = 0."""
    if kind == "shapley":
        f = math.factorial
        return [Fraction(f(k) * f(m - 1 - k), f(m)) for k in range(m)]
    if kind == "banzhaf":
        return [Fraction(1, 2 ** (m - 1)) for _ in range(m)]
    if kind == "causal_effect":
        return [p**k * (1 - p) ** (m - 1 - k) for k in range(m)]
    raise ValueError(f"no size weights of kind {kind!r}")


def _marginal_sums(game: Game, kind: str, charge: Callable | None) -> dict:
    """For each player, the sum of w[|S|] (G(S + player) - G(S)) over the
    coalitions S of the other players, w = `size_weights(kind, n)`.

    Coalitions go by size and in `combinations` order, through one memo
    shared by all players, so each subset is evaluated at most once; the
    2^n coalitions are charged up front.
    """
    (charge or meter(DEFAULT_BUDGET))(2 ** len(game.players))
    value = cache(lambda coalition: Fraction(game.value(coalition)))
    weights = size_weights(kind, len(game.players))
    out = {}
    for player in game.players:
        others = [p for p in game.players if p != player]
        total = Fraction(0)
        for size, weight in enumerate(weights):
            swing = Fraction(0)
            for chosen in combinations(others, size):
                coalition = frozenset(chosen)
                swing += value(coalition | {player}) - value(coalition)
            total += weight * swing
        out[player] = total
    return out


def _derived_seed(seed: int, index: int) -> int:
    # hash() is randomized per process; use a stable digest instead.
    digest = _sha256()(f"{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@cache
def _sha256():
    # CPython's own sha256 gives hashlib's digests without loading OpenSSL.
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        return __import__("hashlib").sha256


def least_contingency(
    others: Sequence, hits: Callable, sizes: Iterable | None = None, charge: Callable | None = None
) -> tuple | None:
    """The first tuple `chosen` of `others`, by size through `sizes`
    (default: 0 to all) and then in `combinations` order, for which
    `hits(chosen)` holds, or None; over sorted `others` and rising sizes it
    is the lexicographic least of least size.  `charge()`, when given, is
    called before each test."""
    for size in range(len(others) + 1) if sizes is None else sizes:
        for chosen in combinations(others, size):
            if charge is not None:
                charge()
            if hits(chosen):
                return chosen
    return None


def check_epsilon_delta(epsilon: float, delta: float) -> None:
    """Refuse an epsilon that is not positive or a delta outside (0, 1)."""
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
