import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    monte_carlo_by_player,
    random_monotone_game,
    random_rational_game,
    shapley_by_permutations,
)
from xscore.games import (
    BudgetExceededError,
    Game,
    PlayerNotInGameError,
    banzhaf_all,
    least_contingency,
    meter,
    sample_count,
    shapley_all,
    shapley_monte_carlo,
    shapley_monte_carlo_all,
    size_weights,
)


def and_game() -> Game:
    return Game(players=("p1", "p2"), value=lambda s: 1 if len(s) == 2 else 0)


def test_single_player_takes_full_surplus():
    game = Game(players=("p",), value=lambda s: 1 if s else 0)
    assert shapley_all(game) == banzhaf_all(game) == {"p": 1}


def test_constant_game_scores_zero():
    game = Game(players=(1, 2, 3), value=lambda s: Fraction(7, 3))
    assert shapley_all(game) == banzhaf_all(game) == {1: 0, 2: 0, 3: 0}


def test_two_player_and_game():
    game = and_game()
    assert shapley_all(game) == {"p1": Fraction(1, 2), "p2": Fraction(1, 2)}
    assert banzhaf_all(game) == {"p1": Fraction(1, 2), "p2": Fraction(1, 2)}


def test_additive_game_shapley_is_one_each():
    game = Game(players=tuple(range(5)), value=len)
    assert shapley_all(game) == {p: 1 for p in range(5)}


def test_players_sorted_and_unique():
    game = Game(players=(3, 1, 2), value=len)
    assert game.players == (1, 2, 3)
    with pytest.raises(ValueError, match="unique"):
        Game(players=(1, 1), value=len)


def test_empty_coalition_is_evaluated_not_assumed():
    calls = []

    def value(s):
        calls.append(frozenset(s))
        return len(s) + 5  # nonzero at the empty coalition

    game = Game(players=("a", "b"), value=value)
    assert shapley_all(game)["a"] == 1
    assert frozenset() in calls


def test_batch_evaluates_each_coalition_once():
    calls = []

    def value(s):
        calls.append(frozenset(s))
        return len(s)

    game = Game(players=tuple(range(5)), value=value)
    shapley_all(game)
    assert len(calls) == 2**5
    assert len(set(calls)) == 2**5


def test_player_not_in_game():
    with pytest.raises(PlayerNotInGameError):
        shapley_monte_carlo(and_game(), "nobody", 0.1, 0.1, seed=0)


def test_budget_exceeded():
    big = Game(players=tuple(range(26)), value=len)
    with pytest.raises(BudgetExceededError):
        shapley_all(big)  # 2^26 > default budget 2^25
    small = Game(players=tuple(range(3)), value=len)
    with pytest.raises(BudgetExceededError, match="needs more than 7 units of work, budget is 7"):
        banzhaf_all(small, meter(7))
    assert shapley_all(small, meter(8))[0] == 1


BY_SIZE = [(), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")]


@pytest.mark.parametrize(
    "cap, target, found, tested",
    [
        (0, (), (), 1),  # the empty contingency is tried first
        (0, ("a",), None, 1),
        (1, ("a", "b"), None, 4),
        (None, ("b", "c"), ("b", "c"), 7),
        (5, ("a", "b", "c"), ("a", "b", "c"), 8),  # a cap past len(others)
        (None, ("d",), None, 8),  # no hit
    ],
)
def test_least_contingency(cap, target, found, tested):
    log = []

    def hits(chosen):
        log.append(chosen)
        return chosen == target

    sizes = None if cap is None else range(cap + 1)
    got = least_contingency(("a", "b", "c"), hits, sizes, charge=lambda: log.append("charge"))
    assert got == found
    # By size, then in combinations order, with one charge before each test.
    assert log == [step for chosen in BY_SIZE[:tested] for step in ("charge", chosen)]


def test_least_contingency_tries_only_the_given_sizes():
    # Responsibility knows its size: no smaller set is tested.
    log = []
    got = least_contingency(("a", "b", "c"), lambda c: log.append(c) or "c" in c, (2,))
    assert got == ("a", "c")
    assert log == [("a", "b"), ("a", "c")]


@given(st.integers(0, 10**9), st.integers(1, 6))
def test_efficiency_on_arbitrary_rational_games(seed, n):
    game = random_rational_game(random.Random(seed), n)
    values = shapley_all(game)
    grand = Fraction(game.value(frozenset(game.players)))
    empty = Fraction(game.value(frozenset()))
    assert sum(values.values()) == grand - empty


@given(st.integers(0, 10**9))
@settings(max_examples=50)
def test_null_player_and_twin_symmetry(seed):
    game = random_monotone_game(random.Random(seed))
    twin, null = game.players[-2], game.players[-1]
    shapley, banzhaf = shapley_all(game), banzhaf_all(game)
    assert shapley[null] == 0
    assert banzhaf[null] == 0
    assert shapley[0] == shapley[twin]
    assert banzhaf[0] == banzhaf[twin]


@given(st.integers(0, 10**9), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_subset_form_equals_permutation_average(seed, n):
    game = random_rational_game(random.Random(seed), n)
    values = shapley_all(game)
    for player in game.players:
        assert values[player] == shapley_by_permutations(game, player)


@pytest.mark.parametrize(
    "kind, p",
    [("shapley", None), ("banzhaf", None)]
    + [("causal_effect", Fraction(p)) for p in ("0", "1/3", "1/2", "1")],
)
def test_size_weights_average_over_coalitions(kind, p):
    # Each kind's weights make a distribution over the C(m-1, k)
    # coalitions of the other m-1 players.
    for m in range(1, 9):
        weights = size_weights(kind, m) if p is None else size_weights(kind, m, p)
        assert len(weights) == m
        assert sum(math.comb(m - 1, k) * w for k, w in enumerate(weights)) == 1


def test_size_weights_of_no_players():
    for kind in ("shapley", "banzhaf", "causal_effect"):
        assert size_weights(kind, 0) == []
    with pytest.raises(ValueError, match="kind 'responsibility'"):
        size_weights("responsibility", 3)


def test_sample_count_formula():
    # ln(2/0.05) / (2 * 0.05^2) = 737.78 -> 738
    assert sample_count(0.05, 0.05) == 738
    assert sample_count(0.1, 0.05) == 185


def test_sample_count_at_extremes():
    # At least one sample; ln 2 - ln delta keeps the least delta finite.
    assert sample_count(1e200, 0.1) == sample_count(math.inf, 0.1) == 1
    assert sample_count(0.5, 5e-324) == 1491
    assert sum(shapley_monte_carlo_all(and_game(), math.inf, 0.1, seed=1).values()) == 1
    for epsilon in (1e-160, 1e-170):  # past the largest float, or epsilon^2 == 0
        with pytest.raises(BudgetExceededError, match="more samples than a float can count"):
            sample_count(epsilon, 0.1)


def test_invalid_epsilon_delta():
    game = and_game()
    with pytest.raises(ValueError):
        shapley_monte_carlo(game, "p1", 0.0, 0.1, seed=1)
    with pytest.raises(ValueError):
        shapley_monte_carlo(game, "p1", 0.1, 0.0, seed=1)
    with pytest.raises(ValueError):
        shapley_monte_carlo(game, "p1", 0.1, 1.0, seed=1)


def test_monte_carlo_charges_samples_times_players_up_front():
    game = and_game()  # 185 samples at (0.1, 0.05)
    needed = sample_count(0.1, 0.05) * len(game.players)
    assert shapley_monte_carlo_all(game, 0.1, 0.05, seed=1, charge=meter(needed))
    message = f"needs more than {needed - 1} units of work, budget is {needed - 1}"
    with pytest.raises(BudgetExceededError, match=message):
        shapley_monte_carlo_all(game, 0.1, 0.05, seed=1, charge=meter(needed - 1))


def test_meter_raises_when_the_running_sum_first_passes_the_budget():
    charge = meter(10)
    charge(4)
    charge()
    charge(5)
    message = "^needs more than 10 units of work, budget is 10$"
    with pytest.raises(BudgetExceededError, match=message):
        charge()
    with pytest.raises(BudgetExceededError):
        meter(0)()


def test_monte_carlo_constant_game_is_exactly_zero():
    game = Game(players=(1, 2, 3), value=lambda s: 4)
    result = shapley_monte_carlo(game, 2, epsilon=0.5, delta=0.4, seed=11)
    assert result == 0.0


def test_monte_carlo_deterministic_under_seed():
    game = random_monotone_game(random.Random(123))
    a = shapley_monte_carlo(game, 0, 0.1, 0.1, seed=42)
    b = shapley_monte_carlo(game, 0, 0.1, 0.1, seed=42)
    assert a == b
    c = shapley_monte_carlo(game, 0, 0.1, 0.1, seed=43)
    assert c != a


def test_monte_carlo_tracks_exact_value():
    game = and_game()
    exact = shapley_all(game)["p1"]
    result = shapley_monte_carlo(game, "p1", epsilon=0.05, delta=0.05, seed=7)
    assert abs(result - float(exact)) <= 0.05


@given(st.integers(0, 10**9), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_monte_carlo_all_players_pins_per_player_records(game_seed, seed):
    rng = random.Random(game_seed)
    if rng.random() < 0.5:
        game = random_monotone_game(rng)
    else:
        game = random_rational_game(rng, rng.randint(1, 4))
    epsilon, delta = rng.choice(((0.3, 0.2), (0.5, 0.4), (0.25, 0.05)))
    estimates = shapley_monte_carlo_all(game, epsilon, delta, seed)
    assert list(estimates) == list(game.players)
    for player in game.players:
        result = estimates[player]
        assert result == shapley_monte_carlo(game, player, epsilon, delta, seed)
        assert (result, sample_count(epsilon, delta)) == monte_carlo_by_player(
            game, player, epsilon, delta, seed
        )
