#!/usr/bin/env python3
"""Monte Carlo Shapley estimator quality on the six-tuple query game.

For a grid of epsilon values (delta fixed), runs many seeded estimates per
tuple and reports the worst observed error, the fraction of runs inside
the +/-epsilon band, and the Hoeffding sample count used.  The observed
coverage should beat 1 - delta by a wide margin since the bound is loose.
"""
import argparse
from fractions import Fraction

from xscore import dbscores, games, reldb


def build_lineage() -> tuple[reldb.Lineage, list, dict]:
    """The six-tuple instance's query lineage, its tuples (the players of
    the query game) and their exact Shapley values, read off the lineage's
    swing counts (0 outside the lineage)."""
    db = reldb.Database()
    for values in [("a", "b"), ("c", "d"), ("b", "b")]:
        db.add("R", values, tuple_id=f"R({values[0]},{values[1]})")
    for value in ["a", "c", "b"]:
        db.add("S", (value,), tuple_id=f"S({value})")
    query = reldb.parse_query("Q() :- S(x), R(x,y), S(y)")
    lineage = dbscores.query_lineage(db, query)
    values = dbscores.swing_scores(dbscores.swing_counts(lineage), "shapley")
    exact = {t: values.get(t, Fraction(0)) for t in db.tuple_ids()}
    return lineage, db.tuple_ids(), exact


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100, help="seeded runs per tuple")
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument(
        "--epsilons", default="0.2,0.1,0.05", help="comma-separated epsilon grid"
    )
    args = parser.parse_args()

    lineage, players, exact = build_lineage()
    epsilons = [float(e) for e in args.epsilons.split(",")]

    print(f"{'epsilon':>8} {'samples':>8} {'worst err':>10} {'coverage':>9} (target {1 - args.delta:.2f})")
    for epsilon in epsilons:
        samples = games.sample_count(epsilon, args.delta)
        worst = 0.0
        inside = 0
        total = 0
        for seed in range(args.runs):
            estimates = dbscores.monte_carlo_shapley(lineage, epsilon, args.delta, seed, players)
            for tid, estimate in estimates.items():
                err = abs(estimate - float(exact[tid]))
                worst = max(worst, err)
                inside += err <= epsilon
                total += 1
        print(f"{epsilon:>8} {samples:>8} {worst:>10.4f} {inside / total:>9.3f}")

    print("\nexact values:")
    for tid, value in exact.items():
        print(f"  {tid}: {value} ({float(value):.4f})")


if __name__ == "__main__":
    main()
