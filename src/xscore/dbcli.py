"""The database subcommands: `db-scores`, `analyze` and `lineage`.  `cli`
imports this module only to run one of them; its `declare_*` function
gives that subcommand's parser the arguments and the handler."""
from __future__ import annotations

from pathlib import Path

from . import cli, reldb, text_lines


def declare_db_scores(parser) -> None:
    cli.add_common_arguments(parser, scoring=True)
    _add_relations(parser)
    add = parser.add_argument
    add("--query", help="query text, e.g. 'Q() :- S(x), R(x,y), S(y)'")
    add("--query-file", type=Path, help="file containing the query text")
    add("--lineage", help="lineage text, e.g. 't1 | (t2 & t3)'")
    add("--lineage-file", type=Path, help="file containing lineage text")
    add("--kinds", default="responsibility",
        help=f"comma-separated subset of {','.join(cli.DB_KINDS)}")
    add("--tuple", action="append", default=[], help="restrict output to these ids")
    add("--nonzero", action="store_true", help="drop zero-valued records")
    add("--mode", choices=("exact", "approx"), default="exact")
    add("--epsilon", type=float, default=None, help="approx mode: additive error")
    add("--delta", type=float, default=None, help="approx mode: failure probability")
    add("--seed", type=int, default=0, help="approx mode: RNG seed")
    add("--probability", metavar="P",
        help="tuple presence probability for causal effect (default 1/2)")
    parser.set_defaults(handler=_cmd_db_scores)


def declare_analyze(parser) -> None:
    cli.add_common_arguments(parser, scoring=False)
    parser.add_argument("--query", required=True, help="query text")
    parser.set_defaults(handler=_cmd_analyze)


def declare_lineage(parser) -> None:
    cli.add_common_arguments(parser, scoring=False)
    _add_relations(parser)
    parser.add_argument("--query", required=True, help="query text")
    parser.set_defaults(handler=_cmd_lineage)


def _add_relations(parser) -> None:
    # `_load_relations` refuses an empty list.
    parser.add_argument("--relation", action="append", default=[], metavar="NAME=CSV",
                        help="relation CSV file (repeatable)")


def _cmd_db_scores(args) -> list[dict]:
    from fractions import Fraction

    from . import dbscores, games
    charge = games.meter(cli.work_budget(args))
    db = _load_relations(args.relation)
    for tid in args.tuple:
        db.values_of(tid)
    lineage, players = _resolve_query_or_lineage(args, db)
    kinds = cli.split_kinds(args.kinds, cli.DB_KINDS)
    if args.mode == "exact" and (args.epsilon is not None or args.delta is not None):
        raise ValueError("--epsilon/--delta are only valid with --mode approx")
    if args.mode == "approx":
        if args.epsilon is None or args.delta is None:
            raise ValueError("--mode approx needs --epsilon and --delta")
        games.check_epsilon_delta(args.epsilon, args.delta)
    probability = None
    if args.probability is not None:
        probability = cli.rational_arg("--probability", args.probability)
        dbscores.check_probability(probability)
        if "causal_effect" not in kinds:
            raise ValueError("--probability is only valid with --kinds causal_effect")

    # The reported tuples; a --tuple filter spares the others' counts and searches.
    ids = sorted(set(args.tuple)) if args.tuple else db.tuple_ids()
    swings = None  # counted once, shared by the exact kinds
    records: list[dict] = []
    for kind in kinds:
        if kind == "shapley" and args.mode == "approx":
            records.extend(_monte_carlo_records(args, ids, lineage, players, charge))
            continue
        if swings is None:
            swings = dbscores.swing_counts(lineage, charge, ids)
        if kind == "responsibility":
            reports = dbscores.lineage_causes(lineage, ids, charge, swings)
            records.extend(map(_cause_record, reports))
            continue
        values = dbscores.swing_scores(swings, kind, probability)
        records.extend(_score_record(t, kind, values.get(t, Fraction(0))) for t in ids)
    if args.nonzero:  # on the exact value: a tiny one's float underflows to 0.0
        records = [r for r in records if r["value"] not in ("0", "0.0")]
    records.sort(key=lambda r: (r["kind"], r["tuple"]))
    return records


def _monte_carlo_records(args, ids, lineage, players, charge) -> list[dict]:
    from . import dbscores, games
    estimates = dbscores.monte_carlo_shapley(
        lineage, args.epsilon, args.delta, args.seed, players, charge
    )
    samples = games.sample_count(args.epsilon, args.delta)
    settings = {"epsilon": args.epsilon, "delta": args.delta, "seed": args.seed}
    out = []
    for tid in ids:
        # A tuple outside the players is never sampled.
        value, used = (estimates[tid], samples) if tid in estimates else (0.0, 0)
        out.append(_score_record(tid, "shapley", value, **settings, samples=used))
    return out


def _cmd_analyze(args) -> list[dict]:
    query = reldb.parse_query(args.query)
    analysis = reldb.analyze(query)
    return [
        {
            "type": "query_analysis",
            "query": reldb.format_query(query),
            "hierarchical": analysis.hierarchical,
            "self_join_free": analysis.self_join_free,
            "verdict": reldb.dichotomy_verdict(analysis),
            "atoms_by_var": {
                name: sorted(indices) for name, indices in sorted(analysis.atoms_by_var.items())
            },
        }
    ]


def _cmd_lineage(args) -> list[dict]:
    db = _load_relations(args.relation)
    query = reldb.parse_query(args.query)
    lineage = reldb.compile_lineage(db, query)
    return [
        {
            "type": "lineage",
            "query": reldb.format_query(query),
            "text": str(lineage),
            "source": "query",
            "support": sorted(lineage.support()),
        }
    ]


def _load_relations(specs: list[str]):
    if not specs:
        raise ValueError("at least one --relation NAME=CSV is required")
    paths: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--relation expects NAME=CSV, got {spec!r}")
        if name in paths:
            raise ValueError(f"relation {name!r} given twice")
        paths[name] = path
    return reldb.load_csv(paths)


def _resolve_query_or_lineage(args, db):
    """The lineage to score and the players of its game: every tuple of the
    instance for a Boolean query (others are refused before the join),
    only the support for lineage text; tuples outside the support are
    null players."""
    from . import dbscores
    sources = [
        s for s in (args.query, args.query_file, args.lineage, args.lineage_file) if s is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --query/--query-file/--lineage/--lineage-file is required"
        )
    text = "".join(text_lines(sources[0])) if isinstance(sources[0], Path) else sources[0]
    if args.query is not None or args.query_file is not None:
        query = reldb.parse_query(text.strip())
        return dbscores.query_lineage(db, query), db.tuple_ids()
    lineage = reldb.parse_lineage(text.strip(), db)
    return lineage, sorted(lineage.support())


def _cause_record(report) -> dict:
    record = {
        "type": "cause_report",
        "tuple": report.tuple_id,
        "kind": "responsibility",
        "is_actual_cause": report.is_actual_cause,
        "is_counterfactual_cause": report.is_counterfactual_cause,
        "min_contingency_size": report.min_contingency_size,
        "witness_contingency": (
            list(report.witness_contingency) if report.witness_contingency is not None else None
        ),
    }
    record.update(cli.rational_fields(report.responsibility))
    return record


def _score_record(tuple_id: str, kind: str, value, **monte_carlo) -> dict:
    """An exact score, or a Monte Carlo estimate with its epsilon, delta,
    seed and samples."""
    record = {
        "type": "tuple_score",
        "tuple": tuple_id,
        "kind": kind,
        "mode": "monte_carlo" if monte_carlo else "exact",
    }
    record.update(cli.rational_fields(value))
    record.update(monte_carlo)
    return record
