"""Command-line interface.

Subcommands: `db-scores` (tuple-level scores for a query or lineage over
CSV relations), `ml-scores` (feature-level scores for a classifier and
entity), `analyze` (query structure and tractability verdict), `lineage`
(print a compiled lineage).  Reports are JSON (schema "xscore/1") with
exact rationals serialized as "p/q" strings, or a plain text table.

Exit codes: 0 success; 1 parse/input errors; 2 query false (nothing to
explain); 3 budget exceeded; 4 external-classifier protocol failure;
5 zero-mass event or inconsistent constraint.

A start loads only what its subcommand runs: each handler imports its own
modules, and heavy stdlib imports sit at their single point of use.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__

SCHEMA = "xscore/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_QUERY_FALSE = 2
EXIT_BUDGET = 3
EXIT_PROTOCOL = 4
EXIT_ZERO_MASS = 5

DB_KINDS = ("responsibility", "causal_effect", "shapley", "banzhaf")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which would collide with the
    # "query false" code; usage problems are parse errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the units of work one run charges over all its kinds "
        "(default: $XSCORE_BUDGET or 2^25)",
    )
    common.add_argument("--seed", type=int, default=0, help="RNG seed for approximate modes")
    common.add_argument("--output", type=Path, default=None, help="write the report to this path")
    common.add_argument("--format", choices=("json", "table"), default="json")

    parser = _Parser(prog="xscore", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"xscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    db = sub.add_parser(
        "db-scores", parents=[common], help="tuple-level scores over a database"
    )
    db.add_argument(
        "--relation",
        action="append",
        default=[],
        metavar="NAME=CSV",
        help="relation CSV file (repeatable)",
    )
    db.add_argument("--query", help="query text, e.g. 'Q() :- S(x), R(x,y), S(y)'")
    db.add_argument("--query-file", type=Path, help="file containing the query text")
    db.add_argument("--lineage", help="lineage text, e.g. 't1 | (t2 & t3)'")
    db.add_argument("--lineage-file", type=Path, help="file containing lineage text")
    db.add_argument(
        "--kinds",
        default="responsibility",
        help=f"comma-separated subset of {','.join(DB_KINDS)}",
    )
    db.add_argument("--tuple", action="append", default=[], help="restrict output to these ids")
    db.add_argument("--nonzero", action="store_true", help="drop zero-valued records")
    db.add_argument("--mode", choices=("exact", "approx"), default="exact")
    db.add_argument("--epsilon", type=float, default=None, help="approx mode: additive error")
    db.add_argument("--delta", type=float, default=None, help="approx mode: failure probability")
    db.add_argument(
        "--probability",
        default=None,
        metavar="P",
        help="tuple presence probability for causal effect (default 1/2)",
    )
    db.set_defaults(handler=_cmd_db_scores)

    ml = sub.add_parser(
        "ml-scores", parents=[common], help="feature-level scores for a classifier"
    )
    ml.add_argument("--classifier", type=Path, help="truth-table CSV (all 2^n rows)")
    ml.add_argument(
        "--classifier-cmd",
        help="external classifier command speaking the xscore-clf protocol",
    )
    ml.add_argument("--features", help="comma-separated feature names (external classifier)")
    ml.add_argument("--entity", required=True, help="entity bits, e.g. 011")
    ml.add_argument(
        "--kinds", default="shap,counter,resp", help="comma-separated subset of shap,counter,resp"
    )
    ml.add_argument(
        "--distribution", choices=("uniform", "empirical", "product"), default="uniform"
    )
    ml.add_argument("--sample", type=Path, help="sample CSV (empirical / product estimation)")
    ml.add_argument("--marginals", help="comma-separated marginals for the product variant")
    ml.add_argument(
        "--constraint", action="append", default=[], help="constraint text (repeatable)"
    )
    ml.add_argument("--constraint-file", type=Path, help="file with one constraint per line")
    ml.add_argument("--dedupe", action="store_true", help="drop duplicate sample entities")
    ml.add_argument("--target-label", type=int, choices=(0, 1), default=1)
    ml.add_argument("--max-contingency", type=int, default=None)
    ml.add_argument(
        "--skip-zero-mass",
        action="store_true",
        help="drop zero-mass coalitions from SHAP sums instead of failing",
    )
    ml.set_defaults(handler=_cmd_ml_scores)

    an = sub.add_parser("analyze", parents=[common], help="query structure analysis")
    an.add_argument("--query", required=True, help="query text")
    an.set_defaults(handler=_cmd_analyze)

    lin = sub.add_parser("lineage", parents=[common], help="print a compiled lineage")
    lin.add_argument(
        "--relation", action="append", default=[], metavar="NAME=CSV", required=True
    )
    lin.add_argument("--query", required=True, help="query text")
    lin.set_defaults(handler=_cmd_lineage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = args.handler(args)
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": args.command,
            "config": _config_echo(args),
            "records": records,
            "warnings": [str(w.message) for w in caught],
            "timing": {"seconds": round(time.monotonic() - started, 6)},
        }
        _emit(report, args)
    except Exception as exc:  # noqa: BLE001 - mapped to the exit-code taxonomy
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"xscore: error: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


def _exit_code(exc: Exception) -> int | None:
    """The exit code of the first error class `exc` belongs to, or None."""
    from . import classify, dbscores, games, reldb
    codes = (
        (dbscores.NothingToExplainError, EXIT_QUERY_FALSE),
        (games.BudgetExceededError, EXIT_BUDGET),
        (classify.WidthLimitError, EXIT_BUDGET),
        (classify.ClassifierProtocolError, EXIT_PROTOCOL),
        (classify.ZeroMassEventError, EXIT_ZERO_MASS),
        (classify.InconsistentConstraintError, EXIT_ZERO_MASS),
        (reldb.ParseError, EXIT_PARSE),
        (reldb.DatabaseError, EXIT_PARSE),
        (OSError, EXIT_PARSE),
        (ValueError, EXIT_PARSE),
    )
    return next((code for kind, code in codes if isinstance(exc, kind)), None)


def _config_echo(args) -> dict:
    """Flags of this run, enough to reproduce it (seeds included)."""
    skip = {"handler", "command", "output", "format"}
    echo = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, list):
            value = [str(v) for v in value]
        echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the report's record list)


def _cmd_db_scores(args) -> list[dict]:
    from fractions import Fraction

    from . import dbscores, games
    charge = games.meter(_budget(args))
    db = _load_relations(args.relation)
    for tid in args.tuple:
        db.values_of(tid)
    lineage, players = _resolve_query_or_lineage(args, db)
    kinds = _split_kinds(args.kinds, DB_KINDS)
    if args.mode == "exact" and (args.epsilon is not None or args.delta is not None):
        raise ValueError("--epsilon/--delta are only valid with --mode approx")
    if args.mode == "approx":
        if args.epsilon is None or args.delta is None:
            raise ValueError("--mode approx needs --epsilon and --delta")
        games.check_epsilon_delta(args.epsilon, args.delta)
    probability = None
    if args.probability is not None:
        probability = _rational_arg("--probability", args.probability)
        dbscores.check_probability(probability)

    all_ids = db.tuple_ids()
    swings = None  # counted once, shared by the exact kinds
    records: list[dict] = []
    for kind in kinds:
        if kind == "shapley" and args.mode == "approx":
            records.extend(_monte_carlo_records(args, all_ids, lineage, players, charge))
            continue
        if swings is None:
            # A --tuple filter spares the other tuples' counts.
            swings = dbscores.swing_counts(lineage, charge, args.tuple or None)
        if kind == "responsibility":
            # A --tuple filter spares the other tuples' witness searches.
            ids = args.tuple or all_ids
            for report in dbscores.lineage_causes(lineage, ids, charge, swings):
                records.append(_cause_record(report))
            continue
        values = dbscores.swing_scores(swings, kind, probability)
        for tid in all_ids:
            value = values.get(tid, Fraction(0))
            records.append(_score_record(tid, kind, value))
    if args.tuple:
        wanted = set(args.tuple)
        records = [r for r in records if r["tuple"] in wanted]
    if args.nonzero:
        records = [r for r in records if r["value_float"] != 0.0]
    records.sort(key=lambda r: (r["kind"], r["tuple"]))
    return records


def _monte_carlo_records(args, all_ids, lineage, players, charge) -> list[dict]:
    from . import dbscores, games
    estimates = dbscores.monte_carlo_shapley(
        lineage, args.epsilon, args.delta, args.seed, players, charge
    )
    samples = games.sample_count(args.epsilon, args.delta)
    settings = {"epsilon": args.epsilon, "delta": args.delta, "seed": args.seed}
    out = []
    for tid in all_ids:
        # A tuple outside the players is never sampled.
        value, used = (estimates[tid], samples) if tid in estimates else (0.0, 0)
        out.append(_score_record(tid, "shapley", value, **settings, samples=used))
    return out


def _cmd_ml_scores(args) -> list[dict]:
    from . import classify, games, mlscores
    charge = games.meter(_budget(args))
    kinds = _split_kinds(args.kinds, mlscores.SCORE_KINDS)
    space, classifier, sample = _resolve_classifier(args)
    try:
        entity = classify.Entity.from_bits(args.entity)
        if entity.width != space.width:
            raise ValueError(
                f"entity has {entity.width} bits, the feature space has {space.width}"
            )
        distribution = _resolve_distribution(args, space, sample)
        distribution = _apply_constraints(args, space, distribution)
        request = mlscores.ExplanationRequest(
            entity=entity,
            classifier=classifier,
            distribution=distribution,
            target_label=args.target_label,
            max_contingency=args.max_contingency,
            skip_zero_mass=args.skip_zero_mass,
        )
        scores = mlscores.score_all(request, kinds, charge)
    finally:
        if isinstance(classifier, classify.ExternalClassifier):
            classifier.close()
    return [_feature_record(s) for s in scores]


def _cmd_analyze(args) -> list[dict]:
    from . import reldb
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
    from . import reldb
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


# ---------------------------------------------------------------------------
# Input resolution


def _budget(args) -> int:
    from . import games
    budget = args.budget
    if budget is None:
        env = os.environ.get("XSCORE_BUDGET")
        try:
            budget = int(env) if env else games.DEFAULT_BUDGET
        except ValueError:
            raise ValueError(
                f"$XSCORE_BUDGET expects a non-negative integer, got {env!r}"
            ) from None
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return budget


def _rational_arg(flag: str, text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag} expects a rational number, got {text!r}") from exc


def _load_relations(specs: list[str]):
    from . import reldb
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
    from . import dbscores, reldb
    sources = [
        s for s in (args.query, args.query_file, args.lineage, args.lineage_file) if s is not None
    ]
    if len(sources) != 1:
        raise ValueError(
            "exactly one of --query/--query-file/--lineage/--lineage-file is required"
        )
    if args.query is not None or args.query_file is not None:
        query_text = args.query if args.query is not None else args.query_file.read_text()
        query = reldb.parse_query(query_text.strip())
        return dbscores.query_lineage(db, query), db.tuple_ids()
    lineage_text = args.lineage if args.lineage is not None else args.lineage_file.read_text()
    lineage = reldb.parse_lineage(lineage_text.strip(), db)
    return lineage, sorted(lineage.support())


def _split_kinds(text: str, allowed) -> list[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise ValueError("--kinds must name at least one score")
    for k in kinds:
        if k not in allowed:
            raise ValueError(f"unknown score kind {k!r}; allowed: {', '.join(allowed)}")
    return sorted(set(kinds))


def _resolve_classifier(args):
    from . import classify
    if args.classifier is not None and args.classifier_cmd is not None:
        raise ValueError("--classifier and --classifier-cmd are mutually exclusive")
    sample = None
    if args.sample is not None:
        sample = classify.load_sample_csv(args.sample, dedupe=args.dedupe)
    if args.classifier is not None:
        space, clf = classify.load_truth_table_csv(args.classifier)
        if args.features is not None:
            raise ValueError("--features conflicts with --classifier (header names win)")
        return space, clf, sample
    if args.classifier_cmd is not None:
        import shlex
        clf = classify.ExternalClassifier(shlex.split(args.classifier_cmd))
        try:
            if args.features is None:
                names = tuple(f"F{i + 1}" for i in range(clf.width))
            else:
                names = tuple(n.strip() for n in args.features.split(","))
                if not all(names):
                    raise ValueError(
                        f"--features expects comma-separated names, got {args.features!r}"
                    )
            space = classify.FeatureSpace(names)
            if space.width != clf.width:
                raise ValueError(
                    f"--features names {space.width} features, classifier serves {clf.width}"
                )
        except BaseException:
            clf.close()
            raise
        return space, clf, sample
    # No classifier: labels must come from the sample itself.
    if sample is None or sample.labels is None:
        raise ValueError(
            "no classifier given: provide --classifier, --classifier-cmd, "
            "or --sample with a _label column"
        )
    if args.distribution != "empirical":
        raise ValueError("sample-labeled scoring needs --distribution empirical")
    table = {e.bits: label for e, label in sample.labels.items()}
    clf = classify.TableClassifier(sample.space.width, table, total=False)
    return sample.space, clf, sample


def _resolve_distribution(args, space, sample):
    from . import classify
    if args.distribution == "uniform":
        return classify.UniformDistribution(space)
    if args.distribution == "empirical":
        if sample is None:
            raise ValueError("--distribution empirical needs --sample")
        _check_sample_space(space, sample)
        return classify.EmpiricalDistribution(space, sample.entities)
    if args.marginals is not None:
        marginals = [_rational_arg("--marginals", m) for m in args.marginals.split(",")]
        return classify.ProductDistribution(space, marginals)
    if sample is None:
        raise ValueError("--distribution product needs --marginals or --sample")
    _check_sample_space(space, sample)
    return classify.ProductDistribution.from_sample(space, sample.entities)


def _check_sample_space(space, sample):
    if sample.space.names != space.names:
        raise ValueError(
            f"sample features {sample.space.names} do not match classifier features {space.names}"
        )


def _apply_constraints(args, space, distribution):
    from . import classify
    texts = list(args.constraint)
    if args.constraint_file is not None:
        for line in args.constraint_file.read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                texts.append(line)
    if not texts:
        return distribution
    constraints = [classify.parse_constraint(t, space) for t in texts]
    return classify.condition(distribution, constraints)


# ---------------------------------------------------------------------------
# Record serialization


def _rational(value) -> dict:
    from fractions import Fraction
    if isinstance(value, Fraction):
        return {"value": str(value), "value_float": float(value)}
    return {"value": repr(float(value)), "value_float": float(value)}


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
    record.update(_rational(report.responsibility))
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
    record.update(_rational(value))
    record.update(monte_carlo)
    return record


def _feature_record(score) -> dict:
    record = {
        "type": "feature_score",
        "feature": score.feature,
        "kind": score.kind,
    }
    record.update(_rational(score.value))
    if score.kind == "resp":
        record["explanation_kind"] = score.explanation_kind
        record["witness"] = (
            None
            if score.witness is None
            else {
                "contingency": list(score.witness.contingency),
                "contingency_values": list(score.witness.contingency_values),
                "replacement": score.witness.replacement,
                "entity": str(score.witness.entity),
            }
        )
    return record


# ---------------------------------------------------------------------------
# Output


def _emit(report: dict, args) -> None:
    if args.format == "json":
        import json
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _format_table(report)
    if args.output is None:
        sys.stdout.write(text)
        return
    import tempfile
    # Atomic write: same-directory temp file, then rename.
    directory = args.output.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    except BaseException:
        os.unlink(tmp)
        raise


def _format_table(report: dict) -> str:
    lines = [f"# xscore {report['version']} | {report['command']}"]
    rows: list[tuple[str, ...]] = []
    for record in report["records"]:
        rtype = record["type"]
        if rtype == "cause_report":
            detail = (
                "counterfactual"
                if record["is_counterfactual_cause"]
                else "actual" if record["is_actual_cause"] else "non-cause"
            )
            if record["witness_contingency"]:
                detail += " contingency={" + ",".join(record["witness_contingency"]) + "}"
            rows.append((record["tuple"], record["kind"], record["value"], detail))
        elif rtype == "tuple_score":
            rows.append((record["tuple"], record["kind"], record["value"], record["mode"]))
        elif rtype == "feature_score":
            rows.append(
                (
                    record["feature"],
                    record["kind"],
                    record["value"],
                    record.get("explanation_kind", ""),
                )
            )
        elif rtype == "query_analysis":
            lines.append(f"query: {record['query']}")
            lines.append(f"hierarchical: {record['hierarchical']}")
            lines.append(f"self-join-free: {record['self_join_free']}")
            lines.append(f"verdict: {record['verdict']}")
        elif rtype == "lineage":
            lines.append(f"query: {record['query']}")
            lines.append(f"lineage: {record['text']}")
    if rows:
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    for warning in report["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"
