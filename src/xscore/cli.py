"""Command-line interface.

Subcommands: `db-scores` (tuple-level scores for a query or lineage over
CSV relations), `ml-scores` (feature-level scores for a classifier and
entity), `analyze` (query structure and tractability verdict), `lineage`
(print a compiled lineage).  Reports are JSON (schema "xscore/1") with
exact rationals serialized as "p/q" strings, or a plain text table.

Exit codes: 0 success; 1 parse/input errors; 2 query false (nothing to
explain); 3 budget exceeded; 4 external-classifier protocol failure;
5 zero-mass event or inconsistent constraint.

A start imports, and builds the arguments of, only the subcommand it runs,
from its handler module (`dbcli`, `mlcli`); heavy stdlib imports sit at
their single point of use.
"""
from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
import warnings
from pathlib import Path

from . import DEFAULT_BUDGET, __version__

SCHEMA = "xscore/1"

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_QUERY_FALSE = 2
EXIT_BUDGET = 3
EXIT_PROTOCOL = 4
EXIT_ZERO_MASS = 5

DB_KINDS = ("responsibility", "causal_effect", "shapley", "banzhaf")

# Each subcommand's help, and the handler module that declares and runs it.
SUBCOMMANDS = {
    "db-scores": ("tuple-level scores over a database", "dbcli"),
    "ml-scores": ("feature-level scores for a classifier", "mlcli"),
    "analyze": ("query structure analysis", "dbcli"),
    "lineage": ("print a compiled lineage", "dbcli"),
}


class _Parser(argparse.ArgumentParser):
    command = None  # a subcommand's name, until its parser has its arguments

    # argparse exits 2 on usage errors, which would collide with the
    # "query false" code; usage problems are parse errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's parser gets its arguments on its first parse, from
        # `declare_<subcommand>` in its handler module.
        if self.command is not None:
            command, self.command = self.command, None
            module = importlib.import_module(f"{__package__}.{SUBCOMMANDS[command][1]}")
            getattr(module, "declare_" + command.replace("-", "_"))(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xscore", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"xscore {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in SUBCOMMANDS.items():
        sub.add_parser(command, help=text).command = command
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


# Each error class's exit code, first match wins.  A class is read only from
# a loaded module (an unloaded one cannot have raised), so mapping loads none.
EXIT_CODES = (
    (f"{__package__}.dbscores", "NothingToExplainError", EXIT_QUERY_FALSE),
    (__package__, "BudgetExceededError", EXIT_BUDGET),
    (f"{__package__}.classify", "WidthLimitError", EXIT_BUDGET),
    (f"{__package__}.classify", "ClassifierProtocolError", EXIT_PROTOCOL),
    (f"{__package__}.classify", "ZeroMassEventError", EXIT_ZERO_MASS),
    (f"{__package__}.classify", "InconsistentConstraintError", EXIT_ZERO_MASS),
    ("builtins", "OSError", EXIT_PARSE),
    ("builtins", "ValueError", EXIT_PARSE),
)


def _exit_code(exc: Exception) -> int | None:
    """The exit code of the first error class `exc` belongs to, or None."""
    return next((code for module, name, code in EXIT_CODES if module in sys.modules
                 and isinstance(exc, getattr(sys.modules[module], name))), None)


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
# Shared by the handler modules


def add_common_arguments(parser, scoring: bool) -> None:
    """The options of every subcommand, and a scoring one's --budget."""
    add = parser.add_argument
    if scoring:
        add("--budget", type=int, help="cap on the units of work one run charges over all its "
            "kinds (default: $XSCORE_BUDGET or 2^25)")
    add("--output", type=Path, help="write the report to this path")
    add("--format", choices=("json", "table"), default="json")


def work_budget(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("XSCORE_BUDGET")
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ValueError(
                f"$XSCORE_BUDGET expects a non-negative integer, got {env!r}"
            ) from None
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return budget


def rational_arg(flag: str, text: str):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{flag} expects a rational number, got {text!r}") from exc


def split_kinds(text: str, allowed) -> list[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise ValueError("--kinds must name at least one score")
    for k in kinds:
        if k not in allowed:
            raise ValueError(f"unknown score kind {k!r}; allowed: {', '.join(allowed)}")
    return sorted(set(kinds))


def rational_fields(value) -> dict:
    from fractions import Fraction
    if isinstance(value, Fraction):
        return {"value": str(value), "value_float": float(value)}
    return {"value": repr(float(value)), "value_float": float(value)}


# ---------------------------------------------------------------------------
# Output


def _emit(report: dict, args) -> None:
    if args.format == "json":
        import json
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _format_table(report)
    if args.output is None:
        if sys.stdout is None:  # file descriptor 1 was closed at start
            raise OSError("standard output is closed")
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
