"""Explanation scores for database query answers and classifier outputs.

Modules:

* formula   - propositional formulas, and the tokenizer of the text grammars
* games     - exact / Monte Carlo Shapley and Banzhaf for oracle games
* reldb     - relational instances, conjunctive queries, lineage
* dbscores  - responsibility, causal effect, tuple Shapley / Banzhaf
* classify  - entities, classifiers, constraints, distributions
* clfserver - the reference external classifier and its bit-CSV readers
* mlscores  - SHAP, COUNTER and RESP feature scores
* cli       - the `xscore` command-line interface: its parser and reports
* dbcli     - the `db-scores`, `analyze` and `lineage` subcommands
* mlcli     - the `ml-scores` subcommand

The root holds what starts share, so none compiles a module it does not
run: the work `meter`, the classifier handshake, input text and the exit.
"""
import os
import sys

__version__ = "0.1.0"

#: Default cap on the units of work one run may charge to its `meter`.
DEFAULT_BUDGET = 2**25

PROTOCOL_HANDSHAKE = "xscore-clf v1"


class GameError(Exception):
    """Base class for game-engine failures."""


class BudgetExceededError(GameError):
    """A computation charged its `meter` past the budget."""


def meter(budget: int):
    """A charge for `units` (default 1) of work; the call that takes the
    running sum past `budget` raises `BudgetExceededError`.  One meter
    shared by several computations caps their sum.  Every `charge`
    parameter defaults to a fresh `meter(DEFAULT_BUDGET)`."""
    spent = 0

    def charge(units: int = 1) -> None:
        nonlocal spent
        spent += units
        if spent > budget:
            raise BudgetExceededError(
                f"needs more than {budget} units of work, budget is {budget}"
            )

    return charge


def check_feature_names(names) -> None:
    if not names:
        raise ValueError("a feature space needs at least one feature")
    if "" in names:
        raise ValueError("feature names must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError("feature names must be unique")


def text_lines(path):
    """The lines of a UTF-8 input file, less a leading byte-order mark, with
    their newlines as written (as `csv.reader` takes them).  A byte that is
    not UTF-8 is refused in one line naming the file and its line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            # The decoder reads ahead, so find the line in the raw bytes.
            fh.buffer.seek(0)
            for number, line in enumerate(fh.buffer, 1):
                try:
                    line.decode()
                except UnicodeDecodeError as exc:
                    bad = f"invalid UTF-8 byte 0x{line[exc.start]:02x} at line {number}"
                    raise ValueError(f"{path}: {bad}") from None
            raise


def exit_process(code: int) -> None:
    """End a request process with `code` after its `atexit` handlers and
    flushes, skipping teardown; a failed flush exits as `sys.exit` does."""
    import atexit
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # noqa: BLE001 - sys.exit reports it
        sys.exit(code)
    os._exit(code)
