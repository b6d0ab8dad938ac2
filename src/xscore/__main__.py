"""The `xscore` process: ``python -m xscore`` and the installed command."""
import gc
import sys

from .cli import main


def run() -> None:
    """Run the CLI on this process's arguments, then exit with its code.

    Each request is a process of its own, so nothing is left to collect at
    exit: freezing the heap first spares the interpreter's shutdown from
    walking every module, class and function cycle.  Exit still runs
    `atexit` handlers and flushes stdout and stderr.  Only the process
    entry freezes, never `main`, which long-lived callers run too.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
