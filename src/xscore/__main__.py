"""The `xscore` process: ``python -m xscore`` and the installed command."""
from . import exit_process
from .cli import main


def run() -> None:
    """Run the CLI on this process's arguments, then `exit_process` with its
    code; `main` itself never exits, since long-lived callers run it too."""
    exit_process(main())


if __name__ == "__main__":
    run()
