"""The process entry point: `python -m ilwhodge` and the `ilwhodge` script."""

import gc
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """Run the CLI and exit with its code.

    The interpreter's exit-time collections walk every live object, the
    modules `site` loaded included, and the process is about to end, so the
    survivors are frozen out of their reach on every exit path: a returned
    code, a usage error's `SystemExit` and an uncaught exception alike.
    `cli.main` does not freeze, because tests and the tracer call it in
    process; `atexit` handlers and the normal flush still run.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
