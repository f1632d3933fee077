"""The process entry point: ``python -m markprep`` and the ``markprep``
console script both call ``run``."""
from __future__ import annotations

import gc

from markprep.cli import main


def run() -> None:
    """Run the CLI in a process of its own.

    Every object made while importing the CLI lives until the process
    exits, so it is moved out of the collector's reach first: neither the
    collections while a command runs nor the one at shutdown walk it.
    ``main`` itself does not freeze, so an in-process caller's collector
    is left as it was.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
