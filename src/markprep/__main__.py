"""The process entry point: ``python -m markprep`` and the ``markprep``
console script both call ``run``."""
from __future__ import annotations

import gc

from markprep.cli import main


def run() -> None:
    """Run the CLI in a process of its own.

    Every object made while importing the CLI lives until the process
    exits, so it is moved out of the collector's reach first: the
    collection at shutdown does not walk it.  Then the cyclic collector is
    switched off.  A command keeps its records until it exits and makes
    almost no reference cycles, so a collection while it runs frees next to
    nothing but rescans every record it holds: a record is a tuple
    subclass, which the collector never untracks, though it untracks a
    plain tuple of numbers and strings.  Reference counting still frees
    everything else.  ``main`` itself neither freezes nor disables,
    so an in-process caller's collector is left as it was.
    """
    gc.freeze()
    gc.disable()
    main()


if __name__ == "__main__":
    run()
