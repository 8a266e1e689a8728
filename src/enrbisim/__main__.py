"""Process entry of ``enrbisim`` and ``python -m enrbisim``: one command per process.

``entry`` freezes the heap the imports left (``gc.freeze``), so that the
modules, classes and functions that live until exit are skipped by
every later collection, the ones at shutdown included.  ``cli.main``
does not freeze, since tests and tracers call it in-process.
"""

import gc
import os
import sys

from .cli import main


def entry() -> int:
    """Run ``cli.main`` on ``sys.argv``; exit 2 if stdout is closed."""
    gc.freeze()
    try:
        try:
            return main()
        finally:  # also after help, which exits through SystemExit
            sys.stdout.flush()
    except BrokenPipeError:
        # nobody reads the report; point stdout at devnull so that the
        # flush at shutdown cannot fail again, and exit 2, never 1 ("no")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(entry())
