"""The import set of the command-line module.

Every ``enrbisim`` run is a fresh process, so what ``import enrbisim.cli``
loads is paid on every request.  The modules below stay off that path;
the eight package modules are the ones the benchmark's tracer wraps, so
they must stay on it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KEPT_OFF = {
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "fractions",
    "decimal",
    "enrbisim.generators",
    "enrbisim.fixtures",
    "enrbisim.constructions",
}
TRACED = {
    f"enrbisim.{name}"
    for name in ("cli", "documents", "vcat", "bisim", "quantaloid", "cts", "cob", "lattice")
}


def modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_cli_import_set():
    added = modules_after("import enrbisim.cli") - modules_after("pass")
    assert not added & KEPT_OFF, sorted(added & KEPT_OFF)
    assert TRACED <= added, sorted(TRACED - added)
