"""Byte-for-byte golden reports of the CLI on the shipped fixtures.

Each case runs one command and compares its JSON report with the file
``tests/golden/<case>.json``.  The relation and functor documents that
``quotient`` and ``od-check`` need live in ``tests/golden/docs`` and
refer to the shipped fixtures by name.  After an intended change of a
report, regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from importlib import resources
from pathlib import Path

import pytest

from enrbisim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SHIPPED = str(resources.files("enrbisim").joinpath("data"))
DOCS = str(GOLDEN / "docs")

# case -> (arguments after the fixture paths, expected exit code)
CASES = {
    "validate": (["validate"], 0),
    "bisimilar-AUT1-LOOP1": (["bisimilar", "--a", "AUT1", "--b", "LOOP1"], 1),
    "bisimilar-P01-POINT": (["bisimilar", "--a", "P01", "--b", "POINT"], 0),
    "simulates-AUT1-LOOP1": (["simulates", "--a", "AUT1", "--b", "LOOP1"], 0),
    "simulates-LOOP1-AUT1": (["simulates", "--a", "LOOP1", "--b", "AUT1"], 1),
    "bisim-largest-AUT1-LOOP1": (["bisim-largest", "--a", "AUT1", "--b", "LOOP1"], 0),
    "bisim-largest-sim-AUT1-LOOP1": (
        ["bisim-largest", "--a", "AUT1", "--b", "LOOP1", "--sim"],
        0,
    ),
    "bisim-largest-P01-POINT": (["bisim-largest", "--a", "P01", "--b", "POINT"], 0),
    "quotient-P01-E": (["quotient", "--a", "P01", "--rel", "E"], 0),
    "cospan-P01-POINT": (["cospan", "--a", "P01", "--b", "POINT"], 0),
    "span-P01-POINT": (["span", "--a", "P01", "--b", "POINT"], 0),
    "span-AUT1-LOOP1": (["span", "--a", "AUT1", "--b", "LOOP1"], 2),
    "od-check-F": (["od-check", "--functor", "F"], 0),
    **{
        f"axioms-{base}-seed7": (["axioms", "--base", base, "--seed", "7"], 0)
        for base in ("Q2", "M3", "QL_m_2", "REL1", "BP2")
    },
}


def report_of(case: str) -> tuple[int, str]:
    args, _ = CASES[case]
    paths = ["--paths", SHIPPED]
    if args[0] in ("quotient", "od-check"):
        paths += ["--paths", DOCS]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(paths + args)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    code, out = report_of(case)
    assert code == CASES[case][1]
    assert out == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    for name in sorted(CASES):
        (GOLDEN / f"{name}.json").write_text(report_of(name)[1])
        print(f"wrote {name}.json")
