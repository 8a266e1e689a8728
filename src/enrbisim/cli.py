"""Command-line surface: document loading, checks and reports.

One command per invocation; exit code 0 means yes/valid, 1 means
no/invalid, 2 means an error.  Reports are emitted as JSON (the default,
byte-stable for a fixed seed unless timing is requested) or as plain
text.
"""

from __future__ import annotations

import importlib
import sys
import time
from types import SimpleNamespace
from typing import Any

from . import documents
from .errors import EnrbisimError


class Report:
    """Outcome of one command: verdict, evidence, and the time ``main``
    took to produce it."""

    def __init__(self, command: str, verdict: str, details: dict[str, Any]):
        self.command = command
        self.verdict = verdict  # yes | no | valid | invalid | error
        self.details = details
        self.timing: float | None = None

    @property
    def exit_code(self) -> int:
        if self.verdict in ("yes", "valid"):
            return 0
        if self.verdict in ("no", "invalid"):
            return 1
        return 2

    def to_json(self, include_timing: bool = False) -> str:
        body = {
            "schema": documents.SCHEMA,
            "command": self.command,
            "verdict": self.verdict,
            "details": self.details,
        }
        if include_timing and self.timing is not None:
            body["timing_seconds"] = round(self.timing, 6)
        parts: list[str] = []
        _encode_indented(body, "\n", parts, {})
        return "".join(parts)

    def to_text(self) -> str:
        import json  # only text reports need it here

        lines = [f"{self.command}: {self.verdict}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {json.dumps(self.details[key], sort_keys=True)}")
        if self.timing is not None:
            lines.append(f"  elapsed: {self.timing:.3f}s")
        return "\n".join(lines)


try:  # json.encoder's C string encoder, without importing json
    from _json import encode_basestring_ascii as _encode_string
except ImportError:  # no C accelerator: json's own fallback
    from json.encoder import encode_basestring_ascii as _encode_string


def _encode_indented(value, newline: str, parts: list[str], shared: dict) -> None:
    """Append the text ``json.dumps(value, sort_keys=True, indent=2)``
    gives for ``value`` at the depth whose line break is ``newline``.

    ``indent=2`` forces ``json``'s pure-Python encoder, so the layout is
    written here, without ``json``: strings and keys go through its C
    ``encode_basestring_ascii``, ints through ``int.__repr__``, and a list
    of strings and ints alone (a pair, a trace entry) is one join.  Any
    other list is written once per depth: ``shared`` keeps, by its ``id``
    and line break, where its text lies in ``parts``, and then the text,
    for each further place the same list object fills at that depth (an
    enrichment document gives one list to every cell with the same hom).
    Any other value but a bool or None, and any dict with a key that is
    not a ``str``, is left to ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode_string(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is bool or value is None:
        parts.append("null" if value is None else "true" if value else "false")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        items = []
        for item in value:
            if type(item) is str:
                items.append(_encode_string(item))
            elif type(item) is int:
                items.append(int.__repr__(item))
            else:
                break
        else:
            parts.append("[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]")
            return
        key = (id(value), newline)
        seen = shared.get(key)
        if seen is not None:
            if type(seen) is tuple:  # its second place: join its pieces once
                seen = shared[key] = "".join(parts[seen[0]:seen[1]])
            parts.append(seen)
            return
        start, sep = len(parts), "[" + inner
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _encode_indented(item, inner, parts, shared)
        parts.append(newline + "]")
        shared[key] = (start, len(parts))
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + _encode_string(key) + ": ")
            sep = "," + inner
            _encode_indented(value[key], inner, parts, shared)
        parts.append(newline + "}")
    else:
        import json

        parts.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def default_fixture_paths() -> list[str]:
    """The data directory shipped inside the package."""
    from importlib import resources

    return [str(resources.files("enrbisim").joinpath("data"))]


def run(command: str, bundle: documents.Bundle, flags: SimpleNamespace) -> Report:
    """Run one command on a loaded bundle and ``parse_args(argv)``: the
    handler ``cmd_<command>`` (dashes as underscores) of the module its
    ``COMMANDS`` row names, imported here, gives the verdict and details."""
    module = importlib.import_module(f".{COMMANDS[command][0]}", __package__)
    try:
        verdict, details = getattr(module, f"cmd_{_dest(command)}")(bundle, flags)
    except EnrbisimError as err:
        return Report(command, "error", {"error": f"{type(err).__name__}: {err}"})
    return Report(command, verdict, details)


_REQUIRED, _FLAG = {"required": True}, {"action": "store_true", "default": False}
_A, _B = ("--a", _REQUIRED), ("--b", _REQUIRED)
# each command's module, help (or None) and arguments, in the order ``-h``
# lists them: the one declaration ``run``, ``parse_args`` and ``build_parser``
# read.  The module serves the command (``run``), so only it is compiled.
COMMANDS: dict[str, tuple[str, str | None, tuple]] = {
    "validate": ("laws", "validate named objects (default: all)",
                 (("names", {"nargs": "*"}),)),
    "bisim-largest": ("bisim", None,
                      (_A, _B, ("--sim", dict(_FLAG, help="one direction only")))),
    "simulates": ("simulation", None, (_A, _B)),
    "bisimilar": ("bisim", None, (_A, _B)),
    "bisim-check": ("checks", None, (("--rel", _REQUIRED), ("--sim", _FLAG))),
    "od-check": ("checks", None, (("--functor", _REQUIRED),)),
    "quotient": ("checks", None,
                 (_A, ("--rel", _REQUIRED), ("--out", {"default": "quotient"}))),
    "cospan": ("witness", None, (_A, _B, ("--rel", {"default": None}))),
    "span": ("witness", None, (_A, _B)),
    "cob-apply": ("cobdocs", None,
                  (("--tse", _REQUIRED), _A, ("--out", {"default": "changed"}))),
    "cob-radjoint": ("cobdocs", None,
                     (("--tse", _REQUIRED), _B, ("--out", {"default": "lifted"}))),
    "axioms": ("generators", None, (("--suite", {"default": "A1..A6"}), ("--base", _REQUIRED),
                                    ("--seed", {"type": int, "default": 7}),
                                    ("--cases", {"type": int, "default": 200}))),
    "cts-build": ("cts", None, (("--spec", _REQUIRED), ("--out", {"default": "built"}))),
    "cts-refine": ("ctsrefine", None, (("--spec", _REQUIRED), ("--functor", _REQUIRED),
                                 ("--out", {"default": "refined"}))),
}
# each global option and its ``add_argument`` keywords, in the order ``-h`` lists them
OPTIONS: dict[str, dict] = {
    "--format": {"choices": ["json", "text"], "default": "json", "help": "report format"},
    "--timing": dict(_FLAG, help="include timing in JSON reports"),
    "--paths": {"action": "append", "default": None, "metavar": "PATH",
                "help": "a document file or directory; repeatable "
                "(defaults to the shipped fixtures)"},
    "--aut-alphabet": {"default": None, "help": "comma-separated labels"},
    "--aut-k": {"type": int, "default": None, "help": "word length cutoff"},
}


def build_parser():
    """The global options and a subparser for each command.  Only an argv
    ``parse_args`` cannot read alone needs it, so ``argparse`` loads here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="enrbisim",
        description="Simulation and bisimulation checks for enrichments "
        "over finite quantaloids.",
        allow_abbrev=False,
    )
    for flag, options in OPTIONS.items():
        parser.add_argument(flag, **options)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name) if help_text is None else sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _read(argv: list[str], i: int, arguments, values: dict) -> int | None:
    """Put the defaults of ``arguments`` in ``values``, then read their
    options from ``argv[i:]`` (``--flag value``, ``--flag=value``, a bare
    flag).  Return the index of the first other token, or None at what the
    full parser must judge: help, an unknown or abbreviated option, ``--``,
    a missing value or one that starts with ``-``, a bad int or choice."""
    for flag, options in arguments:
        values[_dest(flag)] = options.get("default")
    declared = dict(arguments)
    while i < len(argv) and argv[i].startswith("-"):
        flag, joined, value = argv[i].partition("=")
        options, i = declared.get(flag), i + 1
        if options is None or joined and options.get("action") == "store_true":
            return None
        if options.get("action") == "store_true":
            values[_dest(flag)] = True
            continue
        if not joined:
            if i == len(argv):
                return None
            value, i = argv[i], i + 1
        try:
            typed = options.get("type", str)(value)
        except ValueError:
            return None
        if value.startswith("-") or typed not in options.get("choices", (typed,)):
            return None
        old = values[_dest(flag)]
        values[_dest(flag)] = [*(old or ()), typed] if options.get("action") == "append" else typed
    return i


def parse_args(argv: list[str]) -> SimpleNamespace:
    """What ``build_parser().parse_args(argv)`` gives, defaults included.  A
    well-formed ``argv`` is read from ``OPTIONS`` and its command's row alone;
    anything else goes to the full parser, which prints and exits as always."""
    values: dict = {}
    i = _read(argv, 0, OPTIONS.items(), values)
    if i is not None and i < len(argv) and argv[i] in COMMANDS:
        values["command"], arguments = argv[i], COMMANDS[argv[i]][2]
        options = [(flag, o) for flag, o in arguments if flag[0] == "-"]
        names = [_dest(flag) for flag, _ in arguments if flag[0] != "-"]  # validate's nargs="*"
        i = _read(argv, i + 1, options, values)
        well_formed = (
            i is not None
            and (names or i == len(argv))
            and not any(token.startswith("-") for token in argv[i:])
            and not any(o.get("required") and values[_dest(flag)] is None for flag, o in options)
        )
        if well_formed:
            return SimpleNamespace(**values, **dict.fromkeys(names, argv[i:]))
    return SimpleNamespace(**vars(build_parser().parse_args(argv)))


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    alphabet = args.aut_alphabet.split(",") if args.aut_alphabet else None
    paths = args.paths if args.paths is not None else default_fixture_paths()
    try:
        bundle = documents.load_bundle(paths, alphabet, args.aut_k)
        report = run(args.command, bundle, args)
    except EnrbisimError as err:
        report = Report(args.command, "error", {"error": f"{type(err).__name__}: {err}"})
    except Exception as err:
        # a bug, not an answer: exit 2 (never 1, which reads as "no");
        # traceback is imported here to keep it off the start-up path
        import traceback

        traceback.print_exc()
        details = {"error": f"{type(err).__name__}: {err}", "kind": "internal"}
        report = Report(args.command, "error", details)
    report.timing = time.perf_counter() - start  # the whole run, load errors included
    if args.format == "json":
        print(report.to_json(include_timing=args.timing))
    else:
        print(report.to_text())
    return report.exit_code

