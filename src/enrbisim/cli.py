"""Command-line surface: document loading, checks and reports.

One command per invocation; exit code 0 means yes/valid, 1 means
no/invalid, 2 means an error.  Reports are emitted as JSON (the default,
byte-stable for a fixed seed unless timing is requested) or as plain
text.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace
from typing import Any, Callable

# bisim, cob and cts are lazy (see the package): read their names at call time
from . import bisim, cob, cts, documents
from .errors import EnrbisimError, ParseError
from .quantaloid import Quantaloid
from .vcat import VCategory, VFunctor


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
        _encode_indented(body, "\n", parts)
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"{self.command}: {self.verdict}"]
        for key in sorted(self.details):
            lines.append(f"  {key}: {json.dumps(self.details[key], sort_keys=True)}")
        if self.timing is not None:
            lines.append(f"  elapsed: {self.timing:.3f}s")
        return "\n".join(lines)


_encode_string = json.encoder.encode_basestring_ascii


def _encode_indented(value, newline: str, parts: list[str]) -> None:
    """Append the text ``json.dumps(value, sort_keys=True, indent=2)``
    gives for ``value`` at the depth whose line break is ``newline``.

    ``indent=2`` forces ``json``'s pure-Python encoder, so the layout is
    written here.  Strings and keys go through the C encoder
    ``encode_basestring_ascii`` and ints through ``int.__repr__``, as in
    ``json``.  Any other value, and any dict with a key that is not a
    ``str``, is left to ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        parts.append(_encode_string(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _encode_indented(item, inner, parts)
        parts.append(newline + "]")
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + _encode_string(key) + ": ")
            sep = "," + inner
            _encode_indented(value[key], inner, parts)
        parts.append(newline + "}")
    else:
        parts.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def default_fixture_paths() -> list[str]:
    """The data directory shipped inside the package."""
    from importlib import resources

    return [str(resources.files("enrbisim").joinpath("data"))]


def _relation_details(rel: bisim.SimRelation) -> dict:
    return {
        "pairs": [list(p) for p in rel.pairs_named()],
        "trace": [list(entry) for entry in rel.refinement_trace],
    }


def _counterexample(check: bisim.SimulationCheck) -> dict:
    if check.counterexample is None:
        return {}
    a, b, ap = check.counterexample
    return {
        "counterexample": {
            "pair": [a, b],
            "probe": ap,
            "direction": check.direction,
        }
    }


def run(command: str, bundle: documents.Bundle, flags: SimpleNamespace) -> Report:
    """Run one command's handler on a loaded bundle and ``parse_args(argv)``."""
    handler = COMMANDS[command][0]
    try:
        return handler(bundle, flags)
    except EnrbisimError as err:
        return Report(command, "error", {"error": f"{type(err).__name__}: {err}"})


def _store(bundle: documents.Bundle, name: str, out: VCategory) -> dict:
    """Keep a command's result in the bundle under ``name``; return its document."""
    bundle.objects[name] = out
    bundle.kinds[name] = "vcategory"
    return documents.vcategory_to_doc(bundle, name, out)


def _cmd_validate(bundle, flags) -> Report:
    """Check the named bases; every other document, explicit table bases
    included, was checked as it loaded."""
    from .laws import validate_quantaloid  # only validate and cts-build check laws

    names = flags.names or bundle.names()
    problems: dict[str, list[str]] = {}
    for name in names:
        obj = bundle.get(name)
        if bundle.kinds[name] == "quantaloid" and name not in bundle.certified:
            found = validate_quantaloid(obj).violations
            if found:
                problems[name] = list(found)
    verdict = "valid" if not problems else "invalid"
    return Report("validate", verdict, {"checked": names, "violations": problems})


def _pair(bundle, flags) -> tuple[VCategory, VCategory]:
    return bundle.get(flags.a, VCategory), bundle.get(flags.b, VCategory)


def _cmd_bisim_largest(bundle, flags) -> Report:
    largest = bisim.largest_simulation if flags.sim else bisim.largest_bisimulation
    return Report("bisim-largest", "valid", _relation_details(largest(*_pair(bundle, flags))))


def _cmd_simulates(bundle, flags) -> Report:
    rel = bisim.largest_simulation(*_pair(bundle, flags))
    return Report("simulates", "yes" if rel.total_on_left() else "no", _relation_details(rel))


def _cmd_bisimilar(bundle, flags) -> Report:
    rel = bisim.largest_bisimulation(*_pair(bundle, flags))
    ok = rel.total_on_left() and rel.total_on_right()
    return Report("bisimilar", "yes" if ok else "no", _relation_details(rel))


def _cmd_bisim_check(bundle, flags) -> Report:
    rel = bundle.get(flags.rel, bisim.SimRelation)
    check = bisim.is_simulation(rel) if flags.sim else bisim.is_bisimulation(rel)
    return Report("bisim-check", "yes" if check.ok else "no", _counterexample(check))


def _cmd_od_check(bundle, flags) -> Report:
    ok = bisim.is_od(bundle.get(flags.functor, VFunctor))
    return Report("od-check", "yes" if ok else "no", {"functor": flags.functor})


def _cmd_quotient(bundle, flags) -> Report:
    a = bundle.get(flags.a, VCategory)
    rel = bundle.get(flags.rel, bisim.SimRelation)
    equivalence = bisim.equivalence_closure(rel)
    quo, qmap = bisim.quotient(a, equivalence)
    return Report(
        "quotient",
        "valid",
        {
            "blocks": [[a.objects[i] for i in block] for block in equivalence.blocks],
            "map_in_class": bisim.is_od(qmap),
            "result": _store(bundle, flags.out, quo),
        },
    )


def _cmd_cospan(bundle, flags) -> Report:
    a, b = _pair(bundle, flags)
    if flags.rel:
        rel = bundle.get(flags.rel, bisim.SimRelation)
    else:
        rel = bisim.largest_bisimulation(a, b)
    f, g = bisim.cospan_witness(a, b, rel)
    return Report(
        "cospan",
        "yes",
        {
            "target_objects": list(f.target.objects),
            "left_in_class": bisim.is_od(f),
            "right_in_class": bisim.is_od(g),
        },
    )


def _cmd_span(bundle, flags) -> Report:
    to_a, to_b = bisim.span_witness(*_pair(bundle, flags))
    return Report(
        "span",
        "yes",
        {
            "apex_objects": list(to_a.source.objects),
            "left_in_class": bisim.is_od(to_a),
            "right_in_class": bisim.is_od(to_b),
        },
    )


def _cmd_cob_apply(bundle, flags) -> Report:
    tse = bundle.get(flags.tse, cob.TwoSidedEnrichment)
    out = cob.apply_cob(tse, bundle.get(flags.a, VCategory))
    return Report("cob-apply", "valid", {"result": _store(bundle, flags.out, out)})


def _cmd_cob_radjoint(bundle, flags) -> Report:
    tse = bundle.get(flags.tse, cob.TwoSidedEnrichment)
    b = bundle.get(flags.b, VCategory)
    out = cob.right_adjoint_cob(tse, b)  # NoAdjoint unless the adjoints cohere
    details = {"coherent": True, "result": _store(bundle, flags.out, out)}
    return Report("cob-radjoint", "valid", details)


def _cmd_axioms(bundle, flags) -> Report:
    from .generators import parse_suite, run_axiom_suite  # only ``axioms`` needs them

    base = bundle.get(flags.base, Quantaloid)
    suite = parse_suite(flags.suite)
    if flags.cases < 1:
        raise ParseError(f"--cases must be at least 1, not {flags.cases}")
    outcome = run_axiom_suite(suite, base, flags.seed, flags.cases)
    failures = {name: msgs for name, msgs in outcome.items() if msgs}
    return Report(
        "axioms",
        "yes" if not failures else "no",
        {
            "base": flags.base,
            "cases_per_axiom": flags.cases,
            "seed": flags.seed,
            "passed": {name: flags.cases - len(msgs) for name, msgs in outcome.items()},
            "failures": failures,
        },
    )


def _cmd_cts_build(bundle, flags) -> Report:
    from .laws import validate_quantaloid

    cat, spec = bundle.get(flags.spec, "ctsspec")  # loaded as (category, spec)
    sieves = bundle.sieve_base(bundle.name_of(cat))
    base_report = validate_quantaloid(sieves)
    out = cts.cts_to_vcat(sieves, spec)
    return Report(
        "cts-build",
        "valid" if base_report.ok else "invalid",
        {
            "sieve_base_violations": base_report.violations,
            "result": _store(bundle, flags.out, out),
        },
    )


def _cmd_cts_refine(bundle, flags) -> Report:
    fun = bundle.get(flags.functor, cts.CatFunctor)
    cat, spec = bundle.get(flags.spec, "ctsspec")
    source_sq = bundle.sieve_base(bundle.name_of(cat))
    a = cts.cts_to_vcat(source_sq, spec)
    target_sq = bundle.sieve_base(bundle.name_of(fun.target))
    out = cts.refine(fun, a, source_sq, target_sq)
    return Report("cts-refine", "valid", {"result": _store(bundle, flags.out, out)})


_REQUIRED, _FLAG = {"required": True}, {"action": "store_true", "default": False}
_A, _B = ("--a", _REQUIRED), ("--b", _REQUIRED)
# each command's handler, help (or None) and arguments, in the order ``-h``
# lists them: the one declaration ``run``, ``parse_args`` and ``build_parser`` read
COMMANDS: dict[str, tuple[Callable[..., Report], str | None, tuple]] = {
    "validate": (_cmd_validate, "validate named objects (default: all)",
                 (("names", {"nargs": "*"}),)),
    "bisim-largest": (_cmd_bisim_largest, None,
                      (_A, _B, ("--sim", dict(_FLAG, help="one direction only")))),
    "simulates": (_cmd_simulates, None, (_A, _B)),
    "bisimilar": (_cmd_bisimilar, None, (_A, _B)),
    "bisim-check": (_cmd_bisim_check, None, (("--rel", _REQUIRED), ("--sim", _FLAG))),
    "od-check": (_cmd_od_check, None, (("--functor", _REQUIRED),)),
    "quotient": (_cmd_quotient, None,
                 (_A, ("--rel", _REQUIRED), ("--out", {"default": "quotient"}))),
    "cospan": (_cmd_cospan, None, (_A, _B, ("--rel", {"default": None}))),
    "span": (_cmd_span, None, (_A, _B)),
    "cob-apply": (_cmd_cob_apply, None,
                  (("--tse", _REQUIRED), _A, ("--out", {"default": "changed"}))),
    "cob-radjoint": (_cmd_cob_radjoint, None,
                     (("--tse", _REQUIRED), _B, ("--out", {"default": "lifted"}))),
    "axioms": (_cmd_axioms, None, (("--suite", {"default": "A1..A6"}), ("--base", _REQUIRED),
                                   ("--seed", {"type": int, "default": 7}),
                                   ("--cases", {"type": int, "default": 200}))),
    "cts-build": (_cmd_cts_build, None, (("--spec", _REQUIRED), ("--out", {"default": "built"}))),
    "cts-refine": (_cmd_cts_refine, None, (("--spec", _REQUIRED), ("--functor", _REQUIRED),
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

