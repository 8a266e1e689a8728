"""Command-line surface: document loading, checks and reports.

One command per invocation; exit code 0 means yes/valid, 1 means
no/invalid, 2 means an error.  Reports are emitted as JSON (the default,
byte-stable for a fixed seed unless timing is requested) or as plain
text.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

from . import bisim, documents
from .cob import TwoSidedEnrichment, apply_cob, local_right_adjoints, right_adjoint_cob
from .cts import CatFunctor, cts_to_vcat, refine, validate_fincat
from .errors import EnrbisimError, ParseError
from .lattice import DEFAULT_ENUM_CAP
from .quantaloid import Quantaloid, validate_quantaloid
from .vcat import VCategory, VFunctor, validate_vcategory, validate_vfunctor

FIXTURE_ENV = "ENRBISIM_FIXTURES"


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
    import os

    root = os.environ.get(FIXTURE_ENV)
    if root:
        return [root]
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


def run(command: str, bundle: documents.Bundle, flags: argparse.Namespace) -> Report:
    """Dispatch one command against a loaded bundle."""
    try:
        return _dispatch(command, bundle, flags)
    except EnrbisimError as err:
        return Report(command, "error", {"error": f"{type(err).__name__}: {err}"})


def _dispatch(command, bundle, flags) -> Report:
    if command == "validate":
        return _cmd_validate(bundle, flags)
    if command in ("bisim-largest", "bisim-check", "simulates", "bisimilar"):
        return _cmd_relations(command, bundle, flags)
    if command == "od-check":
        f = bundle.get(flags.functor, VFunctor)
        ok = bisim.is_od(f)
        return Report(command, "yes" if ok else "no", {"functor": flags.functor})
    if command == "quotient":
        return _cmd_quotient(bundle, flags)
    if command == "cospan":
        return _cmd_cospan(bundle, flags)
    if command == "span":
        return _cmd_span(bundle, flags)
    if command == "cob-apply":
        tse = bundle.get(flags.tse, TwoSidedEnrichment)
        out = apply_cob(tse, bundle.get(flags.a, VCategory))
        return Report(command, "valid", {"result": _store(bundle, flags.out, out)})
    if command == "cob-radjoint":
        tse = bundle.get(flags.tse, TwoSidedEnrichment)
        b = bundle.get(flags.b, VCategory)
        report = local_right_adjoints(tse, enum_cap=flags.enum_cap)
        out = right_adjoint_cob(tse, b, report)
        details = {"coherent": report.coherent, "result": _store(bundle, flags.out, out)}
        return Report(command, "valid", details)
    if command == "axioms":
        return _cmd_axioms(bundle, flags)
    if command == "cts-build":
        return _cmd_cts_build(bundle, flags)
    if command == "cts-refine":
        return _cmd_cts_refine(bundle, flags)
    raise EnrbisimError(f"unknown command {command!r}")


def _store(bundle: documents.Bundle, name: str, out: VCategory) -> dict:
    """Keep a command's result in the bundle under ``name``; return its document."""
    bundle.objects[name] = out
    bundle.kinds[name] = "vcategory"
    return documents.vcategory_to_doc(bundle, name, out)


def _cmd_validate(bundle, flags) -> Report:
    names = flags.names or bundle.names()
    problems: dict[str, list[str]] = {}
    for name in names:
        obj = bundle.get(name)
        kind = bundle.kinds[name]
        if kind == "quantaloid":
            report = validate_quantaloid(obj, enum_cap=flags.enum_cap)
            found = list(report.violations)
        elif kind == "vcategory":
            found = validate_vcategory(obj)
        elif kind == "vfunctor":
            found = validate_vfunctor(obj)
        elif kind == "fincat":
            found = validate_fincat(obj)
        else:
            # relations: construction already enforces the extent invariant
            found = []
        if found:
            problems[name] = found
    verdict = "valid" if not problems else "invalid"
    return Report("validate", verdict, {"checked": names, "violations": problems})


def _cmd_relations(command, bundle, flags) -> Report:
    if command == "bisim-check":
        rel = bundle.get(flags.rel, bisim.SimRelation)
        check = (
            bisim.is_simulation(rel) if flags.sim else bisim.is_bisimulation(rel)
        )
        return Report(command, "yes" if check.ok else "no", _counterexample(check))
    a = bundle.get(flags.a, VCategory)
    b = bundle.get(flags.b, VCategory)
    if command == "bisim-largest":
        rel = (
            bisim.largest_simulation(a, b)
            if flags.sim
            else bisim.largest_bisimulation(a, b)
        )
        return Report(command, "valid", _relation_details(rel))
    if command == "simulates":
        rel = bisim.largest_simulation(a, b)
        verdict = "yes" if rel.total_on_left() else "no"
        return Report(command, verdict, _relation_details(rel))
    rel = bisim.largest_bisimulation(a, b)
    ok = rel.total_on_left() and rel.total_on_right()
    return Report(command, "yes" if ok else "no", _relation_details(rel))


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
    a = bundle.get(flags.a, VCategory)
    b = bundle.get(flags.b, VCategory)
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
    a = bundle.get(flags.a, VCategory)
    b = bundle.get(flags.b, VCategory)
    to_a, to_b = bisim.span_witness(a, b)
    return Report(
        "span",
        "yes",
        {
            "apex_objects": list(to_a.source.objects),
            "left_in_class": bisim.is_od(to_a),
            "right_in_class": bisim.is_od(to_b),
        },
    )


def _parse_suite(spec: str) -> list[str]:
    from .generators import AXIOMS  # only ``axioms`` needs the generators

    names = sorted(AXIOMS)
    ends = [part.strip() for part in spec.split("..")]
    if len(ends) == 2 and set(ends) <= set(names):
        suite = names[names.index(ends[0]) : names.index(ends[1]) + 1]
    else:
        suite = [part.strip() for part in spec.split(",") if part.strip()]
    if not suite or len(ends) > 2 or not set(suite) <= set(names):
        raise ParseError(f"bad axiom suite {spec!r}; axioms are {', '.join(names)}")
    return suite


def _cmd_axioms(bundle, flags) -> Report:
    from .generators import run_axiom_suite

    base = bundle.get(flags.base, Quantaloid)
    suite = _parse_suite(flags.suite)
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
    cat, spec = bundle.get(flags.spec, "ctsspec")  # loaded as (category, spec)
    cat_name = bundle.name_of(cat)
    sieves = bundle.sieve_base(cat_name)
    base_report = validate_quantaloid(sieves)
    out = cts_to_vcat(sieves, spec)
    sieve_name = f"S({cat_name})"
    bundle.objects.setdefault(sieve_name, sieves)
    bundle.kinds.setdefault(sieve_name, "quantaloid")
    return Report(
        "cts-build",
        "valid" if base_report.ok else "invalid",
        {
            "sieve_base_violations": base_report.violations,
            "result": _store(bundle, flags.out, out),
        },
    )


def _cmd_cts_refine(bundle, flags) -> Report:
    fun = bundle.get(flags.functor, CatFunctor)
    cat, spec = bundle.get(flags.spec, "ctsspec")
    source_sq = bundle.sieve_base(bundle.name_of(cat))
    a = cts_to_vcat(source_sq, spec)
    target_name = bundle.name_of(fun.target)
    target_sq = bundle.sieve_base(target_name)
    out = refine(fun, a, source_sq, target_sq)
    sieve_name = f"S({target_name})"
    bundle.objects.setdefault(sieve_name, target_sq)
    bundle.kinds.setdefault(sieve_name, "quantaloid")
    return Report("cts-refine", "valid", {"result": _store(bundle, flags.out, out)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enrbisim",
        description="Simulation and bisimulation checks for enrichments "
        "over finite quantaloids.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--format", choices=["json", "text"], default="json", help="report format"
    )
    parser.add_argument(
        "--timing", action="store_true", help="include timing in JSON reports"
    )
    parser.add_argument(
        "--paths",
        action="append",
        default=None,
        metavar="PATH",
        help="a document file or directory; repeatable "
        "(defaults to the shipped fixtures)",
    )
    parser.add_argument("--aut-alphabet", default=None, help="comma-separated labels")
    parser.add_argument("--aut-k", type=int, default=None, help="word length cutoff")
    parser.add_argument(
        "--enum-cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help="largest hom lattice that exhaustive checks will enumerate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate named objects (default: all)")
    p.add_argument("names", nargs="*")

    for name in ("bisim-largest", "simulates", "bisimilar"):
        p = sub.add_parser(name)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        if name == "bisim-largest":
            p.add_argument("--sim", action="store_true", help="one direction only")

    p = sub.add_parser("bisim-check")
    p.add_argument("--rel", required=True)
    p.add_argument("--sim", action="store_true")

    p = sub.add_parser("od-check")
    p.add_argument("--functor", required=True)

    p = sub.add_parser("quotient")
    p.add_argument("--a", required=True)
    p.add_argument("--rel", required=True)
    p.add_argument("--out", default="quotient")

    p = sub.add_parser("cospan")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rel", default=None)

    p = sub.add_parser("span")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("cob-apply")
    p.add_argument("--tse", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--out", default="changed")

    p = sub.add_parser("cob-radjoint")
    p.add_argument("--tse", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default="lifted")

    p = sub.add_parser("axioms")
    p.add_argument("--suite", default="A1..A6")
    p.add_argument("--base", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=200)

    p = sub.add_parser("cts-build")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="built")

    p = sub.add_parser("cts-refine")
    p.add_argument("--spec", required=True)
    p.add_argument("--functor", required=True)
    p.add_argument("--out", default="refined")

    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
