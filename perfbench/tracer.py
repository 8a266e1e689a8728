"""Traced run of one enrbisim command, with spans recorded from outside.

Usage: python perfbench/tracer.py SPANS_OUT REQUEST_ID {spans,counts} -- ENRBISIM_ARGS...

Wraps the public functions of each enrbisim module in every module
namespace that binds them (``documents.validate_vcategory`` and
``cli.validate_vcategory`` are one function bound twice), runs
``enrbisim.cli.main`` and writes the spans to SPANS_OUT as JSON when the
command ends.  Spans stay in memory until then, so the file write is not
timed.  In ``counts`` mode it also counts every call into the lattice
and quantaloid methods; those wrappers run millions of times and would
inflate the span times, so the two are recorded in separate runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of every function timed as a span
SPAN_FUNCTIONS = [
    ("cli", "main"),
    ("documents", "load_bundle"),
    ("documents", "vcategory_to_doc"),
    ("vcat", "validate_vcategory"),
    ("vcat", "free_vcategory"),
    ("vcat", "pullback"),
    ("bisim", "largest_bisimulation"),
    ("bisim", "largest_simulation"),
    ("bisim", "cospan_witness"),
    ("bisim", "span_witness"),
    ("bisim", "quotient"),
    ("bisim", "is_od"),
    ("quantaloid", "validate_quantaloid"),
    ("cts", "cts_to_vcat"),
    ("cts", "refine"),
    ("cob", "apply_cob"),
    ("cob", "local_right_adjoints"),
]
# (module, class, method) of every method timed as a span
SPAN_METHODS = [
    ("cli", "Report", "to_json"),
    ("quantaloid", "LanguageQuantale", "path_homs"),
]
LATTICE_CLASSES = ["PowersetLattice", "TableLattice", "DownsetLattice"]
LATTICE_METHODS = ["join", "leq", "meet", "check_element"]
REFINERS = {"largest_bisimulation", "largest_simulation"}


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index], plus call counters."""

    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}
        # refinement work read off each result's public trace
        self.refine = {"rounds": 0, "pair_checks": 0, "removed": 0}

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        after = self._refinement_work if name.rsplit(".", 1)[-1] in REFINERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _refinement_work(self, rel) -> None:
        """Rounds, pairs examined and pairs removed by one refinement.

        Round r examines every pair still alive when it starts; the last
        round removes nothing and ends the loop.
        """
        left, right = rel.left, rel.right
        alive = sum(
            1 for a in left.extents for b in right.extents if a == b
        )
        removed_in: dict[int, int] = {}
        for round_no, _, _ in rel.refinement_trace:
            removed_in[round_no] = removed_in.get(round_no, 0) + 1
        rounds = max(removed_in, default=0) + 1
        for r in range(1, rounds + 1):
            self.refine["pair_checks"] += alive
            alive -= removed_in.get(r, 0)
        self.refine["rounds"] += rounds
        self.refine["removed"] += len(rel.refinement_trace)

    def dump(self) -> dict:
        return {
            "request": self.request_id,
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counters.items()},
            "refine": self.refine,
        }


def _rebind(original, replacement) -> int:
    """Replace ``original`` in every enrbisim module namespace binding it."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("enrbisim") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(rec: Recorder, counts: bool):
    """Wrap every traced function and method; return the wrapped ``main``."""
    import enrbisim.cli  # noqa: F401  (imports every module the CLI reaches)

    modules = {name: sys.modules[f"enrbisim.{name}"] for name in (
        "cli", "documents", "vcat", "bisim", "quantaloid", "cts", "cob", "lattice"
    )}
    for mod, attr in SPAN_FUNCTIONS:
        original = getattr(modules[mod], attr)
        if not _rebind(original, rec.span(f"{mod}.{attr}", original)):
            raise RuntimeError(f"{mod}.{attr} is bound nowhere")
    for mod, cls_name, meth in SPAN_METHODS:
        cls = getattr(modules[mod], cls_name)
        setattr(cls, meth, rec.span(f"{mod}.{cls_name}.{meth}", getattr(cls, meth)))
    if not counts:
        return modules["cli"].main
    for cls_name in LATTICE_CLASSES:
        cls = getattr(modules["lattice"], cls_name)
        for meth in LATTICE_METHODS:
            name = f"lattice.{cls_name}.{meth}"
            setattr(cls, meth, rec.counter(name, getattr(cls, meth)))
    base = modules["quantaloid"].Quantaloid
    base.hom = rec.counter("quantaloid.hom", base.hom)
    pending, seen = [base], set()
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in seen and "compose" in vars(cls):
            seen.add(cls)
            setattr(cls, "compose", rec.counter("quantaloid.compose", vars(cls)["compose"]))
    return modules["cli"].main


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] not in ("spans", "counts") or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, request_id, mode, program_args = argv[0], argv[1], argv[2], argv[4:]
    rec = Recorder(request_id)
    traced_main = install(rec, counts=mode == "counts")
    try:
        return traced_main(program_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump(rec.dump(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
