"""What an ``enrbisim`` request loads, and which of it runs.

Every ``enrbisim`` run is a fresh process, so what ``import enrbisim.cli``
loads is paid on every request, and so is compiling each module whose
code runs when no bytecode cache is written.  The modules in KEPT_OFF
stay off that path.  The eight package modules the benchmark's tracer
wraps (TRACED) are all in ``sys.modules`` after the import, but three of
them, and the simulation, witness, relation-check, refinement,
span-document, JSON-document and document-builder modules (LAZY), are
registered unrun:
a module of those runs only when a command first reads one of its names,
so a request runs only the ones it reaches.  The modules of the set,
relation, table and language base families, of the generic free closure
and of the law checks (FAMILIES) are not even imported until a document
or command needs them.  ``json`` is imported
only by a request that reads a JSON document (JSON_FREE are the runs
that read automata alone).  The tracer finds each function it wraps under the name it
gives, wherever the function moved.  The ``exec`` audit event, raised each time a
module's code runs, from source or from a bytecode cache, tells which
ran.  A well-formed request reads its argv without ``argparse``, which
only help and usage errors load.  The process entry turns the cyclic
collector off, since a request leaves next to no cyclic garbage.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

KEPT_OFF = {
    "argparse",
    "gettext",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
    "fractions",
    "decimal",
    "json",
    "enrbisim.generators",
    "enrbisim.fixtures",
    "enrbisim.constructions",
    "enrbisim.sets",
    "enrbisim.rel",
    "enrbisim.closure",
    "enrbisim.tables",
    "enrbisim.language",
    "enrbisim.laws",
}
TRACED = {
    f"enrbisim.{name}"
    for name in ("cli", "documents", "vcat", "bisim", "quantaloid", "cts", "cob", "lattice")
}


LAZY = {
    "enrbisim.bisim", "enrbisim.simulation", "enrbisim.witness", "enrbisim.checks", "enrbisim.cts",
    "enrbisim.ctsrefine", "enrbisim.cob", "enrbisim.cobdocs", "enrbisim.jsondocs", "enrbisim.builders",
}
FAMILIES = {
    "enrbisim.sets", "enrbisim.rel", "enrbisim.closure", "enrbisim.tables", "enrbisim.language",
    "enrbisim.laws",
}
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
DATA = SRC / "enrbisim" / "data"
GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"
# what ``from enrbisim import ...`` offers, by the module that defines it
EXPORTS = {
    "errors": ["EnrbisimError"],
    "lattice": ["Lattice", "MonotoneMap", "PowersetLattice", "TableLattice",
                "right_adjoint_of_monotone"],
    "quantaloid": ["LanguageQuantale", "Quantaloid", "QuantaloidElement", "TableQuantaloid",
                   "build_language_quantale", "build_metric_quantale", "build_rel_quantaloid",
                   "tensor", "validate_quantaloid"],
    "vcat": ["EnrichedGraph", "VCategory", "VFunctor", "free_vcategory", "pullback",
             "validate_vcategory", "validate_vfunctor"],
    "bisim": ["BisimEquivalence", "SimRelation", "bisimilar", "cospan_witness",
              "equivalence_closure", "is_bisimulation", "is_functional_bisimulation", "is_od",
              "is_simulation", "largest_bisimulation", "largest_simulation", "quotient",
              "simulates", "span_witness"],
    "cob": ["TwoSidedEnrichment", "apply_cob", "local_right_adjoints", "monoid_congruence_tse",
            "right_adjoint_cob", "validate_tse"],
    "cts": ["CatFunctor", "CribleQuantaloid", "CtsSpec", "FiniteCategory", "Span",
            "build_S_quantaloid", "cts_to_vcat", "refine", "span_compose", "span_leq",
            "validate_fincat"],
    "documents": ["import_aut", "load_bundle", "serialize"],
}


def child_output(code: str) -> str:
    """What a fresh interpreter running ``code`` prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``statement``."""
    return set(child_output(f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))").split())


def executed_during(statement: str) -> set[str]:
    """The package modules whose code a fresh interpreter runs in ``statement``."""
    code = (
        "import sys\n"
        "ran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec' and ran.append(args[0]))\n"
        f"{statement}\n"
        "print()\n"
        "print(*(getattr(c, 'co_filename', '') for c in ran), sep='\\n')\n"
    )
    files = child_output(code).split("\n\n")[-1].split("\n")
    package = (SRC / "enrbisim").resolve()
    return {f"enrbisim.{Path(f).stem}" for f in files if f and Path(f).resolve().parent == package}


def test_cli_import_set():
    added = modules_after("import enrbisim.cli") - modules_after("pass")
    assert not added & KEPT_OFF, sorted(added & KEPT_OFF)
    assert TRACED <= added, sorted(TRACED - added)


def test_cli_import_runs_no_lazy_module():
    ran = executed_during("import enrbisim.cli")
    assert {"enrbisim.cli", "enrbisim.documents"} <= ran  # the hook sees module code run
    assert not ran & LAZY, sorted(ran & LAZY)


def aut_files(tmp_path) -> list[str]:
    """Two bisimilar automata over {a, b} in Aldebaran files A and B."""
    (tmp_path / "A.aut").write_text('des (0, 2, 2)\n(0, "a", 1)\n(1, "b", 0)\n')
    (tmp_path / "B.aut").write_text('des (0, 2, 2)\n(0, "a", 1)\n(1, "b", 0)\n')
    return ["--paths", str(tmp_path / "A.aut"), "--paths", str(tmp_path / "B.aut"),
            "--aut-alphabet", "a,b", "--aut-k", "2"]


def paths(*files) -> list[str]:
    return [arg for file in files for arg in ("--paths", str(file))]


# each run: its arguments (after the files), its exit code, the lazy and
# family modules it runs.  No automaton run reaches the relation bases; a
# table request runs the document builders and their law check; a
# cts-build runs neither the functor module nor cob, and a cts-refine
# runs cob but neither its span documents nor the document builders
RUNS = {
    "automaton bisimilar": (aut_files, ["bisimilar", "--a", "A", "--b", "B"], 0,
                            {"enrbisim.bisim", "enrbisim.language", "enrbisim.sets"}),
    "automaton span": (aut_files, ["span", "--a", "A", "--b", "B"], 0,
                       {"enrbisim.bisim", "enrbisim.witness", "enrbisim.language", "enrbisim.sets"}),
    "automaton simulates": (aut_files, ["simulates", "--a", "A", "--b", "B"], 0,
                            {"enrbisim.bisim", "enrbisim.simulation", "enrbisim.language",
                             "enrbisim.sets"}),
    "table simulates": (lambda _: paths(DATA / "Q2.json", DATA / "P01.json", DATA / "POINT.json"),
                        ["simulates", "--a", "P01", "--b", "POINT"], 0,
                        {"enrbisim.bisim", "enrbisim.simulation", "enrbisim.tables",
                         "enrbisim.jsondocs", "enrbisim.builders"}),
    "validate": (lambda _: paths(DATA / "Q2.json"), ["validate"], 0,
                 {"enrbisim.tables", "enrbisim.laws", "enrbisim.jsondocs", "enrbisim.builders"}),
    "cts-build": (lambda _: paths(DATA / "P2.json", GOLDEN_DOCS / "SPEC.json"),
                  ["cts-build", "--spec", "SPEC"], 0,
                  {"enrbisim.cts", "enrbisim.laws", "enrbisim.sets", "enrbisim.closure",
                   "enrbisim.jsondocs"}),
    "cts-refine": (lambda _: paths(DATA / "P2.json", *(GOLDEN_DOCS / f"{name}.json"
                                                      for name in ("SPEC", "T3", "INC"))),
                   ["cts-refine", "--spec", "SPEC", "--functor", "INC"], 0,
                   {"enrbisim.cts", "enrbisim.ctsrefine", "enrbisim.cob", "enrbisim.sets",
                    "enrbisim.closure", "enrbisim.jsondocs"}),
    # the shipped fixtures hold a fincat document, which cts reads, and
    # table and language bases
    "default-path bisimilar": (lambda _: [], ["bisimilar", "--a", "AUT1", "--b", "LOOP1"], 1,
                               {"enrbisim.bisim", "enrbisim.cts", "enrbisim.tables",
                                "enrbisim.language", "enrbisim.sets", "enrbisim.rel",
                                "enrbisim.jsondocs", "enrbisim.builders"}),
}
JSON_FREE = {"automaton bisimilar", "automaton span", "automaton simulates"}


@pytest.mark.parametrize("run", RUNS)
def test_request_runs_only_the_lazy_modules_it_reaches(tmp_path, run):
    files, command, code, reached = RUNS[run]
    argv = files(tmp_path) + command
    ran = executed_during(
        f"from enrbisim.cli import main\nassert main({argv!r}) == {code}, 'exit code'"
    )
    assert ran & (LAZY | FAMILIES) == reached


@pytest.mark.parametrize("run", RUNS)
def test_only_json_documents_import_json(tmp_path, run):
    files, command, code, _ = RUNS[run]
    argv = files(tmp_path) + command
    imported = child_output(
        "import contextlib, io, sys\n"
        "from enrbisim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}, 'exit code'\n"
        "print('json' in sys.modules)\n"
    )
    assert imported.split() == [str(run not in JSON_FREE)]


def imported_by(*args: str) -> tuple[int, set[str]]:
    """The exit code of ``python -X importtime ARGS`` and the modules it imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         capture_output=True, text=True)
    return run.returncode, {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, code, parser", [
    (["bisimilar", "--a", "AUT1", "--b", "LOOP1"], 1, False),
    (["--format=text", "bisim-largest", "--sim", "--a", "AUT1", "--b=LOOP1"], 0, False),
    (["bisimilar", "--a", "AUT1"], 2, True),  # a usage error is the full parser's
])
def test_well_formed_request_imports_no_argparse(argv, code, parser):
    _, at_start = imported_by("-c", "pass")
    exit_code, imported = imported_by("-m", "enrbisim", *argv)
    assert exit_code == code
    assert "enrbisim.cli" in imported  # the request's own imports are listed
    assert bool({"argparse", "gettext", "locale"} & (imported - at_start)) == parser


def test_serializing_a_table_base_runs_no_lazy_module():
    ran = executed_during(
        "from enrbisim.documents import load_bundle, serialize\n"
        f"bundle = load_bundle([{str(DATA / 'Q2.json')!r}])\n"
        "assert serialize(bundle, 'Q2')['name'] == 'Q2'"
    )
    # the JSON reader and writer, and the base's builder
    assert ran & LAZY == {"enrbisim.jsondocs", "enrbisim.builders"}


def test_every_export_resolves_to_its_module():
    # in a fresh interpreter, so that a lazy module is loaded by the export read
    code = (
        "import importlib, json, sys\n"
        "from enrbisim import *\n"
        f"exports = {EXPORTS!r}\n"
        "wrong = [name for module, names in exports.items() for name in names\n"
        "         if globals().get(name) is not getattr(\n"
        "             importlib.import_module('enrbisim.' + module), name)]\n"
        "print(json.dumps(wrong))\n"
    )
    assert json.loads(child_output(code)) == []


def test_exporting_modules_are_package_attributes():
    # `import enrbisim; enrbisim.documents.load_bundle(...)` works without importing the module
    code = (
        "import json, sys\n"
        "import enrbisim\n"
        f"modules = {sorted(EXPORTS)!r}\n"
        "wrong = [m for m in modules if getattr(enrbisim, m) is not sys.modules['enrbisim.' + m]]\n"
        "print(json.dumps(wrong))\n"
    )
    assert json.loads(child_output(code)) == []


def traced_spans(argv: list[str], code: int) -> set[str]:
    """The names of the spans the benchmark's tracer records in a fresh
    interpreter running ``argv``."""
    program = (
        "import contextlib, importlib.util, io, sys\n"
        "sys.dont_write_bytecode = True\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "recorder = tracer.Recorder('run')\n"
        "main = tracer.install(recorder, counts=False)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}, 'exit code'\n"
        "print(*sorted({span[0] for span in recorder.spans}), sep='\\n')\n"
    )
    return set(child_output(program).split())


def test_tracer_finds_every_name_it_wraps(tmp_path):
    # the benchmark's tracer wraps the witnesses under the names bisim.* and
    # vcat.pullback; a name bound nowhere stops every traced run
    spans = traced_spans(aut_files(tmp_path) + ["span", "--a", "A", "--b", "B"], 0)
    witnesses = {"bisim.span_witness", "bisim.cospan_witness", "bisim.quotient", "bisim.is_od",
                 "vcat.pullback"}
    assert witnesses <= spans, sorted(witnesses - spans)


def test_tracer_times_the_sieve_layers_where_they_moved():
    # the sieve workload's spans, under the names the tracer gives them:
    # refinement, its change of base and adjoints, the sieve base's law
    # check and the report's enrichment document
    build, refine = (RUNS[run][0](None) + RUNS[run][1] for run in ("cts-build", "cts-refine"))
    spans = traced_spans(build, 0) | traced_spans(refine, 0)
    sieve = {"cts.refine", "cob.apply_cob", "cob.local_right_adjoints",
             "quantaloid.validate_quantaloid", "documents.vcategory_to_doc"}
    assert sieve <= spans, sorted(sieve - spans)


def ring_spec(tmp_path, n: int) -> Path:
    """A span specification over P2: n vertices typed 0 and 1 in turn,
    each with edges to the next vertex and the third after it."""
    types = [i % 2 for i in range(n)]
    edges = []
    for s in range(n):
        for t in ((s + 1) % n, (s + 3) % n):
            m = min(types[s], types[t])
            edges.append({"src": f"v{s}", "tgt": f"v{t}",
                          "span": {"apex": str(m), "left": f"{m}<={types[s]}",
                                   "right": f"{m}<={types[t]}"}})
    path = tmp_path / f"SPEC{n}" / "SPEC.json"
    path.parent.mkdir()
    path.write_text(json.dumps({
        "schema": "enrbisim/1", "name": "SPEC", "kind": "ctsspec", "category": "P2",
        "vertices": [{"name": f"v{i}", "type": str(t)} for i, t in enumerate(types)],
        "edges": edges,
    }))
    return path


def entry_garbage(argv: list[str]) -> tuple[int, bool, int]:
    """The exit code of ``entry`` in a fresh interpreter running ``argv``,
    whether the cyclic collector is on after it, and what a full
    ``gc.collect()`` then finds unreachable."""
    out = child_output(
        "import contextlib, gc, io, sys\n"
        "from enrbisim.__main__ import entry\n"
        f"sys.argv = ['enrbisim', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = entry()\n"
        "print(code, gc.isenabled(), gc.collect())\n"
    ).split()
    return int(out[0]), out[1] == "True", int(out[2])


def test_entry_runs_without_the_cyclic_collector(tmp_path):
    # an automaton span and a table simulates leave no cyclic garbage
    files, command, _, _ = RUNS["table simulates"]
    for argv in (aut_files(tmp_path) + ["span", "--a", "A", "--b", "B"], files(tmp_path) + command):
        assert entry_garbage(argv) == (0, False, 0), argv
    # a cts-build leaves only its bases' closures, as many at 24 vertices as at 8
    small, large = (entry_garbage(paths(DATA / "P2.json", ring_spec(tmp_path, n))
                                  + ["cts-build", "--spec", "SPEC"]) for n in (8, 24))
    assert small[:2] == (0, False) and small == large
