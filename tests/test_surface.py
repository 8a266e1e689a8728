"""One home per name.

Every name has one defining module.  A module still answers for a name
defined elsewhere (a PEP 562 forward) only where a reader that names
the old place needs it: the benchmark's tracer and micro-benchmarks
under ``perfbench/`` and the acceptance suite.  Every other reader, in
the package, its tests and ``bench/``, imports each name from the module
that defines it.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import enrbisim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "enrbisim"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]) if m.name != "__main__")


def statement_names(node: ast.stmt) -> set[str]:
    """The names one top-level statement defines, not imports."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def defined_names(module: str) -> set[str]:
    """The names a module's own top-level statements define, not import."""
    return set().union(*map(statement_names, ast.parse((PACKAGE / f"{module}.py").read_text()).body))


DEFINED = {module: defined_names(module) for module in MODULES}


def package_reads(path: Path, package: str = "enrbisim") -> set[tuple[str, str]]:
    """The (module, name) pairs a file reads from the package: each
    ``from <package>.M import name`` and each ``M.name`` on a module bound by
    ``from <package> import M``.  In the package itself, ``package`` is ``""``
    and its relative imports count."""
    tree = ast.parse(path.read_text())
    reads, aliases = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if source == (package or "."):
            aliases.update((a.asname or a.name, a.name) for a in node.names if a.name in MODULES)
        elif source.startswith(f"{package}."):
            reads |= {(source.split(".")[-1], a.name) for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.add((aliases[node.value.id], node.attr))
    return {(m, name) for m, name in reads if m in MODULES and not name.startswith("__")}


def fixed_reads() -> set[tuple[str, str]]:
    """What the tracer wraps, the micro-benchmarks read and the acceptance suite imports."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return (set(tracer.SPAN_FUNCTIONS)
            | {(module, cls) for module, cls, _ in tracer.SPAN_METHODS}
            | {("lattice", cls) for cls in tracer.LATTICE_CLASSES}
            | package_reads(ROOT / "perfbench" / "micro.py")
            | package_reads(ROOT / "tests" / "test_acceptance.py"))


def test_forwards_are_exactly_what_fixed_readers_need():
    modules = {name: importlib.import_module(f"enrbisim.{name}") for name in MODULES}
    public = {(home, name) for home in MODULES for name in DEFINED[home] if not name.startswith("_")}
    forwarded = {
        (m, name) for m, module in modules.items() for home, name in public
        if home != m and name not in vars(module) and hasattr(module, name)
    }
    needed = {(m, name) for m, name in fixed_reads() if name not in vars(modules[m])}
    assert forwarded == needed, (sorted(forwarded - needed), sorted(needed - forwarded))


def test_modules_without_forwards_have_no_getattr():
    for module in ("sets", "jsondocs"):
        assert "__getattr__" not in vars(importlib.import_module(f"enrbisim.{module}")), module


def test_every_reader_imports_from_the_defining_module():
    files = [(path, "") for path in PACKAGE.glob("*.py")] + [
        (path, "enrbisim") for path in [*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
        if path.name != "test_acceptance.py"
    ]
    wrong = [
        f"{path.relative_to(ROOT)}: {module}.{name}"
        for path, package in files for module, name in sorted(package_reads(path, package))
        if name not in DEFINED[module] and name not in MODULES
    ]
    assert wrong == []


def test_every_export_is_one_import_of_its_defining_module():
    for name in enrbisim.__all__:
        home = enrbisim._MODULE_OF[name]
        assert name in DEFINED[home], (name, home)
        assert getattr(enrbisim, name) is vars(importlib.import_module(f"enrbisim.{home}"))[name]


# the lax-relational presentations, kept as the test of the claim that
# enrichments over a category's powerset base are exactly its lax-relational
# presentations (tests/test_vcat.py)
LAXREL = {"LaxRelationalPresentation", "laxrel_to_vcat", "vcat_to_laxrel"}


def test_constructions_define_only_what_the_acceptance_suite_and_laxrel_reach():
    """A definition in ``constructions`` (which no command runs) stays only
    if the acceptance suite imports it, it is a lax-relational name, or one
    of those refers to it."""
    refers = {}
    for node in ast.parse((PACKAGE / "constructions.py").read_text()).body:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        refers.update(dict.fromkeys(statement_names(node), names))
    imported = {name for m, name in package_reads(ROOT / "tests" / "test_acceptance.py")
                if m == "constructions"}
    reached, todo = set(), imported | LAXREL
    while todo:
        name = todo.pop()
        if name in refers and name not in reached:
            reached.add(name)
            todo |= refers[name]
    assert DEFINED["constructions"] == reached, sorted(DEFINED["constructions"] ^ reached)
