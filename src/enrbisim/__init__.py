"""Simulation and bisimulation for categories enriched over finite quantaloids.

Importing the package runs no module of it.  ``bisim``, ``simulation``,
``witness``, ``checks`` (given relations), ``cts`` and ``ctsrefine`` (refinement along functors),
``cob`` and ``cobdocs`` (the spans documents name), ``jsondocs`` (JSON
documents) and ``builders`` (base and enrichment documents) are lazy:
they sit in ``sys.modules`` and on the package from the start, and the
first attribute read on one compiles and runs it, so a command that
never reaches a module does not pay for it.  The base families ``sets``,
``rel``, ``tables`` and ``language`` and the law checks ``laws`` are
imported by the first document or command that needs them.  The names below, and
the modules that define them, resolve on first use.
"""

import importlib
import importlib.util
import sys


def _lazy(*names: str) -> None:
    """Register each submodule of ``names`` without running it (the
    ``LazyLoader`` recipe of the ``importlib`` documentation)."""
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = globals()[name] = module
        spec.loader.exec_module(module)


_lazy(*"bisim witness checks cts ctsrefine cob cobdocs jsondocs builders simulation".split())


def _moved(module: str, table: dict[str, str]):
    """The PEP 562 ``__getattr__`` of ``module``: each name of ``table`` is
    read from the module it moved to, imported on first use."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f".{table[name]}", __name__), name)

    return __getattr__


_EXPORTS = {  # each name under the module that defines it
    "errors": ("EnrbisimError",), "lattice": ("Lattice",), "sets": ("PowersetLattice",),
    "tables": ("TableLattice", "TableQuantaloid", "build_metric_quantale"),
    "quantaloid": ("Quantaloid", "QuantaloidElement", "tensor"),
    "language": ("LanguageQuantale", "build_language_quantale", "import_aut"),
    "rel": ("build_rel_quantaloid",), "laws": ("validate_quantaloid",),
    "vcat": ("EnrichedGraph", "VCategory", "free_vcategory", "validate_vcategory"),
    "bisim": ("SimRelation", "bisimilar", "largest_bisimulation"),
    "simulation": ("largest_simulation", "simulates"),
    "checks": ("equivalence_closure", "is_bisimulation", "is_simulation"),
    "witness": ("BisimEquivalence", "VFunctor", "cospan_witness", "is_functional_bisimulation",
                "is_od", "pullback", "quotient", "span_witness", "validate_vfunctor"),
    "cob": ("MonotoneMap", "TwoSidedEnrichment", "apply_cob", "local_right_adjoints",
            "right_adjoint_of_monotone"),
    "cobdocs": ("monoid_congruence_tse", "right_adjoint_cob", "validate_tse"),
    "cts": ("CribleQuantaloid", "CtsSpec", "FiniteCategory", "Span", "build_S_quantaloid",
            "cts_to_vcat", "span_compose", "span_leq", "validate_fincat"),
    "ctsrefine": ("CatFunctor", "refine"), "documents": ("load_bundle",), "jsondocs": ("serialize",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its module, or one of those modules (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
