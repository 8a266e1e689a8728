"""Simulation and bisimulation for categories enriched over finite quantaloids."""

from .errors import EnrbisimError
from .lattice import (
    Lattice,
    MonotoneMap,
    PowersetLattice,
    TableLattice,
    right_adjoint_of_monotone,
)
from .quantaloid import (
    LanguageQuantale,
    Quantaloid,
    QuantaloidElement,
    TableQuantaloid,
    build_language_quantale,
    build_metric_quantale,
    build_rel_quantaloid,
    tensor,
    validate_quantaloid,
)
from .vcat import (
    EnrichedGraph,
    VCategory,
    VFunctor,
    free_vcategory,
    pullback,
    validate_vcategory,
    validate_vfunctor,
)
from .bisim import (
    BisimEquivalence,
    SimRelation,
    bisimilar,
    cospan_witness,
    equivalence_closure,
    is_bisimulation,
    is_functional_bisimulation,
    is_od,
    is_simulation,
    largest_bisimulation,
    largest_simulation,
    quotient,
    simulates,
    span_witness,
)
from .cob import (
    TwoSidedEnrichment,
    apply_cob,
    local_right_adjoints,
    monoid_congruence_tse,
    right_adjoint_cob,
    validate_tse,
)
from .cts import (
    CatFunctor,
    CribleQuantaloid,
    CtsSpec,
    FiniteCategory,
    Span,
    build_S_quantaloid,
    cts_to_vcat,
    refine,
    span_compose,
    span_leq,
    validate_fincat,
)
from .documents import import_aut, load_bundle, serialize

__version__ = "0.1.0"
