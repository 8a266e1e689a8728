"""The paper's constructions that no command reaches.

Exhaustive functor search, slice bases and the functors they encode,
the change-of-base mates, and the lax-relational presentations of
enrichments over a category's powerset base.  Every ``enrbisim`` run is
a fresh process that compiles what it imports, so these live in a
module that ``enrbisim.cli`` and the modules it loads never import.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, NamedTuple

from .cob import TwoSidedEnrichment, span_of_maps
from .cts import PowersetCatQuantaloid
from .errors import BaseMismatch, NoAdjoint, SizeLimit, ValidationError, require_valid
from .lattice import Lattice
from .quantaloid import Quantaloid
from .vcat import VCategory, require_same_base, validate_vcategory
from .witness import VFunctor, validate_vfunctor

# Most candidate object maps ``enumerate_vfunctors`` may try
MAX_CANDIDATE_MAPS = 200_000

# ---------------------------------------------------------------------------
# slice lattices


class PrincipalDownsetLattice(Lattice):
    """The elements of a base lattice lying below a fixed cap element.

    Closed under the base joins and meets, with the cap as top, so it is
    a complete lattice in its own right.
    """

    def __init__(self, base: Lattice, cap):
        base.check_element(cap)
        self.base = base
        self.cap = cap
        self._size: int | None = None

    def __repr__(self):
        return f"PrincipalDownsetLattice(cap={self.cap!r})"

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = sum(1 for _ in self.elements())
        return self._size

    def elements(self):
        return (x for x in self.base.elements() if self.base.leq(x, self.cap))

    def has_element(self, x) -> bool:
        return self.base.has_element(x) and self.base._leq(x, self.cap)

    def _leq(self, x, y) -> bool:
        return self.base._leq(x, y)

    def _join(self, xs: Iterable):
        return self.base._join(xs)

    def _meet(self, xs: Iterable):
        vals = list(xs)
        return self.base._meet(vals) if vals else self.cap

    def sample(self, rng):
        return self.base.meet([self.base.sample(rng), self.cap])


# ---------------------------------------------------------------------------
# enrichments: functor search, presentations and slices


def enumerate_vfunctors(a: VCategory, b: VCategory) -> list[VFunctor]:
    """All functors from ``a`` to ``b``, by exhaustive search."""
    require_same_base(a, b)
    candidates = [b.fiber(a.extents[i]) for i in range(a.n_objects)]
    total = 1
    for c in candidates:
        total *= len(c)
        if total > MAX_CANDIDATE_MAPS:
            raise SizeLimit(f"more than {MAX_CANDIDATE_MAPS} candidate maps")
    functors = (VFunctor(a, b, list(mapping)) for mapping in itertools.product(*candidates))
    return [f for f in functors if not validate_vfunctor(f)]


class LaxRelationalPresentation(NamedTuple):
    """Fibers over a finite category's objects, a relation per morphism.

    The relational view of an enrichment over the powerset-of-homs base:
    identities must relate each fiber element to itself, and relations
    must compose laxly.
    """

    cat: Any  # FiniteCategory
    fibers: list[list[str]]
    relations: dict[int, set[tuple[int, int]]]  # morphism -> fiber index pairs


def laxrel_to_vcat(p: LaxRelationalPresentation, base=None) -> VCategory:
    """Enrichment over the powerset base of the presentation's category:
    the hom from the ``i``-th element over ``c`` to the ``j``-th over ``d``
    holds the morphisms ``c -> d`` relating ``i`` to ``j``.  It is checked
    as every enrichment is (``validate_vcategory``), which passes exactly
    when identities relate each element to itself and the relations
    compose laxly."""
    cat = p.cat
    if len(p.fibers) != len(cat.objects):
        raise ValidationError("presentation invalid: one fiber per category object is required")
    if base is None:
        base = PowersetCatQuantaloid(cat)
    if getattr(base, "cat", None) is not cat:
        raise BaseMismatch("base was built from a different category")
    elements = [(c, i) for c, fiber in enumerate(p.fibers) for i in range(len(fiber))]
    homs = [
        {y: frozenset(m for m in cat.hom_morphisms(c, d) if (i, j) in p.relations.get(m, ()))
         for y, (d, j) in enumerate(elements)}
        for c, i in elements
    ]
    names = [name for fiber in p.fibers for name in fiber]
    a = VCategory(base, names, [c for c, _ in elements], homs)
    require_valid("presentation", validate_vcategory(a))
    return a


def vcat_to_laxrel(a: VCategory) -> LaxRelationalPresentation:
    """Inverse reading: fibers and one relation per base morphism."""
    cat = getattr(a.base, "cat", None)
    if cat is None:
        raise BaseMismatch("the base is not a powerset-of-homs quantaloid")
    fibers = [[a.objects[i] for i in a.fiber(c)] for c in range(len(cat.objects))]
    fiber_idx = [a.fiber(c) for c in range(len(cat.objects))]
    relations: dict[int, set[tuple[int, int]]] = {
        m: set() for m in range(len(cat.morphisms))
    }
    for m in range(len(cat.morphisms)):
        c, d = cat.mor_src(m), cat.mor_tgt(m)
        for i, oi in enumerate(fiber_idx[c]):
            for j, oj in enumerate(fiber_idx[d]):
                if m in a.hom(oi, oj):
                    relations[m].add((i, j))
    return LaxRelationalPresentation(cat, fibers, relations)


class SliceQuantaloid(Quantaloid):
    """Arrows bounded by a fixed enrichment's homs.

    Objects are the enrichment's objects; the lattice between two of
    them is the down-set of base arrows below the enrichment's hom.
    Composition and identities are inherited from the base.
    """

    def __init__(self, vcategory: VCategory):
        super().__init__(list(vcategory.objects))
        self.vcategory = vcategory
        self.base = vcategory.base

    def _make_hom(self, u, v):
        a = self.vcategory
        return PrincipalDownsetLattice(a.hom_lattice(u, v), a.hom(u, v))

    def compose(self, u, v, w, f, g):
        a = self.vcategory
        return self.base.compose(a.extents[u], a.extents[v], a.extents[w], f, g)

    def unit(self, u):
        return self.base.unit(self.vcategory.extents[u])


def slice_quantaloid(a: VCategory) -> SliceQuantaloid:
    return SliceQuantaloid(a)


def encode_slice(va: SliceQuantaloid, f: VFunctor) -> VCategory:
    """View a functor into the slice's enrichment as a category over it."""
    if f.target is not va.vcategory:
        raise BaseMismatch("the functor does not land in the sliced enrichment")
    x = f.source
    return VCategory(va, list(x.objects), list(f.mapping), x.row_maps)


def decode_slice(va: SliceQuantaloid, s: VCategory) -> VFunctor:
    """Inverse of ``encode_slice``: rebuild the functor into the base."""
    if s.base is not va:
        raise BaseMismatch("the category does not live over this slice")
    a = va.vcategory
    extents = [a.extents[s.extents[i]] for i in range(s.n_objects)]
    x = VCategory(a.base, list(s.objects), extents, s.row_maps)
    return VFunctor(x, a, list(s.extents))


# ---------------------------------------------------------------------------
# two-sided enrichments: mates and slice changes


def _cob_pairs(a: VCategory) -> list[tuple[int, int]]:
    """The (object, carrier) pairs that ``apply_cob`` or ``right_adjoint_cob``
    recorded on the enrichment it built."""
    try:
        return a.cob_pairs
    except AttributeError:
        raise BaseMismatch(f"{a!r} was not built by a change of base") from None


def apply_cob_vfunctor(
    f: TwoSidedEnrichment, g: VFunctor, new_source: VCategory, new_target: VCategory
) -> VFunctor:
    """Transport a functor across a change of base."""
    src_pairs = _cob_pairs(new_source)
    tgt_index = {pair: p for p, pair in enumerate(_cob_pairs(new_target))}
    return VFunctor(
        new_source, new_target, [tgt_index[(g(i), x)] for i, x in src_pairs]
    )


def transpose_to_right(
    f: TwoSidedEnrichment,
    a: VCategory,
    changed: VCategory,
    adjoint_side: VCategory,
    g: VFunctor,
) -> VFunctor:
    """Turn g : changed -> b into its mate a -> right-adjoint side."""
    if g.source is not changed:
        raise BaseMismatch("the functor does not start at the changed base")
    if not f.left_leg_bijective():
        raise NoAdjoint("mates need a bijective left leg")
    pos_in_changed = {pair[0]: p for p, pair in enumerate(_cob_pairs(changed))}
    adj_index = {pair: p for p, pair in enumerate(_cob_pairs(adjoint_side))}
    mapping = [
        adj_index[(g(pos_in_changed[i]), a.extents[i])] for i in range(a.n_objects)
    ]
    return VFunctor(a, adjoint_side, mapping)


def transpose_to_left(
    f: TwoSidedEnrichment,
    changed: VCategory,
    b: VCategory,
    adjoint_side: VCategory,
    h: VFunctor,
) -> VFunctor:
    """Turn h : a -> right-adjoint side into its mate changed -> b."""
    if h.target is not adjoint_side:
        raise BaseMismatch("the functor does not land in the adjoint side")
    adjoint_pairs = _cob_pairs(adjoint_side)
    mapping = [adjoint_pairs[h(i)][0] for i, _ in _cob_pairs(changed)]
    return VFunctor(changed, b, mapping)


def slice_change(
    f: VFunctor,
    va: SliceQuantaloid | None = None,
    vb: SliceQuantaloid | None = None,
) -> TwoSidedEnrichment:
    """The span between slice bases induced by a functor.

    Components embed arrows bounded by the source's homs into arrows
    bounded by the target's; their right adjoints meet with the source
    bound, which is coherent, so the span is a left adjoint.
    """
    a, b = f.source, f.target
    va = va or slice_quantaloid(a)
    vb = vb or slice_quantaloid(b)
    if va.vcategory is not a or vb.vcategory is not b:
        raise BaseMismatch("slice bases do not match the functor")
    return span_of_maps(
        va, vb, list(a.objects), list(range(a.n_objects)), list(f.mapping), lambda x, y: lambda v: v
    )
