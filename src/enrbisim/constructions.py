"""The paper's constructions that no command reaches.

Terminal enrichments and coproducts, exhaustive functor search,
lax-relational presentations, slice bases, residuals, Caten 2-cells,
change-of-base mates, two-sided enrichments built from enrichments,
congruences, functors and slices, and the sieve left adjoints of an
adjunction.  Every ``enrbisim`` run is a fresh process that compiles
what it imports, so these live in a module that ``enrbisim.cli`` and
the modules it loads never import.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, NamedTuple

from .cob import TwoSidedEnrichment, composition_square
from .cts import CatFunctor, CribleQuantaloid, PowersetCatQuantaloid, Span
from .errors import (
    BaseMismatch,
    InternalAssertion,
    NoAdjoint,
    NotACongruence,
    NotComposable,
    NotExact,
    NotParallel,
    SizeLimit,
    ValidationError,
)
from .lattice import DEFAULT_ENUM_CAP, Lattice, MonotoneMap, PowersetLattice, TableLattice
from .quantaloid import Quantaloid, QuantaloidElement, TableQuantaloid
from .vcat import VCategory, VFunctor, require_same_base

# ---------------------------------------------------------------------------
# lattices and quantaloids


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

    def is_distributive(self) -> bool:
        xs = list(self.elements())
        for x in xs:
            for y in xs:
                for z in xs:
                    if self.meet([x, self.join([y, z])]) != self.join(
                        [self.meet([x, y]), self.meet([x, z])]
                    ):
                        return False
        return True

    def sample(self, rng):
        return self.base.meet([self.base.sample(rng), self.cap])


def verify_adjunction(left: MonotoneMap, right: MonotoneMap) -> bool:
    """Check ``left(v) <= w  iff  v <= right(w)`` for every pair."""
    if left.source is not right.target or left.target is not right.source:
        return False
    return all(
        left.target.leq(left(v), w) == left.source.leq(v, right(w))
        for v in left.source.elements()
        for w in left.target.elements()
    )


def residual(
    q: Quantaloid,
    side: str,
    f: QuantaloidElement,
    h: QuantaloidElement,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> QuantaloidElement:
    """Largest ``g`` with ``f . g <= h`` (right) or ``g . f <= h`` (left).

    These exist because composition preserves joins in each argument;
    the defining inequality is asserted on the result.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "right":
        if f.source != h.source:
            raise NotComposable("right residual needs f and h out of one object")
        u, v, w = f.source, f.target, h.target
        free = (v, w)

        def comp(g):
            return q.compose(u, v, w, f.value, g)

    else:
        if f.target != h.target:
            raise NotComposable("left residual needs f and h into one object")
        u, v, w = h.source, f.source, f.target
        free = (u, v)

        def comp(g):
            return q.compose(u, v, w, g, f.value)

    q.hom(f.source, f.target).check_element(f.value)
    hom, out_hom = q.hom(*free), q.hom(u, w)
    if isinstance(hom, PowersetLattice):
        value = frozenset(
            y for y in hom.universe if out_hom.leq(comp(frozenset({y})), h.value)
        )
    else:
        hom.ensure_enumerable(enum_cap)
        value = hom.join(g for g in hom.elements() if out_hom.leq(comp(g), h.value))
    if not out_hom.leq(comp(value), h.value):
        raise InternalAssertion(f"{side} residual violates its defining inequality")
    return QuantaloidElement(*free, value)


def build_powerset_quantaloid(cat, max_morphisms: int = 12) -> Quantaloid:
    """Powersets of the hom-sets of a finite category, composed pointwise."""
    for c in range(len(cat.objects)):
        for d in range(len(cat.objects)):
            if len(cat.hom_morphisms(c, d)) > max_morphisms:
                raise SizeLimit("hom powerset too large")
    return PowersetCatQuantaloid(cat)


def build_unit_quantaloid() -> TableQuantaloid:
    """One object, one arrow: the unit for pasting enrichments."""
    lat = TableLattice(["*"], [(0, 0)])
    return TableQuantaloid(["*"], {(0, 0): lat}, {(0, 0, 0): [[0]]}, [0])


# ---------------------------------------------------------------------------
# enrichments: transformations, functor search, presentations and slices


def exists_vnatural(f: VFunctor, g: VFunctor) -> bool:
    """Whether the unique candidate transformation from f to g exists."""
    if f.source is not g.source or f.target is not g.target:
        raise NotParallel("the functors are not parallel")
    a, b = f.source, f.target
    return all(
        b.hom_lattice(f(i), g(i)).leq(b.base.unit(a.extents[i]), b.hom(f(i), g(i)))
        for i in range(a.n_objects)
    )


def enumerate_vfunctors(
    a: VCategory, b: VCategory, cap: int = 200_000
) -> list[VFunctor]:
    """All functors from ``a`` to ``b``, by exhaustive search."""
    require_same_base(a, b)
    candidates = [b.fiber(a.extents[i]) for i in range(a.n_objects)]
    total = 1
    for c in candidates:
        total *= len(c)
        if total > cap:
            raise SizeLimit(f"more than {cap} candidate maps")
    out = []
    for assignment in itertools.product(*candidates):
        mapping = list(assignment)
        ok = all(
            a.hom_lattice(i, j).leq(a.hom(i, j), b.hom(mapping[i], mapping[j]))
            for i in range(a.n_objects)
            for j in range(a.n_objects)
        )
        if ok:
            out.append(VFunctor(a, b, mapping))
    return out


class LaxRelationalPresentation(NamedTuple):
    """Fibers over a finite category's objects, a relation per morphism.

    The relational view of an enrichment over the powerset-of-homs base:
    identities must relate each fiber element to itself, and relations
    must compose laxly.
    """

    cat: Any  # FiniteCategory
    fibers: list[list[str]]
    relations: dict[int, set[tuple[int, int]]]  # morphism -> fiber index pairs


def validate_laxrel(p: LaxRelationalPresentation) -> list[str]:
    out = []
    cat = p.cat
    if len(p.fibers) != len(cat.objects):
        return ["one fiber per category object is required"]
    for c in range(len(cat.objects)):
        ident = cat.identities[c]
        rel = p.relations.get(ident, set())
        for i in range(len(p.fibers[c])):
            if (i, i) not in rel:
                out.append(f"identity relation misses ({c},{i})")
    for f in range(len(cat.morphisms)):
        for g in range(len(cat.morphisms)):
            if cat.mor_tgt(f) != cat.mor_src(g):
                continue
            fg = cat.compose_mor(f, g)
            for x, y in p.relations.get(f, set()):
                for y2, z in p.relations.get(g, set()):
                    if y == y2 and (x, z) not in p.relations.get(fg, set()):
                        out.append(
                            f"composite relation misses ({x},{z}) under morphism {fg}"
                        )
    return out


def laxrel_to_vcat(p: LaxRelationalPresentation, base=None) -> VCategory:
    """Enrichment over the powerset base of the presentation's category."""
    problems = validate_laxrel(p)
    if problems:
        raise ValidationError(f"presentation invalid: {problems[0]}")
    if base is None:
        base = build_powerset_quantaloid(p.cat)
    if getattr(base, "cat", None) is not p.cat:
        raise BaseMismatch("base was built from a different category")
    names, extents = [], []
    for c, fiber in enumerate(p.fibers):
        for name in fiber:
            names.append(name)
            extents.append(c)
    index = {}
    pos = 0
    for c, fiber in enumerate(p.fibers):
        for i in range(len(fiber)):
            index[(c, i)] = pos
            pos += 1
    homs: list[dict] = [{} for _ in names]
    for c, fiber in enumerate(p.fibers):
        for d, fiber2 in enumerate(p.fibers):
            for i in range(len(fiber)):
                for j in range(len(fiber2)):
                    mors = frozenset(
                        m
                        for m in p.cat.hom_morphisms(c, d)
                        if (i, j) in p.relations.get(m, set())
                    )
                    homs[index[(c, i)]][index[(d, j)]] = mors
    return VCategory(base, names, extents, homs)


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


def same_presentation(a: VCategory, b: VCategory) -> bool:
    """Exact equality of presentation: names, extents and homs."""
    return (
        a.base is b.base
        and a.objects == b.objects
        and a.extents == b.extents
        and a.row_maps == b.row_maps
    )


def isomorphic_by(a: VCategory, b: VCategory, mapping: list[int]) -> bool:
    """Whether ``mapping`` is a bijective hom-preserving functor a -> b."""
    if sorted(mapping) != list(range(b.n_objects)) or a.n_objects != b.n_objects:
        return False
    if any(a.extents[i] != b.extents[mapping[i]] for i in range(a.n_objects)):
        return False
    return all(
        a.hom(i, j) == b.hom(mapping[i], mapping[j])
        for i in range(a.n_objects)
        for j in range(a.n_objects)
    )


# ---------------------------------------------------------------------------
# two-sided enrichments: composition, mates, 2-cells and constructions


class CatenTwoCell(NamedTuple):
    """A carrier map between two parallel two-sided enrichments."""

    source: TwoSidedEnrichment
    target: TwoSidedEnrichment
    mapping: list[int]


def compose_tse(f: TwoSidedEnrichment, g: TwoSidedEnrichment) -> TwoSidedEnrichment:
    """Span composition of carriers with composite components."""
    if f.target is not g.source:
        raise NotComposable("middle quantaloids do not match")
    pairs = [
        (x, y)
        for x in range(f.n_carriers)
        for y in range(g.n_carriers)
        if f.plus[x] == g.minus[y]
    ]
    carriers = [f"({f.carriers[x]}|{g.carriers[y]})" for x, y in pairs]
    minus = [f.minus[x] for x, _ in pairs]
    plus = [g.plus[y] for _, y in pairs]
    comps = {}
    for i, (x1, y1) in enumerate(pairs):
        for j, (x2, y2) in enumerate(pairs):
            comps[(i, j)] = f.component(x1, x2).then(g.component(y1, y2))
    return TwoSidedEnrichment(f.source, g.target, carriers, minus, plus, comps)


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


def check_caten_2cell(cell: CatenTwoCell) -> list[str]:
    """Span morphism plus pointwise domination of components."""
    f, g, m = cell.source, cell.target, cell.mapping
    if f.source is not g.source or f.target is not g.target:
        raise NotParallel("the enrichments are not parallel")
    out = []
    if len(m) != f.n_carriers:
        return ["mapping size disagrees with the carriers"]
    for x in range(f.n_carriers):
        if f.minus[x] != g.minus[m[x]] or f.plus[x] != g.plus[m[x]]:
            out.append(f"legs not preserved at carrier {f.carriers[x]}")
    if out:
        return out
    for x in range(f.n_carriers):
        for y in range(f.n_carriers):
            if not f.component(x, y).pointwise_leq(g.component(m[x], m[y])):
                out.append(f"component not dominated at ({x},{y})")
    return out


def caten_2cell_leq(
    cell_f: CatenTwoCell, cell_g: CatenTwoCell
) -> bool:
    """The local order on 2-cells between the same two enrichments."""
    if cell_f.source is not cell_g.source or cell_f.target is not cell_g.target:
        raise NotParallel("the 2-cells are not parallel")
    f = cell_f.source
    b = cell_f.target
    for x in range(f.n_carriers):
        u = f.minus[x]
        lat = b.target.hom(b.plus[cell_f.mapping[x]], b.plus[cell_g.mapping[x]])
        value = b.component(cell_f.mapping[x], cell_g.mapping[x])(f.source.unit(u))
        if not lat.leq(b.target.unit(f.plus[x]), value):
            return False
    return True


_UNIT_BASE = None


def shared_unit_base() -> Quantaloid:
    """The one-arrow base, shared so parallel spans compare equal."""
    global _UNIT_BASE
    if _UNIT_BASE is None:
        _UNIT_BASE = build_unit_quantaloid()
    return _UNIT_BASE


def vcat_as_tse(a: VCategory) -> TwoSidedEnrichment:
    """Present an enrichment as a span out of the one-arrow base."""
    unit_q = shared_unit_base()
    carriers = list(a.objects)
    n = len(carriers)
    comps = {}
    for x in range(n):
        for y in range(n):
            lat = a.hom_lattice(x, y)
            comps[(x, y)] = MonotoneMap(
                unit_q.hom(0, 0), lat, {0: a.hom(x, y)}
            )
    return TwoSidedEnrichment(
        unit_q, a.base, carriers, [0] * n, list(a.extents), comps
    )


def tse_as_vcat(f: TwoSidedEnrichment) -> VCategory:
    """Inverse reading of ``vcat_as_tse``."""
    if f.source.n_objects != 1 or f.source.hom(0, 0).size != 1:
        raise BaseMismatch("the span does not start at the one-arrow base")
    only = next(iter(f.source.hom(0, 0).elements()))
    n = f.n_carriers
    homs = [
        {y: f.component(x, y)(only) for y in range(n)} for x in range(n)
    ]
    return VCategory(f.target, list(f.carriers), list(f.plus), homs)


def is_strong_tse(f: TwoSidedEnrichment, enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether the components preserve composition and units exactly."""
    for x in range(f.n_carriers):
        if f.component(x, x)(f.source.unit(f.minus[x])) != f.target.unit(f.plus[x]):
            return False
    return all(
        lhs == rhs
        for triple in itertools.product(range(f.n_carriers), repeat=3)
        for _, lhs, rhs in composition_square(
            f.source, f.target, f.minus, f.plus, f.components, triple, enum_cap
        )
    )


def category_congruence_tse(
    source,  # PowersetCatQuantaloid
    target,
    carriers: list[str],
    minus: list[int],
    plus: list[int],
    relations: dict[tuple[int, int], set[tuple[int, int]]],
) -> TwoSidedEnrichment:
    """Direct image along a congruence between finite categories.

    ``relations[(x, y)]`` relates morphisms of the source category from
    ``minus[x]`` to ``minus[y]`` with morphisms of the target category
    from ``plus[x]`` to ``plus[y]``; identities must be related and the
    relation must be closed under composition.
    """
    cat_c, cat_d = source.cat, target.cat
    for x in range(len(carriers)):
        rel = relations.get((x, x), set())
        if (cat_c.identities[minus[x]], cat_d.identities[plus[x]]) not in rel:
            raise NotACongruence(f"identity pair missing at carrier {carriers[x]}")
    for x in range(len(carriers)):
        for y in range(len(carriers)):
            for z in range(len(carriers)):
                for (fm, fn) in relations.get((x, y), set()):
                    for (gm, gn) in relations.get((y, z), set()):
                        comp = (cat_c.compose_mor(fm, gm), cat_d.compose_mor(fn, gn))
                        if comp not in relations.get((x, z), set()):
                            raise NotACongruence(
                                f"composition pair missing at ({x},{y},{z})"
                            )
    comps = {}
    for x in range(len(carriers)):
        for y in range(len(carriers)):
            rel = relations.get((x, y), set())

            def image(lang, rel=rel):
                return frozenset(g for f_, g in rel if f_ in lang)

            comps[(x, y)] = MonotoneMap.from_function(
                source.hom(minus[x], minus[y]),
                target.hom(plus[x], plus[y]),
                image,
            )
    return TwoSidedEnrichment(source, target, carriers, minus, plus, comps)


def functor_exists_tse(source, target, cat_functor) -> TwoSidedEnrichment:
    """Direct image along a functor between finite categories."""
    cat_c = source.cat
    carriers = list(cat_c.objects)
    minus = list(range(len(carriers)))
    plus = [cat_functor.obj_map[c] for c in minus]
    relations = {
        (x, y): {
            (m, cat_functor.mor_map[m]) for m in cat_c.hom_morphisms(x, y)
        }
        for x in range(len(carriers))
        for y in range(len(carriers))
    }
    return category_congruence_tse(source, target, carriers, minus, plus, relations)


def functor_preimage_tse(source, target, cat_functor) -> TwoSidedEnrichment:
    """Inverse image along a functor: a span from the functor's target base.

    ``cat_functor`` goes from ``target.cat`` to ``source.cat``; carriers
    are the objects of the functor's source category.
    """
    cat_d = target.cat
    carriers = list(cat_d.objects)
    plus = list(range(len(carriers)))
    minus = [cat_functor.obj_map[c] for c in plus]
    relations = {
        (x, y): {
            (cat_functor.mor_map[m], m) for m in cat_d.hom_morphisms(x, y)
        }
        for x in range(len(carriers))
        for y in range(len(carriers))
    }
    return category_congruence_tse(source, target, carriers, minus, plus, relations)


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
    n = a.n_objects
    comps = {}
    for x in range(n):
        for y in range(n):
            comps[(x, y)] = MonotoneMap.from_function(
                va.hom(x, y), vb.hom(f(x), f(y)), lambda v: v
            )
    return TwoSidedEnrichment(
        va, vb, list(a.objects), list(range(n)), list(f.mapping), comps
    )


# ---------------------------------------------------------------------------
# adjunctions between finite categories and their sieve left adjoints


class CatAdjunction(NamedTuple):
    """An adjunction between finite categories, given by unit and counit."""

    left: CatFunctor  # F : A -> B
    right: CatFunctor  # G : B -> A
    unit: list[int]  # per object a of A, a morphism a -> G F a
    counit: list[int]  # per object b of B, a morphism F G b -> b

    def validate(self) -> list[str]:
        out = []
        a_cat, b_cat = self.left.source, self.left.target
        if self.right.source is not b_cat or self.right.target is not a_cat:
            return ["the two functors are not opposed"]
        for a in range(a_cat.n_objects):
            eta = self.unit[a]
            if a_cat.mor_src(eta) != a or a_cat.mor_tgt(eta) != self.right.obj_map[
                self.left.obj_map[a]
            ]:
                out.append(f"unit mistyped at {a_cat.objects[a]}")
        for b in range(b_cat.n_objects):
            eps = self.counit[b]
            if b_cat.mor_src(eps) != self.left.obj_map[
                self.right.obj_map[b]
            ] or b_cat.mor_tgt(eps) != b:
                out.append(f"counit mistyped at {b_cat.objects[b]}")
        if out:
            return out
        for a in range(a_cat.n_objects):
            lhs = b_cat.compose_mor(
                self.left.mor_map[self.unit[a]],
                self.counit[self.left.obj_map[a]],
            )
            if lhs != b_cat.identities[self.left.obj_map[a]]:
                out.append(f"triangle identity fails at {a_cat.objects[a]}")
        for b in range(b_cat.n_objects):
            lhs = a_cat.compose_mor(
                self.unit[self.right.obj_map[b]],
                self.right.mor_map[self.counit[b]],
            )
            if lhs != a_cat.identities[self.right.obj_map[b]]:
                out.append(f"triangle identity fails at {b_cat.objects[b]}")
        return out

    def transpose(self, t: int, b: int) -> int:
        """Mate of ``t : a -> G b`` across the adjunction: ``F a -> b``."""
        return self.left.target.compose_mor(self.left.mor_map[t], self.counit[b])


def crible_left_adjoints(
    adj: CatAdjunction,
    sa: CribleQuantaloid,
    sb: CribleQuantaloid,
) -> dict[tuple[int, int], MonotoneMap]:
    """Left adjoints to the sieve images along the right functor.

    For an adjunction the direct-image span along the right functor has,
    on top of its right adjoints, local left adjoints that transpose
    every span leg.  ``sa`` holds the sieves over the left functor's
    source and ``sb`` those over its target; each candidate is verified
    against the Galois condition before being returned.
    """
    if sa.cat is not adj.left.source or sb.cat is not adj.left.target:
        raise NotExact("the sieve bases do not match the adjunction")
    b_cat = adj.left.target
    out = {}
    for x in range(b_cat.n_objects):
        for y in range(b_cat.n_objects):
            gx, gy = adj.right.obj_map[x], adj.right.obj_map[y]

            def left(crible, x=x, y=y):
                spans = [
                    Span(
                        adj.left.obj_map[s.apex],
                        adj.transpose(s.left, x),
                        adj.transpose(s.right, y),
                    )
                    for s in crible
                ]
                return sb.down_close(x, y, spans)

            candidate = MonotoneMap.from_function(
                sa.hom(gx, gy), sb.hom(x, y), left
            )
            g_component = MonotoneMap.from_function(
                sb.hom(x, y),
                sa.hom(gx, gy),
                lambda crible, gx=gx, gy=gy: sa.down_close(
                    gx, gy, [adj.right.apply_span(s) for s in crible]
                ),
            )
            if not verify_adjunction(candidate, g_component):
                raise NoAdjoint(f"no left adjoint at objects ({x},{y})")
            out[(x, y)] = candidate
    return out
