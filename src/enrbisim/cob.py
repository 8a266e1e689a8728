"""Two-sided enrichments and change of base.

A two-sided enrichment between two quantaloids is a span of object sets
together with a monotone hom-component per carrier pair, lax with
respect to composition and units.  Applying one to an enrichment
changes its base; when every component has a right Galois adjoint and
the adjoints satisfy the two coherence inequalities, the change of base
has a right adjoint built from those local adjoints.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .errors import (
    BaseMismatch,
    NoAdjoint,
    NotACongruence,
    NotComposable,
    NotParallel,
)
from .lattice import (
    DEFAULT_ENUM_CAP,
    MonotoneMap,
    right_adjoint_of_monotone,
)
from .quantaloid import LanguageQuantale, Quantaloid, build_unit_quantaloid
from .vcat import SliceQuantaloid, VCategory, VFunctor, slice_quantaloid


class TwoSidedEnrichment:
    """A span of carriers with a monotone map per carrier pair."""

    def __init__(
        self,
        source: Quantaloid,
        target: Quantaloid,
        carriers: list[str],
        minus: list[int],
        plus: list[int],
        components: dict[tuple[int, int], MonotoneMap],
    ):
        if len(carriers) != len(minus) or len(carriers) != len(plus):
            raise ValueError("carrier legs disagree in length")
        for u in minus:
            source.check_object(u)
        for v in plus:
            target.check_object(v)
        self.source = source
        self.target = target
        self.carriers = list(carriers)
        self.minus = list(minus)
        self.plus = list(plus)
        self.components = dict(components)

    @property
    def n_carriers(self) -> int:
        return len(self.carriers)

    def component(self, x: int, y: int) -> MonotoneMap:
        return self.components[(x, y)]

    def left_leg_bijective(self) -> bool:
        return sorted(self.minus) == list(range(self.source.n_objects))

    def object_action(self) -> list[int]:
        """Source object -> target object, when the left leg is a bijection."""
        if not self.left_leg_bijective():
            raise NoAdjoint("the left leg is not a bijection onto the source")
        action = [0] * self.source.n_objects
        for x in range(self.n_carriers):
            action[self.minus[x]] = self.plus[x]
        return action

    def __repr__(self):
        return f"TwoSidedEnrichment({len(self.carriers)} carriers)"


class CatenTwoCell(NamedTuple):
    """A carrier map between two parallel two-sided enrichments."""

    source: TwoSidedEnrichment
    target: TwoSidedEnrichment
    mapping: list[int]


def validate_tse(f: TwoSidedEnrichment, enum_cap: int = DEFAULT_ENUM_CAP) -> list[str]:
    """Exhaustive check of the two lax inequalities and component shapes."""
    out = []
    for (x, y), comp in f.components.items():
        if comp.source is not f.source.hom(f.minus[x], f.minus[y]):
            out.append(f"component ({x},{y}) has the wrong source lattice")
        if comp.target is not f.target.hom(f.plus[x], f.plus[y]):
            out.append(f"component ({x},{y}) has the wrong target lattice")
    for x in range(f.n_carriers):
        for y in range(f.n_carriers):
            if (x, y) not in f.components:
                out.append(f"missing component ({x},{y})")
    if out:
        return out
    for (x, y), comp in f.components.items():
        for msg in comp.check():
            out.append(f"component ({x},{y}): {msg}")
    if out:
        return out
    for x in range(f.n_carriers):
        unit_src = f.source.unit(f.minus[x])
        unit_tgt = f.target.unit(f.plus[x])
        lat = f.target.hom(f.plus[x], f.plus[x])
        if not lat.leq(unit_tgt, f.component(x, x)(unit_src)):
            out.append(f"unit square fails at carrier {f.carriers[x]}")
    for x, y, z in itertools.product(range(f.n_carriers), repeat=3):
        src_xy = f.source.hom(f.minus[x], f.minus[y])
        src_yz = f.source.hom(f.minus[y], f.minus[z])
        try:
            src_xy.ensure_enumerable(enum_cap)
            src_yz.ensure_enumerable(enum_cap)
        except Exception:
            out.append(f"hom pair at carriers ({x},{y},{z}) too large to check")
            continue
        lat = f.target.hom(f.plus[x], f.plus[z])
        for g in src_xy.elements():
            for h in src_yz.elements():
                lhs = f.target.compose(
                    f.plus[x], f.plus[y], f.plus[z],
                    f.component(x, y)(g), f.component(y, z)(h),
                )
                rhs = f.component(x, z)(
                    f.source.compose(f.minus[x], f.minus[y], f.minus[z], g, h)
                )
                if not lat.leq(lhs, rhs):
                    out.append(
                        f"composition square fails at carriers ({x},{y},{z})"
                    )
                    break
            else:
                continue
            break
    return out


def identity_tse(q: Quantaloid) -> TwoSidedEnrichment:
    carriers = list(q.objects)
    n = len(carriers)
    comps = {
        (x, y): MonotoneMap.identity(q.hom(x, y))
        for x in range(n)
        for y in range(n)
    }
    return TwoSidedEnrichment(q, q, carriers, list(range(n)), list(range(n)), comps)


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


def apply_cob(f: TwoSidedEnrichment, a: VCategory) -> VCategory:
    """Change the base of an enrichment along a two-sided enrichment."""
    if a.base is not f.source:
        raise BaseMismatch("the enrichment does not live over the span's source")
    pairs = [
        (i, x)
        for i in range(a.n_objects)
        for x in range(f.n_carriers)
        if a.extents[i] == f.minus[x]
    ]
    names = [f"({a.objects[i]}|{f.carriers[x]})" for i, x in pairs]
    extents = [f.plus[x] for _, x in pairs]
    homs = [
        [f.component(x1, x2)(a.hom(i1, i2)) for (i2, x2) in pairs]
        for (i1, x1) in pairs
    ]
    out = VCategory(f.target, names, extents, homs)
    out.cob_pairs = pairs  # position in `a` and carrier, for functor transport
    return out


def apply_cob_vfunctor(
    f: TwoSidedEnrichment, g: VFunctor, new_source: VCategory, new_target: VCategory
) -> VFunctor:
    """Transport a functor across a change of base."""
    src_pairs = new_source.cob_pairs
    tgt_index = {pair: p for p, pair in enumerate(new_target.cob_pairs)}
    return VFunctor(
        new_source, new_target, [tgt_index[(g(i), x)] for i, x in src_pairs]
    )


class AdjointReport(NamedTuple):
    """Local right adjoints of a two-sided enrichment's components."""

    adjoints: dict[tuple[int, int], MonotoneMap]
    coherence1: bool
    coherence2: bool
    violations: list[str]

    @property
    def coherent(self) -> bool:
        return self.coherence1 and self.coherence2


def local_right_adjoints(
    f: TwoSidedEnrichment,
    pointwise_only: bool = False,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> AdjointReport:
    """Right Galois adjoints of every component, with coherence flags.

    Coherence (the adjoints laxly respecting composition and units) is
    what makes the pointwise adjoints assemble into a right adjoint to
    the change of base; it is only meaningful when the left leg is a
    bijection, which callers may waive with ``pointwise_only``.
    """
    if not pointwise_only and not f.left_leg_bijective():
        raise NoAdjoint("the left leg is not a bijection; pass pointwise_only")
    adjoints = {
        key: right_adjoint_of_monotone(comp, enum_cap)
        for key, comp in f.components.items()
    }
    if pointwise_only:
        return AdjointReport(adjoints, False, False, ["coherence not checked"])
    violations = []
    coherence1 = True
    for x, y, z in itertools.product(range(f.n_carriers), repeat=3):
        g_xy, g_yz, g_xz = adjoints[(x, y)], adjoints[(y, z)], adjoints[(x, z)]
        lat = f.source.hom(f.minus[x], f.minus[z])
        for p in f.target.hom(f.plus[x], f.plus[y]).elements():
            for q in f.target.hom(f.plus[y], f.plus[z]).elements():
                lhs = f.source.compose(
                    f.minus[x], f.minus[y], f.minus[z], g_xy(p), g_yz(q)
                )
                rhs = g_xz(
                    f.target.compose(f.plus[x], f.plus[y], f.plus[z], p, q)
                )
                if not lat.leq(lhs, rhs):
                    coherence1 = False
                    violations.append(
                        f"adjoint composition inequality fails at ({x},{y},{z})"
                    )
                    break
            else:
                continue
            break
    coherence2 = True
    for x in range(f.n_carriers):
        lat = f.source.hom(f.minus[x], f.minus[x])
        if not lat.leq(
            f.source.unit(f.minus[x]),
            adjoints[(x, x)](f.target.unit(f.plus[x])),
        ):
            coherence2 = False
            violations.append(f"adjoint unit inequality fails at carrier {x}")
    return AdjointReport(adjoints, coherence1, coherence2, violations)


def right_adjoint_cob(
    f: TwoSidedEnrichment,
    b: VCategory,
    report: AdjointReport | None = None,
) -> VCategory:
    """Right adjoint to the change of base, from the local adjoints."""
    if b.base is not f.target:
        raise BaseMismatch("the enrichment does not live over the span's target")
    if report is None:
        report = local_right_adjoints(f)
    if not report.coherent:
        raise NoAdjoint("the local adjoints are not coherent")
    action = f.object_action()
    carrier_of = {self_minus: x for x, self_minus in enumerate(f.minus)}
    pairs = [
        (i, v)
        for i in range(b.n_objects)
        for v in range(f.source.n_objects)
        if b.extents[i] == action[v]
    ]
    names = [f"({b.objects[i]}|{f.source.objects[v]})" for i, v in pairs]
    extents = [v for _, v in pairs]
    homs = [
        [
            report.adjoints[(carrier_of[v1], carrier_of[v2])](b.hom(i1, i2))
            for (i2, v2) in pairs
        ]
        for (i1, v1) in pairs
    ]
    out = VCategory(f.source, names, extents, homs)
    out.cob_pairs = pairs
    return out


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
    pos_in_changed = {pair[0]: p for p, pair in enumerate(changed.cob_pairs)}
    adj_index = {pair: p for p, pair in enumerate(adjoint_side.cob_pairs)}
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
    mapping = [
        adjoint_side.cob_pairs[h(i)][0] for i, _ in changed.cob_pairs
    ]
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
        [f.component(x, y)(only) for y in range(n)] for x in range(n)
    ]
    return VCategory(f.target, list(f.carriers), list(f.plus), homs)


def is_strong_tse(f: TwoSidedEnrichment, enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Whether the components preserve composition and units exactly."""
    for x in range(f.n_carriers):
        if f.component(x, x)(f.source.unit(f.minus[x])) != f.target.unit(f.plus[x]):
            return False
    for x, y, z in itertools.product(range(f.n_carriers), repeat=3):
        src_xy = f.source.hom(f.minus[x], f.minus[y])
        src_yz = f.source.hom(f.minus[y], f.minus[z])
        src_xy.ensure_enumerable(enum_cap)
        src_yz.ensure_enumerable(enum_cap)
        for g in src_xy.elements():
            for h in src_yz.elements():
                lhs = f.target.compose(
                    f.plus[x], f.plus[y], f.plus[z],
                    f.component(x, y)(g), f.component(y, z)(h),
                )
                rhs = f.component(x, z)(
                    f.source.compose(f.minus[x], f.minus[y], f.minus[z], g, h)
                )
                if lhs != rhs:
                    return False
    return True


def monoid_congruence_tse(
    source: LanguageQuantale,
    target: LanguageQuantale,
    pairs: Iterable[tuple[tuple, tuple]],
) -> TwoSidedEnrichment:
    """Direct image along a congruence between truncated word monoids.

    The congruence must contain the empty-word pair and be closed under
    concatenation whenever both concatenations survive the truncation;
    the resulting span is validated because truncation can still break
    laxness for unbalanced congruences.
    """
    if not isinstance(source, LanguageQuantale) or not isinstance(
        target, LanguageQuantale
    ):
        raise NotACongruence("both bases must be truncated language quantales")
    rel = set()
    for m, n in pairs:
        m, n = tuple(m), tuple(n)
        if len(m) > source.k or len(n) > target.k:
            continue  # truncated away
        if any(s not in source.alphabet for s in m) or any(
            s not in target.alphabet for s in n
        ):
            raise NotACongruence(f"pair ({m},{n}) uses unknown symbols")
        rel.add((m, n))
    if ((), ()) not in rel:
        raise NotACongruence("the empty-word pair is missing")
    for (m, n), (m2, n2) in itertools.product(rel, repeat=2):
        if len(m + m2) <= source.k and len(n + n2) <= target.k:
            if (m + m2, n + n2) not in rel:
                raise NotACongruence(
                    f"not closed under concatenation at ({m + m2},{n + n2})"
                )

    by_word: dict[tuple, set] = {}
    for m, n in rel:
        by_word.setdefault(m, set()).add(n)

    def image(lang: frozenset) -> frozenset:
        out = set()
        for w in lang:
            out |= by_word.get(w, set())
        return frozenset(out)

    comp = MonotoneMap.from_function(source.hom(0, 0), target.hom(0, 0), image)
    tse = TwoSidedEnrichment(source, target, ["*"], [0], [0], {(0, 0): comp})
    problems = validate_tse(tse)
    if problems:
        raise NotACongruence(
            f"truncation breaks the lax structure: {problems[0]}"
        )
    return tse


def monoid_morphism_pairs(
    gen_map: dict[str, tuple], source: LanguageQuantale, target: LanguageQuantale
) -> list[tuple[tuple, tuple]]:
    """The graph of the word map induced by a generator assignment."""
    def apply(word: tuple) -> tuple:
        out: tuple = ()
        for s in word:
            out = out + tuple(gen_map[s])
        return out

    return [(w, apply(w)) for w in source.words if len(apply(w)) <= target.k]


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
