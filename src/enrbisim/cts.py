"""Finite categories, spans, sieve quantaloids and refinement.

A specification is a graph whose vertices are typed by the objects of a
finite category with chosen pullbacks and whose edges carry spans; it
generates an enrichment over the quantaloid whose arrows are sieves
(down-closed sets) of spans.  Refining along a pullback-preserving
functor is a change of base with local right adjoints, so it preserves
surjective functional bisimulations.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import (
    AmbientMismatch,
    NoAdjoint,
    NotComposable,
    NotExact,
    SizeLimit,
    TypeMismatch,
    UnknownObject,
)
from .lattice import DownsetLattice, MonotoneMap, PowersetLattice
from .quantaloid import Quantaloid
from .cob import TwoSidedEnrichment, apply_cob, local_right_adjoints
from .vcat import EnrichedGraph, VCategory, free_vcategory


class Morphism(NamedTuple):
    name: str
    src: int
    tgt: int


class FiniteCategory:
    """Objects, morphisms, a composition table and chosen pullbacks.

    ``pullbacks[(f, g)]`` for a cospan ``f: X -> Z <- Y :g`` holds the
    pair of projection morphisms out of the chosen apex.
    """

    def __init__(
        self,
        objects: list[str],
        morphisms: list[Morphism],
        compose_table: dict[tuple[int, int], int],
        identities: list[int],
        pullbacks: dict[tuple[int, int], tuple[int, int]] | None = None,
    ):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.compose_table = dict(compose_table)
        self.identities = list(identities)
        self.pullbacks = dict(pullbacks or {})
        self._hom_cache: dict[tuple[int, int], list[int]] = {}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise UnknownObject(f"no object named {name!r}") from None

    def morphism_index(self, name: str) -> int:
        for i, m in enumerate(self.morphisms):
            if m.name == name:
                return i
        raise UnknownObject(f"no morphism named {name!r}")

    def mor_src(self, f: int) -> int:
        return self.morphisms[f].src

    def mor_tgt(self, f: int) -> int:
        return self.morphisms[f].tgt

    def hom_morphisms(self, c: int, d: int) -> list[int]:
        key = (c, d)
        if key not in self._hom_cache:
            self._hom_cache[key] = [
                i
                for i, m in enumerate(self.morphisms)
                if m.src == c and m.tgt == d
            ]
        return self._hom_cache[key]

    def compose_mor(self, f: int, g: int) -> int:
        """Composite of ``f`` then ``g`` (diagrammatic order)."""
        if self.mor_tgt(f) != self.mor_src(g):
            raise NotComposable(
                f"{self.morphisms[f].name} then {self.morphisms[g].name}"
            )
        try:
            return self.compose_table[(f, g)]
        except KeyError:
            raise NotComposable(
                f"no composite recorded for ({f},{g})"
            ) from None

    def chosen_pullback(self, f: int, g: int) -> tuple[int, int]:
        """Projections ``(p1, p2)`` of the chosen pullback of a cospan."""
        if self.mor_tgt(f) != self.mor_tgt(g):
            raise NotComposable("not a cospan")
        try:
            return self.pullbacks[(f, g)]
        except KeyError:
            raise NotComposable(f"no chosen pullback for cospan ({f},{g})") from None

    @classmethod
    def poset(cls, names: list[str], leq_pairs: Iterable[tuple[int, int]]):
        """Thin category of a finite poset, meets as chosen pullbacks."""
        order = set(leq_pairs)
        n = len(names)
        mors = []
        index = {}
        for i in range(n):
            for j in range(n):
                if (i, j) in order:
                    index[(i, j)] = len(mors)
                    mors.append(Morphism(f"{names[i]}<={names[j]}", i, j))
        compose = {}
        for (i, j), f in index.items():
            for (j2, k), g in index.items():
                if j == j2:
                    if (i, k) not in index:
                        raise NotComposable("order is not transitive")
                    compose[(f, g)] = index[(i, k)]
        identities = [index[(i, i)] for i in range(n)]
        below = [frozenset(i for i in range(n) if (i, j) in order) for j in range(n)]
        pullbacks = {}
        for (x, z), f in index.items():
            for (y, z2), g in index.items():
                if z != z2:
                    continue
                commons = below[x] & below[y]
                meets = [m for m in commons if all((c, m) in order for c in commons)]
                if not meets:
                    raise NotComposable(
                        f"poset lacks the meet of {names[x]} and {names[y]}"
                    )
                m = meets[0]
                pullbacks[(f, g)] = (index[(m, x)], index[(m, y)])
        return cls(names, mors, compose, identities, pullbacks)


def validate_fincat(cat: FiniteCategory) -> list[str]:
    """Category axioms plus universality of every chosen pullback."""
    out = []
    n_mor = len(cat.morphisms)
    if len(cat.identities) != cat.n_objects:
        return ["one identity per object is required"]
    for c, i in enumerate(cat.identities):
        if cat.mor_src(i) != c or cat.mor_tgt(i) != c:
            out.append(f"identity of {cat.objects[c]} is not an endomorphism")
    for f in range(n_mor):
        for g in range(n_mor):
            if cat.mor_tgt(f) != cat.mor_src(g):
                continue
            if (f, g) not in cat.compose_table:
                out.append(f"missing composite ({f},{g})")
                continue
            h = cat.compose_table[(f, g)]
            if cat.mor_src(h) != cat.mor_src(f) or cat.mor_tgt(h) != cat.mor_tgt(g):
                out.append(f"composite ({f},{g}) has wrong endpoints")
    if out:
        return out
    for f in range(n_mor):
        if cat.compose_mor(cat.identities[cat.mor_src(f)], f) != f:
            out.append(f"left identity law fails at {cat.morphisms[f].name}")
        if cat.compose_mor(f, cat.identities[cat.mor_tgt(f)]) != f:
            out.append(f"right identity law fails at {cat.morphisms[f].name}")
    for f in range(n_mor):
        for g in range(n_mor):
            if cat.mor_tgt(f) != cat.mor_src(g):
                continue
            for h in range(n_mor):
                if cat.mor_tgt(g) != cat.mor_src(h):
                    continue
                if cat.compose_mor(cat.compose_mor(f, g), h) != cat.compose_mor(
                    f, cat.compose_mor(g, h)
                ):
                    out.append(f"associativity fails at ({f},{g},{h})")
    for (f, g), (p1, p2) in cat.pullbacks.items():
        if cat.mor_tgt(f) != cat.mor_tgt(g):
            out.append(f"chosen pullback ({f},{g}) is not over a cospan")
            continue
        if cat.mor_src(p1) != cat.mor_src(p2):
            out.append(f"chosen pullback projections of ({f},{g}) disagree on apex")
            continue
        if cat.mor_tgt(p1) != cat.mor_src(f) or cat.mor_tgt(p2) != cat.mor_src(g):
            out.append(f"chosen pullback projections of ({f},{g}) mistyped")
            continue
        if cat.compose_mor(p1, f) != cat.compose_mor(p2, g):
            out.append(f"chosen pullback square of ({f},{g}) does not commute")
            continue
        out.extend(
            f"chosen pullback of ({f},{g}) not universal for a cone from {cat.objects[q]}"
            for q in _cones_without_mediator(cat, f, g, p1, p2)
        )
    return out


def _cones_without_mediator(cat: FiniteCategory, f: int, g: int, p1: int, p2: int):
    """The source object of every cone over the cospan ``(f, g)`` that does
    not factor through the commuting square ``(p1, p2)`` exactly once."""
    apex = cat.mor_src(p1)
    for q_obj in range(cat.n_objects):
        for q1 in cat.hom_morphisms(q_obj, cat.mor_src(f)):
            for q2 in cat.hom_morphisms(q_obj, cat.mor_src(g)):
                if cat.compose_mor(q1, f) != cat.compose_mor(q2, g):
                    continue
                mediators = [
                    u
                    for u in cat.hom_morphisms(q_obj, apex)
                    if cat.compose_mor(u, p1) == q1 and cat.compose_mor(u, p2) == q2
                ]
                if len(mediators) != 1:
                    yield q_obj


class PowersetCatQuantaloid(Quantaloid):
    """Subsets of a finite category's hom-sets, composed pointwise."""

    def __init__(self, cat: FiniteCategory):
        super().__init__(list(cat.objects))
        self.cat = cat

    def _make_hom(self, u, v):
        return PowersetLattice(self.cat.hom_morphisms(u, v))

    def compose(self, u, v, w, f, g):
        return frozenset(self.cat.compose_mor(m, n) for m in f for n in g)

    def unit(self, u):
        return frozenset({self.cat.identities[u]})


class Span(NamedTuple):
    """A pair of morphisms out of a common apex (stored as indices)."""

    apex: int
    left: int
    right: int

    def ambient(self, cat: FiniteCategory) -> tuple[int, int]:
        return cat.mor_tgt(self.left), cat.mor_tgt(self.right)


def identity_span(cat: FiniteCategory, x: int) -> Span:
    return Span(x, cat.identities[x], cat.identities[x])


def span_compose(cat: FiniteCategory, s: Span, t: Span) -> Span:
    """Composite span through the chosen pullback of the middle cospan."""
    if cat.mor_tgt(s.right) != cat.mor_tgt(t.left):
        raise NotComposable("middle objects do not match")
    p1, p2 = cat.chosen_pullback(s.right, t.left)
    apex = cat.mor_src(p1)
    return Span(
        apex,
        cat.compose_mor(p1, s.left),
        cat.compose_mor(p2, t.right),
    )


def span_leq(cat: FiniteCategory, s: Span, t: Span) -> bool:
    """Domination: some morphism of apexes commutes with both legs."""
    if s.ambient(cat) != t.ambient(cat):
        raise AmbientMismatch("the spans do not share their end objects")
    return any(
        cat.compose_mor(u, t.left) == s.left
        and cat.compose_mor(u, t.right) == s.right
        for u in cat.hom_morphisms(s.apex, t.apex)
    )


def all_spans(cat: FiniteCategory, x: int, y: int) -> list[Span]:
    return [
        Span(a, f, g)
        for a in range(cat.n_objects)
        for f in cat.hom_morphisms(a, x)
        for g in cat.hom_morphisms(a, y)
    ]


class CribleQuantaloid(Quantaloid):
    """Sieves of spans between a finite category's objects.

    The lattice between two objects consists of the down-closed span
    sets ordered by inclusion; composition composes pointwise through
    the chosen pullbacks and closes down again.  Down-closure absorbs
    the apex isomorphisms, which is why associativity holds on the nose
    even though span composition is only associative up to isomorphism.
    ``compose`` is a pure function of its arguments and sieves are
    frozensets, so each composite is made once per instance and kept in
    ``_composites``.
    """

    def __init__(self, cat: FiniteCategory, max_spans: int = 12):
        super().__init__(list(cat.objects))
        self.cat = cat
        self._composites: dict[tuple, frozenset] = {}  # (u, v, w, f, g) -> f.g
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                if len(all_spans(cat, x, y)) > max_spans:
                    raise SizeLimit(
                        f"{len(all_spans(cat, x, y))} spans between "
                        f"{cat.objects[x]} and {cat.objects[y]}"
                    )

    def _make_hom(self, u, v):
        return DownsetLattice(
            all_spans(self.cat, u, v), lambda s, t: span_leq(self.cat, s, t)
        )

    def down_close(self, u: int, v: int, spans: Iterable[Span]) -> frozenset:
        hom = self.hom(u, v)
        return hom.down_close(spans)

    def compose(self, u, v, w, f, g):
        key = (u, v, w, f, g)
        out = self._composites.get(key)
        if out is None:
            spans = {span_compose(self.cat, s, t) for s in f for t in g}
            out = self._composites[key] = self.down_close(u, w, spans)
        return out

    def unit(self, u):
        return self.down_close(u, u, [identity_span(self.cat, u)])


def build_S_quantaloid(cat: FiniteCategory, max_spans: int = 12) -> CribleQuantaloid:
    """The sieve quantaloid of a finite category with chosen pullbacks."""
    return CribleQuantaloid(cat, max_spans)


class CtsSpec(NamedTuple):
    """A specification: typed vertices and span-labelled edges."""

    vertices: list[tuple[str, int]]  # (state name, type object index)
    edges: list[tuple[int, int, Span]]


def cts_to_vcat(sq: CribleQuantaloid, spec: CtsSpec) -> VCategory:
    """Free enrichment over the sieve quantaloid on a specification."""
    cat = sq.cat
    for s, t, span in spec.edges:
        want = (spec.vertices[s][1], spec.vertices[t][1])
        if span.ambient(cat) != want:
            raise TypeMismatch(
                f"edge span between {spec.vertices[s][0]} and "
                f"{spec.vertices[t][0]} has the wrong end objects"
            )
    graph = EnrichedGraph(
        vertices=list(spec.vertices),
        edges=[
            (s, t, sq.down_close(spec.vertices[s][1], spec.vertices[t][1], [span]))
            for s, t, span in spec.edges
        ],
    )
    return free_vcategory(sq, graph)


class CatFunctor(NamedTuple):
    """A functor between finite categories, as explicit object/morphism maps."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: list[int]
    mor_map: list[int]

    def validate(self) -> list[str]:
        out = []
        src, tgt = self.source, self.target
        if len(self.obj_map) != src.n_objects or len(self.mor_map) != len(
            src.morphisms
        ):
            return ["map sizes disagree with the source category"]
        for f, fm in enumerate(self.mor_map):
            if tgt.mor_src(fm) != self.obj_map[src.mor_src(f)] or tgt.mor_tgt(
                fm
            ) != self.obj_map[src.mor_tgt(f)]:
                out.append(f"morphism {src.morphisms[f].name} mistyped by the map")
        if out:
            return out
        for c, i in enumerate(src.identities):
            if self.mor_map[i] != tgt.identities[self.obj_map[c]]:
                out.append(f"identity of {src.objects[c]} not preserved")
        for f in range(len(src.morphisms)):
            for g in range(len(src.morphisms)):
                if src.mor_tgt(f) != src.mor_src(g):
                    continue
                if self.mor_map[src.compose_mor(f, g)] != tgt.compose_mor(
                    self.mor_map[f], self.mor_map[g]
                ):
                    out.append(f"composition not preserved at ({f},{g})")
        return out

    def apply_span(self, s: Span) -> Span:
        return Span(
            self.obj_map[s.apex], self.mor_map[s.left], self.mor_map[s.right]
        )


def preserves_chosen_pullbacks(fun: CatFunctor) -> list[str]:
    """Each chosen square must map to a pullback square in the target."""
    out = []
    src, tgt = fun.source, fun.target
    for (f, g), (p1, p2) in src.pullbacks.items():
        tf, tg = fun.mor_map[f], fun.mor_map[g]
        tp1, tp2 = fun.mor_map[p1], fun.mor_map[p2]
        if tgt.compose_mor(tp1, tf) != tgt.compose_mor(tp2, tg):
            out.append(f"image of chosen square ({f},{g}) does not commute")
            continue
        out.extend(
            f"image of chosen square ({f},{g}) is not a pullback"
            for _ in _cones_without_mediator(tgt, tf, tg, tp1, tp2)
        )
    return out


def crible_change_tse(
    fun: CatFunctor, source_sq: CribleQuantaloid, target_sq: CribleQuantaloid
) -> TwoSidedEnrichment:
    """The span between sieve quantaloids induced by an exact functor."""
    if source_sq.cat is not fun.source or target_sq.cat is not fun.target:
        raise NotExact("the sieve bases do not match the functor")
    problems = preserves_chosen_pullbacks(fun)
    if problems:
        raise NotExact(problems[0])
    n = fun.source.n_objects
    comps = {}
    for x in range(n):
        for y in range(n):
            fx, fy = fun.obj_map[x], fun.obj_map[y]

            def image(crible, x=x, y=y, fx=fx, fy=fy):
                return target_sq.down_close(
                    fx, fy, [fun.apply_span(s) for s in crible]
                )

            comps[(x, y)] = MonotoneMap.from_function(
                source_sq.hom(x, y), target_sq.hom(fx, fy), image
            )
    return TwoSidedEnrichment(
        source_sq,
        target_sq,
        list(fun.source.objects),
        list(range(n)),
        list(fun.obj_map),
        comps,
    )


def crible_preimage_map(
    fun: CatFunctor,
    source_sq: CribleQuantaloid,
    target_sq: CribleQuantaloid,
    x: int,
    y: int,
) -> MonotoneMap:
    """Predicted right adjoint: spans whose image lies in the sieve."""
    fx, fy = fun.obj_map[x], fun.obj_map[y]

    def preimage(crible):
        return frozenset(
            s for s in all_spans(fun.source, x, y) if fun.apply_span(s) in crible
        )

    return MonotoneMap.from_function(
        target_sq.hom(fx, fy), source_sq.hom(x, y), preimage
    )


def refine(
    fun: CatFunctor,
    a: VCategory,
    source_sq: CribleQuantaloid,
    target_sq: CribleQuantaloid,
) -> VCategory:
    """Change the base of a specification's enrichment along a functor.

    The functor must preserve the chosen pullbacks; the induced span's
    components must have right adjoints matching the direct preimage
    formula, which makes the refinement preserve surjective functional
    bisimulations.
    """
    if a.base is not source_sq:
        raise NotExact("the enrichment does not live over the source sieves")
    tse = crible_change_tse(fun, source_sq, target_sq)
    report = local_right_adjoints(tse, pointwise_only=True)
    for (x, y), adj in report.adjoints.items():
        predicted = crible_preimage_map(fun, source_sq, target_sq, x, y)
        for n in predicted.source.elements():
            if adj(n) != predicted(n):
                raise NoAdjoint(
                    f"computed adjoint disagrees with the preimage at ({x},{y})"
                )
    return apply_cob(tse, a)
