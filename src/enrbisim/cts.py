"""Finite categories, spans, sieve quantaloids and specifications.

A specification is a graph whose vertices are typed by the objects of a
finite category with chosen pullbacks and whose edges carry spans; it
generates an enrichment over the quantaloid whose arrows are sieves
(down-closed sets) of spans.  The sieve and powerset bases, with the
sieves' down-set lattices, are this module's family: it reads and writes
their documents.  Functors between finite categories and refinement
along them are ``ctsrefine``'s, so building a specification's enrichment
compiles neither it nor ``cob``; three of their names still resolve here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from . import _moved
from .documents import SCHEMA
from .errors import (
    AmbientMismatch,
    NotComposable,
    ParseError,
    SizeLimit,
    TypeMismatch,
    UnknownElement,
    ValidationError,
    require_valid,
)
from .jsondocs import _indices, _name_lookup, _names, _object, _objects, _once
from .lattice import DEFAULT_ENUM_CAP, MAX_GENERATORS
from .quantaloid import name_index
from .sets import PowersetLattice, SetQuantaloid, _SetLattice
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
        self.object_index = name_index(self.objects)
        self.morphism_index = name_index([m.name for m in self.morphisms], "morphism")
        self.compose_table = dict(compose_table)
        self.identities = list(identities)
        self.pullbacks = dict(pullbacks or {})
        self._hom_cache: dict[tuple[int, int], list[int]] = {}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

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


class PowersetCatQuantaloid(SetQuantaloid):
    """Subsets of a finite category's hom-sets, composed pointwise; a
    member is a morphism, written as its name."""

    def __init__(self, cat: FiniteCategory):
        super().__init__(list(cat.objects))
        self.cat = cat
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                if len(cat.hom_morphisms(x, y)) > MAX_GENERATORS:
                    raise SizeLimit("hom powerset too large")

    def member_to_doc(self, m):
        return self.cat.morphisms[m].name

    def member_from_doc(self, doc):
        return self.cat.morphism_index(doc)

    def _make_hom(self, u, v):
        return PowersetLattice(self.cat.hom_morphisms(u, v))

    def compose(self, u, v, w, f, g):
        return frozenset(self.cat.compose_mor(m, n) for m in f for n in g)

    def unit(self, u):
        return frozenset({self.cat.identities[u]})

    def construction_doc(self, name_of) -> dict:
        return {"construction": "powerset", "category": name_of(self.cat)}


class Span(NamedTuple):
    """A pair of morphisms out of a common apex (stored as indices)."""

    apex: int
    left: int
    right: int

    def ambient(self, cat: FiniteCategory) -> tuple[int, int]:
        return cat.mor_tgt(self.left), cat.mor_tgt(self.right)


def span_from_doc(cat: FiniteCategory, doc) -> Span:
    """The span a document ``{apex, left, right}`` gives by object and morphism names."""
    return Span(
        cat.object_index(doc["apex"]), cat.morphism_index(doc["left"]), cat.morphism_index(doc["right"])
    )


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


class DownsetLattice(_SetLattice):
    """Down-closed subsets of a finite preorder, ordered by inclusion.

    Used for the sieve lattices: the universe is a finite set of spans
    and the preorder is domination.  Unions and intersections of down-sets
    are down-sets, so joins and meets are the set operations.
    """

    def __init__(self, universe: Iterable, leq_fn):
        self.universe = list(universe)
        self._leq_fn = leq_fn
        # below[u] = members dominated by u (including itself)
        self._below = {
            u: frozenset(v for v in self.universe if leq_fn(v, u)) for u in self.universe
        }
        self._uset = frozenset(self.universe)
        self._all: list[frozenset] | None = None

    def __repr__(self):
        return f"DownsetLattice({len(self.universe)} generators)"

    def down_close(self, members: Iterable) -> frozenset:
        out = set()
        for m in members:
            if m not in self._uset:
                raise UnknownElement(f"{m!r} is not in the universe")
            out |= self._below[m]
        return frozenset(out)

    def _enumerate(self) -> list[frozenset]:
        if self._all is None:
            n = len(self.universe)
            if 1 << n > DEFAULT_ENUM_CAP:
                raise SizeLimit(f"cannot enumerate down-sets of {n} generators")
            found = set()
            for r in range(n + 1):
                for combo in itertools.combinations(self.universe, r):
                    found.add(self.down_close(combo))
            self._all = sorted(found, key=lambda s: (len(s), sorted(map(repr, s))))
        return self._all

    @property
    def size(self) -> int:
        return len(self._enumerate())

    def elements(self):
        return iter(self._enumerate())

    def has_element(self, x) -> bool:
        if not isinstance(x, frozenset) or not x <= self._uset:
            return False
        return all(self._below[m] <= x for m in x)

    def sample(self, rng):
        p = rng.random()
        return self.down_close(u for u in self.universe if rng.random() < p)


class CribleQuantaloid(SetQuantaloid):
    """Sieves of spans between a finite category's objects.

    The lattice between two objects consists of the down-closed span
    sets ordered by inclusion; composition composes pointwise through
    the chosen pullbacks and closes down again.  Down-closure absorbs
    the apex isomorphisms, which is why associativity holds on the nose
    even though span composition is only associative up to isomorphism.
    ``compose`` is a pure function of its arguments and sieves are
    frozensets, so each composite is made once per instance and kept in
    ``_composites``.  A member is a span, written ``{apex, left, right}``.
    """

    member_order = staticmethod(lambda d: (d["apex"], d["left"], d["right"]))

    def __init__(self, cat: FiniteCategory):
        super().__init__(list(cat.objects))
        self.cat = cat
        self._composites: dict[tuple, frozenset] = {}  # (u, v, w, f, g) -> f.g
        for x in range(cat.n_objects):
            for y in range(cat.n_objects):
                if len(all_spans(cat, x, y)) > MAX_GENERATORS:
                    raise SizeLimit(
                        f"{len(all_spans(cat, x, y))} spans between "
                        f"{cat.objects[x]} and {cat.objects[y]}"
                    )

    def member_to_doc(self, s):
        cat = self.cat
        return {"apex": cat.objects[s.apex], "left": cat.morphisms[s.left].name,
                "right": cat.morphisms[s.right].name}

    def member_from_doc(self, doc):
        return span_from_doc(self.cat, doc)

    def construction_doc(self, name_of) -> dict:
        return {"construction": "sieves", "category": name_of(self.cat)}

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


def build_S_quantaloid(cat: FiniteCategory) -> CribleQuantaloid:
    """The sieve quantaloid of a finite category with chosen pullbacks."""
    return CribleQuantaloid(cat)


def quantaloid_from_doc(doc, resolve) -> SetQuantaloid:
    """The base of a ``powerset`` or ``sieves`` document over a category."""
    cat = resolve(doc["category"], FiniteCategory)
    if doc["construction"] == "powerset":
        return PowersetCatQuantaloid(cat)
    return build_S_quantaloid(cat)


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


def fincat_from_doc(doc) -> FiniteCategory:
    """The category of a ``fincat`` document: a poset or an explicit table."""
    if doc.get("construction") == "poset":
        names = doc["elements"]
        _name_lookup(doc, "elements", names)  # a repeated name is a ParseError
        pairs = _indices(doc, "leq", doc["leq"], len(names), "a pair of element indices", 2)
        order = _once(doc, "leq", ((pair, None) for pair in pairs))
        for i, name in enumerate(names):
            if (i, i) not in order:
                raise ParseError(f"{doc['name']}: leq misses the pair [{i}, {i}] of {name!r}")
        cat = FiniteCategory.poset(names, order)
    else:
        objects = _names(doc, "objects", doc["objects"])
        mor_names = _names(doc, "morphisms", doc["morphisms"], "name")
        n_mor, morphisms = len(mor_names), []
        for name, m in zip(mor_names, doc["morphisms"]):
            src, tgt = _indices(doc, f"morphism {name!r}", [[m["src"], m["tgt"]]],
                                len(objects), "a src, tgt pair of object indices", 2)[0]
            morphisms.append(Morphism(name, src, tgt))
        triples = _indices(doc, "compose", doc["compose"], n_mor, "a triple of morphism indices", 3)
        compose = _once(doc, "compose", ((t[:2], t[2]) for t in triples))
        identities = _indices(doc, "identities", doc["identities"], n_mor, "a morphism index")
        quadruples = _indices(doc, "pullbacks", doc.get("pullbacks", []), n_mor,
                              "a quadruple of morphism indices", 4)
        pullbacks = _once(doc, "pullbacks", ((q[:2], q[2:]) for q in quadruples))
        cat = FiniteCategory(objects, morphisms, compose, identities, pullbacks)
    require_valid("category", validate_fincat(cat))
    return cat


def fincat_to_doc(name: str, cat: FiniteCategory) -> dict:
    """The explicit ``fincat`` document of a category, a poset included."""
    return {
        "schema": SCHEMA,
        "name": name,
        "kind": "fincat",
        "objects": list(cat.objects),
        "morphisms": [
            {"name": m.name, "src": m.src, "tgt": m.tgt} for m in cat.morphisms
        ],
        "compose": sorted([f, g, h] for (f, g), h in cat.compose_table.items()),
        "identities": list(cat.identities),
        "pullbacks": sorted(
            [f, g, p1, p2] for (f, g), (p1, p2) in cat.pullbacks.items()
        ),
    }


def ctsspec_from_doc(doc, resolve) -> tuple[FiniteCategory, CtsSpec]:
    """The category and specification of a ``ctsspec`` document."""
    cat = resolve(doc["category"], FiniteCategory)
    index = _name_lookup(doc, "vertices", doc["vertices"], "name")
    vertices = [(v["name"], cat.object_index(v["type"])) for v in doc["vertices"]]
    edges = []
    for e in _objects(doc, "edges", doc["edges"]):
        s, t = index(e["src"]), index(e["tgt"])
        edges.append((s, t, span_from_doc(cat, _object(doc, "edge span", e["span"]))))
    return cat, CtsSpec(vertices, edges)


def sieve_base(bundle, fincat_name: str) -> CribleQuantaloid:
    """The sieve quantaloid of a category loaded in ``bundle``: the first
    sieve base over it there, else one built now and kept under the name
    ``S(<category>)``, which no other object may have."""
    cat = bundle.get(fincat_name, FiniteCategory)
    for obj in bundle.objects.values():
        if isinstance(obj, CribleQuantaloid) and obj.cat is cat:
            return obj
    name = f"S({fincat_name})"
    if name in bundle.objects:
        raise ValidationError(
            f"the sieve base of {fincat_name!r} would be named {name!r}, "
            f"but that names a {bundle.kinds[name]} that is not a sieve base over it"
        )
    sieves = bundle.objects[name] = build_S_quantaloid(cat)
    bundle.kinds[name] = "quantaloid"
    return sieves


# the commands ``cli.COMMANDS`` routes here: each returns its verdict and details
def cmd_cts_build(bundle, flags) -> tuple[str, dict]:
    from .laws import validate_quantaloid  # only cts-build checks the sieve base's laws

    cat, spec = bundle.get(flags.spec, "ctsspec")  # loaded as (category, spec)
    sieves = sieve_base(bundle, bundle.name_of(cat))
    base_report = validate_quantaloid(sieves)
    out = cts_to_vcat(sieves, spec)
    return "valid" if base_report.ok else "invalid", {
        "sieve_base_violations": base_report.violations,
        "result": bundle.store(flags.out, out),
    }


# read here by perfbench/tracer.py (T) and tests/test_acceptance.py (A)
__getattr__ = _moved(__name__, {
    "refine": "ctsrefine",  # T, A
    "CatFunctor": "ctsrefine", "crible_change_tse": "ctsrefine",  # A
})
