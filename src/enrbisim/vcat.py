"""Categories enriched over a quantaloid, their functors and (co)limits.

An enriched category is a finite object set, an extent map into the
base's objects, and a hom element in the base's hom lattice for each
ordered pair, subject to unit and composition inequalities.  Functors
are extent-preserving maps that never shrink homs.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple

from .errors import (
    BaseMismatch,
    NotComposable,
    NotParallel,
    SizeLimit,
    TypeMismatch,
    UnknownObject,
)
from .lattice import Lattice, PrincipalDownsetLattice
from .quantaloid import LanguageQuantale, Quantaloid


def require_same_base(a: "VCategory", b: "VCategory") -> None:
    if a.base is not b.base:
        raise BaseMismatch("the two categories live over different bases")


class VCategory:
    """An enrichment over a quantaloid.

    The constructor checks every hom against its lattice and raises
    ``UnknownElement`` for one outside it.  The hom table is stored as a
    tuple of tuples, so it cannot change after that check.
    """

    def __init__(
        self,
        base: Quantaloid,
        objects: list[str],
        extents: list[int],
        homs: list[list[Any]],
    ):
        n = len(objects)
        if len(extents) != n or len(homs) != n or any(len(row) != n for row in homs):
            raise ValueError("objects, extents and hom table sizes disagree")
        self.base = base
        self.objects = list(objects)
        self.extents = list(extents)
        self.homs = tuple(tuple(row) for row in homs)
        for e in self.extents:
            base.check_object(e)
        # the boundary: every hom is checked here once, so interior loops
        # may use the unchecked lattice cores on it
        self._lattices: dict[tuple[int, int], Lattice] = {}
        for i, row in enumerate(self.homs):
            for j, x in enumerate(row):
                self.hom_lattice(i, j).check_element(x)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise UnknownObject(f"no object named {name!r}") from None

    def hom(self, i: int, j: int):
        return self.homs[i][j]

    def hom_lattice(self, i: int, j: int) -> Lattice:
        key = (self.extents[i], self.extents[j])
        lat = self._lattices.get(key)
        if lat is None:
            lat = self._lattices[key] = self.base.hom(*key)
        return lat

    def fiber(self, base_object: int) -> list[int]:
        return [i for i, e in enumerate(self.extents) if e == base_object]

    def __repr__(self):
        return f"VCategory({self.objects})"


def validate_vcategory(a: VCategory) -> list[str]:
    """Check the unit bounds and the composition inequality.

    Hom typing is the constructor's job.  The composition law is checked
    only where both ``hom(i,j)`` and ``hom(j,k)`` are not bottom.  That is
    exact when the base satisfies the quantaloid laws, so that composing
    with bottom on either side gives bottom, which lies below every hom:
    ``validate_quantaloid`` checks those laws for table bases, and the
    structural bases meet them by construction.
    """
    out = []
    base, n, ext, homs = a.base, a.n_objects, a.extents, a.homs
    for i in range(n):
        lat = a.hom_lattice(i, i)
        if not lat.leq(base.unit(ext[i]), homs[i][i]):
            out.append(f"identity not below hom({a.objects[i]},{a.objects[i]})")
    bottoms = {key: base.hom(*key).bottom for key in itertools.product(set(ext), repeat=2)}
    nonbottom = [
        [k for k in range(n) if homs[j][k] != bottoms[ext[j], ext[k]]] for j in range(n)
    ]
    for i in range(n):
        ei, row_i = ext[i], homs[i]
        lats = [a.hom_lattice(i, k) for k in range(n)]
        for j in nonbottom[i]:
            ej, f, row_j = ext[j], row_i[j], homs[j]
            for k in nonbottom[j]:
                comp = base.compose(ei, ej, ext[k], f, row_j[k])
                if not lats[k]._leq(comp, row_i[k]):
                    out.append(
                        "composition fails at "
                        f"({a.objects[i]},{a.objects[j]},{a.objects[k]})"
                    )
    return out


class VFunctor:
    """An extent-preserving, hom-non-decreasing map between enrichments."""

    def __init__(self, source: VCategory, target: VCategory, mapping: list[int]):
        if len(mapping) != source.n_objects:
            raise ValueError("mapping size disagrees with the source")
        for t in mapping:
            if not 0 <= t < target.n_objects:
                raise UnknownObject(f"target index {t} out of range")
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def then(self, other: "VFunctor") -> "VFunctor":
        if self.target is not other.source:
            raise NotComposable("functor endpoints do not line up")
        return VFunctor(
            self.source, other.target, [other(self(i)) for i in range(self.source.n_objects)]
        )

    def is_surjective(self) -> bool:
        return set(self.mapping) == set(range(self.target.n_objects))

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    @classmethod
    def identity(cls, a: VCategory) -> "VFunctor":
        return cls(a, a, list(range(a.n_objects)))

    def __repr__(self):
        return f"VFunctor({self.mapping})"


def validate_vfunctor(f: VFunctor) -> list[str]:
    require_same_base(f.source, f.target)
    out = []
    a, b = f.source, f.target
    for i in range(a.n_objects):
        if a.extents[i] != b.extents[f(i)]:
            out.append(f"extent changes at {a.objects[i]}")
    if out:
        return out
    # both hom tables were checked by their constructors
    m = f.mapping
    for i, row in enumerate(a.homs):
        row_fi = b.homs[m[i]]
        for j, x in enumerate(row):
            if not a.hom_lattice(i, j)._leq(x, row_fi[m[j]]):
                out.append(f"hom shrinks at ({a.objects[i]},{a.objects[j]})")
    return out


def exists_vnatural(f: VFunctor, g: VFunctor) -> bool:
    """Whether the unique candidate transformation from f to g exists."""
    if f.source is not g.source or f.target is not g.target:
        raise NotParallel("the functors are not parallel")
    a, b = f.source, f.target
    return all(
        b.hom_lattice(f(i), g(i)).leq(b.base.unit(a.extents[i]), b.hom(f(i), g(i)))
        for i in range(a.n_objects)
    )


def pullback(f: VFunctor, g: VFunctor) -> tuple[VCategory, VFunctor, VFunctor]:
    """Pairs agreeing in the target, with the meets of the factors' homs.

    Over the maps into ``terminal`` this is the product.
    """
    if f.target is not g.target:
        raise BaseMismatch("pullback needs a common codomain")
    a, b = f.source, g.source
    require_same_base(a, b)
    pairs = [
        (i, j)
        for i in range(a.n_objects)
        for j in range(b.n_objects)
        if a.extents[i] == b.extents[j] and f(i) == g(j)
    ]
    names = [f"({a.objects[i]}|{b.objects[j]})" for i, j in pairs]
    extents = [a.extents[i] for i, _ in pairs]
    homs = [
        [
            a.hom_lattice(i1, i2).meet([a.hom(i1, i2), b.hom(j1, j2)])
            for (i2, j2) in pairs
        ]
        for (i1, j1) in pairs
    ]
    p = VCategory(a.base, names, extents, homs)
    return p, VFunctor(p, a, [i for i, _ in pairs]), VFunctor(p, b, [j for _, j in pairs])


def terminal(base: Quantaloid) -> VCategory:
    """One point per base object, with the top element as every hom."""
    n = base.n_objects
    names = [f"*{base.objects[u]}" for u in range(n)]
    homs = [[base.hom(u, v).top for v in range(n)] for u in range(n)]
    return VCategory(base, names, list(range(n)), homs)


def to_terminal(a: VCategory, one: VCategory) -> VFunctor:
    """The unique extent-determined map into the terminal enrichment."""
    return VFunctor(a, one, [a.extents[i] for i in range(a.n_objects)])


def coproduct(parts: list[VCategory]) -> tuple[VCategory, list[VFunctor]]:
    """Disjoint union; homs across different summands are bottom."""
    if not parts:
        raise ValueError("coproduct needs at least one summand (may be empty)")
    base = parts[0].base
    for p in parts[1:]:
        if p.base is not base:
            raise BaseMismatch("summands live over different bases")
    names, extents, owner = [], [], []
    for idx, p in enumerate(parts):
        for i in range(p.n_objects):
            names.append(f"{p.objects[i]}#{idx}")
            extents.append(p.extents[i])
            owner.append((idx, i))
    homs = []
    for x, (ia, i) in enumerate(owner):
        row = []
        for y, (ib, j) in enumerate(owner):
            if ia == ib:
                row.append(parts[ia].hom(i, j))
            else:
                row.append(base.hom(extents[x], extents[y]).bottom)
        homs.append(row)
    total = VCategory(base, names, extents, homs)
    injections = []
    offset = 0
    for p in parts:
        injections.append(
            VFunctor(p, total, list(range(offset, offset + p.n_objects)))
        )
        offset += p.n_objects
    return total, injections


class EnrichedGraph(NamedTuple):
    """Generators for a free enrichment: typed vertices, labelled edges."""

    vertices: list[tuple[str, int]]  # (name, base object index)
    edges: list[tuple[int, int, Any]]  # (src vertex, tgt vertex, hom element)


def free_vcategory(base: Quantaloid, graph: EnrichedGraph) -> VCategory:
    """Smallest enrichment whose homs dominate the edge labels.

    Ascending closure under identities, labels and composition; it
    terminates because every hom lattice is finite.  Over a language
    quantale the closure is computed by the length-indexed path sweep,
    which gives the same least fixed point without concatenating large
    languages.
    """
    names = [name for name, _ in graph.vertices]
    extents = [ext for _, ext in graph.vertices]
    for ext in extents:
        base.check_object(ext)
    n = len(names)
    for s, t, label in graph.edges:
        if not base.hom(extents[s], extents[t]).has_element(label):
            raise TypeMismatch(
                f"edge label {label!r} is not in hom of extents "
                f"({base.objects[extents[s]]},{base.objects[extents[t]]})"
            )

    if isinstance(base, LanguageQuantale):
        labelled = [(s, t, base.truncate(lab)) for s, t, lab in graph.edges]
        return VCategory(base, names, extents, base.path_homs(n, labelled))
    return VCategory(base, names, extents, _kleene_closure(base, extents, graph.edges))


def _kleene_closure(base: Quantaloid, extents: list[int], edges) -> list[list[Any]]:
    """Ascending closure under identities, labels and composition."""
    n = len(extents)
    homs = []
    for i in range(n):
        row = []
        for j in range(n):
            lat = base.hom(extents[i], extents[j])
            start = [lab for s, t, lab in edges if s == i and t == j]
            if i == j:
                start.append(base.unit(extents[i]))
            row.append(lat.join(start))
        homs.append(row)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    lat = base.hom(extents[i], extents[j])
                    comp = base.compose(
                        extents[i], extents[k], extents[j], homs[i][k], homs[k][j]
                    )
                    if not lat.leq(comp, homs[i][j]):
                        homs[i][j] = lat.join([homs[i][j], comp])
                        changed = True
    return homs


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
    from .errors import ValidationError
    from .quantaloid import build_powerset_quantaloid

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
    n = len(names)
    homs = [[frozenset() for _ in range(n)] for _ in range(n)]
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
    homs = [
        [x.hom(i, j) for j in range(x.n_objects)] for i in range(x.n_objects)
    ]
    return VCategory(va, list(x.objects), list(f.mapping), homs)


def decode_slice(va: SliceQuantaloid, s: VCategory) -> VFunctor:
    """Inverse of ``encode_slice``: rebuild the functor into the base."""
    if s.base is not va:
        raise BaseMismatch("the category does not live over this slice")
    a = va.vcategory
    extents = [a.extents[s.extents[i]] for i in range(s.n_objects)]
    homs = [
        [s.hom(i, j) for j in range(s.n_objects)] for i in range(s.n_objects)
    ]
    x = VCategory(a.base, list(s.objects), extents, homs)
    return VFunctor(x, a, list(s.extents))


def same_presentation(a: VCategory, b: VCategory) -> bool:
    """Exact equality of presentation: names, extents and hom tables."""
    return (
        a.base is b.base
        and a.objects == b.objects
        and a.extents == b.extents
        and a.homs == b.homs
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
