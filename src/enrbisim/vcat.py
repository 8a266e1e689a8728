"""Categories enriched over a quantaloid, their functors, pullbacks and free constructions.

An enriched category is a finite object set, an extent map into the
base's objects, and a hom element in the base's hom lattice for each
ordered pair, subject to unit and composition inequalities.  Functors
are extent-preserving maps that never shrink homs.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple

from .errors import BaseMismatch, NotComposable, TypeMismatch, UnknownObject
from .lattice import Lattice
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
    structural bases meet them by construction.  Over a language quantale
    the law is first decided on word masks (``_language_law_holds``); the
    triple loop then runs only to list the violations.
    """
    out = []
    base, n, ext, homs = a.base, a.n_objects, a.extents, a.homs
    for i in range(n):
        lat = a.hom_lattice(i, i)
        if not lat.leq(base.unit(ext[i]), homs[i][i]):
            out.append(f"identity not below hom({a.objects[i]},{a.objects[i]})")
    if isinstance(base, LanguageQuantale) and _language_law_holds(base, homs):
        return out
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


def _language_law_holds(base: LanguageQuantale, homs) -> bool:
    """Whether ``hom(i,j) . hom(j,l) <= hom(i,l)`` for all ``i, j, l``.

    Row ``i`` becomes a map ``masks[i]`` from each word to the bitmask of
    the targets ``l`` whose hom contains it.  The law holds exactly when
    ``masks[j][w] <= masks[i][u.w]`` (as bit sets) for every word ``u`` in
    ``hom(i,j)`` and every word ``w`` of row ``j`` with ``|u| + |w| <= k``.
    Each row's words are bucketed by length, so only those pairs are
    visited.  Each concatenation comes from ``base.compose`` on
    singletons, once per word pair, so truncation is defined in one place.
    """
    cutoff = base.k
    targets: list[list[int]] = []
    masks: list[dict[tuple, int]] = []
    by_length: list[list[list[tuple[tuple, int]]]] = []
    for row in homs:
        reached = [t for t, words in enumerate(row) if words]
        mask: dict[tuple, int] = {}
        for t in reached:
            bit = 1 << t
            for w in row[t]:
                mask[w] = mask.get(w, 0) | bit
        buckets: list[list[tuple[tuple, int]]] = [[] for _ in range(cutoff + 1)]
        for w, m in mask.items():
            buckets[len(w)].append((w, m))
        targets.append(reached)
        masks.append(mask)
        by_length.append(buckets)
    concat: dict[tuple, dict[tuple, tuple]] = {}
    for i, (row, reached, mask_i) in enumerate(zip(homs, targets, masks)):
        for j in reached:
            buckets = by_length[j]
            for u in row[j]:
                if j == i and not u:
                    continue  # the unit at i composes to each word of row i itself
                after_u = concat.setdefault(u, {})
                for length in range(cutoff - len(u) + 1):
                    for w, m in buckets[length]:
                        uw = after_u.get(w)
                        if uw is None:
                            (uw,) = base.compose(0, 0, 0, frozenset((u,)), frozenset((w,)))
                            after_u[w] = uw
                        if m & ~mask_i.get(uw, 0):
                            return False
    return True


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


class EnrichedGraph(NamedTuple):
    """Generators for a free enrichment: typed vertices, labelled edges."""

    vertices: list[tuple[str, int]]  # (name, base object index)
    edges: list[tuple[int, int, Any]]  # (src vertex, tgt vertex, hom element)


def free_vcategory(base: Quantaloid, graph: EnrichedGraph) -> VCategory:
    """Smallest enrichment whose homs dominate the edge labels.

    Ascending closure under identities, labels and composition; it
    terminates because every hom lattice is finite.  Over a language
    quantale the closure is ``path_homs``'s forward sweep from each
    source, which gives the same least fixed point without concatenating
    large languages.
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
