"""Categories enriched over a quantaloid, their functors, pullbacks and free constructions.

An enriched category is a finite object set, an extent map into the
base's objects, and a hom element in the base's hom lattice for each
ordered pair, subject to unit and composition inequalities.  Functors
are extent-preserving maps that never shrink homs.
"""

from __future__ import annotations

import collections
import itertools
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from .errors import BaseMismatch, NotComposable, TypeMismatch, UnknownObject
from .lattice import Lattice
from .quantaloid import LanguageQuantale, Quantaloid


def require_same_base(a: "VCategory", b: "VCategory") -> None:
    if a.base is not b.base:
        raise BaseMismatch("the two categories live over different bases")


class VCategory:
    """An enrichment over a quantaloid.

    ``homs`` gives one row per object, ``{target: hom}``; a target it
    leaves out has the bottom hom.  The constructor is the one place that
    decides how homs are stored and which are bottom: a hom with the
    bottom's own type that equals it is dropped, and every other one is
    checked against its lattice (``UnknownElement`` if outside it).
    ``rows[i]`` lists object ``i``'s non-bottom homs as ``(target, hom,
    lattice)`` in target order, and ``row_maps[i]`` maps those targets to
    their homs; both are read-only.
    """

    def __init__(
        self,
        base: Quantaloid,
        objects: list[str],
        extents: list[int],
        homs: list[Mapping[int, Any]],
    ):
        n = len(objects)
        if len(extents) != n or len(homs) != n:
            raise ValueError("objects, extents and hom rows disagree in number")
        self.base = base
        self.objects = list(objects)
        self.extents = list(extents)
        for e in self.extents:
            base.check_object(e)
        # the boundary: every non-bottom hom is checked here once, so
        # interior loops may use the unchecked lattice cores on it
        self._lattices: dict[tuple[int, int], Lattice] = {}  # by extent pair
        self._bottoms: dict[tuple[int, int], Any] = {}
        kinds = {}  # extent pair -> (lattice, bottom, type of bottom)
        for key in itertools.product(set(self.extents), repeat=2):
            lat = self._lattices[key] = base.hom(*key)
            bottom = self._bottoms[key] = lat.bottom
            kinds[key] = (lat, bottom, type(bottom))
        row_kinds = {u: [kinds[u, v] for v in self.extents] for u in set(self.extents)}
        rows = []
        for i, row in enumerate(homs):
            targets = sorted(row.keys())  # a dense list row fails here, not misread
            if targets and not (0 <= targets[0] and targets[-1] < n):
                raise ValueError(f"hom row {i} has a target outside 0..{n - 1}")
            kinds_i = row_kinds[self.extents[i]]
            out = []
            for j in targets:
                x = row[j]
                lat, bottom, bottom_type = kinds_i[j]
                if type(x) is bottom_type and x == bottom:
                    continue
                lat.check_element(x)
                out.append((j, x, lat))
            rows.append(tuple(out))
        self.rows = tuple(rows)
        self.row_maps = tuple(MappingProxyType({j: x for j, x, _ in row}) for row in rows)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise UnknownObject(f"no object named {name!r}") from None

    def _extent_pair(self, i: int, j: int) -> tuple[int, int]:
        n = len(self.objects)
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownObject(f"object index pair ({i}, {j}) out of range")
        return self.extents[i], self.extents[j]

    def hom(self, i: int, j: int):
        key = self._extent_pair(i, j)
        return self.row_maps[i].get(j, self._bottoms[key])

    def hom_lattice(self, i: int, j: int) -> Lattice:
        return self._lattices[self._extent_pair(i, j)]

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
    the law is first decided on word masks (``_language_law_holds``).

    Otherwise each row's non-bottom targets are grouped by (extent, hom
    value) into bitmasks (``_value_groups``).  At each non-bottom
    ``hom(i,j) = f`` a group ``(e, g)`` of row ``j`` is composed once,
    to ``c = f.g``; its failing targets are its bits outside the mask of
    the targets ``k`` of extent ``e`` with ``c <= hom(i,k)``.  That mask
    is built once per row ``i`` and ``(e, c)`` from row ``i``'s own
    groups (no bits when ``c`` is not below bottom, as for every target
    outside row ``i``; all of them when it is).  A group with no more
    targets than row ``i`` has groups of extent ``e`` is compared target
    by target instead, so no row makes more ``_leq`` calls than one
    comparison per composable triple.  Violations are listed in
    ``(i, j, k)`` order.
    """
    out = []
    base, ext, rows = a.base, a.extents, a.rows
    for i in range(a.n_objects):
        lat = a.hom_lattice(i, i)
        if not lat.leq(base.unit(ext[i]), a.hom(i, i)):
            out.append(f"identity not below hom({a.objects[i]},{a.objects[i]})")
    if isinstance(base, LanguageQuantale) and _language_law_holds(base, rows):
        return out
    groups = [_value_groups(row, ext) for row in rows]
    names, lattices = a.objects, a._lattices
    for i, row_i in enumerate(rows):
        ei, map_i = ext[i], a.row_maps[i]
        scope = {}  # extent e -> (lattice, bottom, [(value, bits)] of row i's groups in e)
        for (u, e), lat in lattices.items():
            if u == ei:
                scope[e] = (lat, lat._join(()), [])
        for e, v, bits, _ in groups[i]:
            scope[e][2].append((v, bits))
        masks: dict = {}  # (extent, composite) -> bits of the targets above it
        for j, f, _ in row_i:
            ej = ext[j]
            failed = 0
            for e, g, bits, targets in groups[j]:
                c = base.compose(ei, ej, e, f, g)
                mask = masks.get((e, c))
                if mask is None:
                    lat, bottom, mine = scope[e]
                    if len(targets) <= len(mine):
                        for k in targets:
                            if not lat._leq(c, map_i.get(k, bottom)):
                                failed |= 1 << k
                        continue
                    if lat._leq(c, bottom):
                        mask = -1
                    else:
                        mask = 0
                        for v, vbits in mine:
                            if lat._leq(c, v):
                                mask |= vbits
                    masks[e, c] = mask
                failed |= bits & ~mask
            while failed:
                k = (failed & -failed).bit_length() - 1
                failed &= failed - 1
                out.append(f"composition fails at ({names[i]},{names[j]},{names[k]})")
    return out


def _value_groups(row, extents) -> list:
    """A row's non-bottom targets grouped by (extent, hom value), as
    ``(extent, value, bitmask of the targets, their list in order)``."""
    groups: dict = {}
    for k, g, _ in row:
        groups.setdefault((extents[k], g), []).append(k)
    return [(e, g, sum(1 << k for k in ks), ks) for (e, g), ks in groups.items()]


def _language_law_holds(base: LanguageQuantale, rows) -> bool:
    """Whether ``hom(i,j) . hom(j,l) <= hom(i,l)`` for all ``i, j, l``.

    ``rows`` are an enrichment's non-bottom rows (``VCategory.rows``).
    Row ``i`` becomes a map ``masks[i]`` from each word to the bitmask of
    the targets ``l`` whose hom contains it.  The law holds exactly when
    ``masks[j][w] <= masks[i][u.w]`` (as bit sets) for every word ``u`` in
    ``hom(i,j)`` and every word ``w`` of row ``j`` with ``|u| + |w| <= k``.
    Each row's words are bucketed by length, so only those pairs are
    visited.  Each concatenation comes from ``base.compose`` on
    singletons, once per word pair, so truncation is defined in one place.
    """
    cutoff = base.k
    masks: list[dict[tuple, int]] = []
    by_length: list[list[list[tuple[tuple, int]]]] = []
    for row in rows:
        mask: dict[tuple, int] = {}
        for t, words, _ in row:
            bit = 1 << t
            for w in words:
                mask[w] = mask.get(w, 0) | bit
        buckets: list[list[tuple[tuple, int]]] = [[] for _ in range(cutoff + 1)]
        for w, m in mask.items():
            buckets[len(w)].append((w, m))
        masks.append(mask)
        by_length.append(buckets)
    concat: dict[tuple, dict[tuple, tuple]] = {}
    for i, (row, mask_i) in enumerate(zip(rows, masks)):
        for j, words, _ in row:
            buckets = by_length[j]
            for u in words:
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
    # both hom tables were checked by their constructors, and a bottom
    # hom lies below any image
    m = f.mapping
    for i, row in enumerate(a.rows):
        for j, x, lat in row:
            if not lat._leq(x, b.hom(m[i], m[j])):
                out.append(f"hom shrinks at ({a.objects[i]},{a.objects[j]})")
    return out


def pullback(f: VFunctor, g: VFunctor) -> tuple[VCategory, VFunctor, VFunctor]:
    """Pairs agreeing in the target, with the meets of the factors' homs.

    Over the maps into ``terminal`` this is the product.  A meet with a
    bottom hom is bottom, so only pairs of non-bottom homs are met.
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
    at = {pair: p for p, pair in enumerate(pairs)}
    homs = [
        {
            at[i2, j2]: lat.meet([x, y])
            for i2, x, lat in a.rows[i1]
            for j2, y, _ in b.rows[j1]
            if (i2, j2) in at
        }
        for i1, j1 in pairs
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
    terminates because every hom lattice is finite.  Both paths work one
    source at a time, since row ``i`` of the closure is the least
    solution of ``r = unit(i) ∨ r·E`` over the edge labels ``E``.  Over
    a language quantale that is ``path_homs``'s forward sweep, which
    never concatenates large languages; over every other base it is
    ``_kleene_closure``'s worklist of the targets whose hom grew.
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


def _kleene_closure(base: Quantaloid, extents: list[int], edges) -> list[dict[int, Any]]:
    """Ascending closure under identities, labels and composition.

    Row ``i`` of the closure is the least solution of
    ``r = unit(i) ∨ r·E``, where ``E`` joins the parallel edge labels of
    each ``(s, t)`` once.  Because composition preserves joins in each
    argument, that row equals the least fixed point of joining
    ``hom(i,k)·hom(k,j)`` into ``hom(i,j)`` over all ``(i, k, j)``:
    ``validate_quantaloid`` certifies the laws for table bases, and the
    structural bases have them by construction.  So each source runs a
    worklist of its own.  Row ``i`` starts as the unit at ``i`` joined
    with ``i``'s edge labels, and the queue (first in, first out) holds
    the targets ``k`` whose ``hom(i,k)`` grew; for each edge ``k -> j``
    labelled ``g``, the composite ``hom(i,k)·g`` is joined into
    ``hom(i,j)`` (it replaces a hom it lies above), and ``j`` is queued
    again only if its hom grew.  A target row ``i`` never reaches is
    never composed from, which is exact because bottom composes to
    bottom.  A source's work is the out-edges of the targets it reaches,
    once for each time their hom grows, where the passes it replaces
    visited all n³ cells, a last pass that changed nothing included.

    ``base.compose`` is a pure function of its arguments and hom
    elements are hashable, so each distinct ``(extents, f, g)`` is
    composed once, into a cache that lives for the call; over a base
    whose homs take few values that cache is small and most steps are
    dictionary hits.
    """
    n = len(extents)
    lattices = {key: base.hom(*key) for key in itertools.product(set(extents), repeat=2)}
    row_lattices = {u: [lattices[u, v] for v in extents] for u in set(extents)}
    bottoms = {u: [lat._join(()) for lat in lats] for u, lats in row_lattices.items()}
    labels: dict[tuple[int, int], list] = {}
    for s, t, lab in edges:
        labels.setdefault((s, t), []).append(lab)
    out: list[list[tuple[int, int, Any]]] = [[] for _ in range(n)]  # (j, e_j, label of k -> j)
    for (s, t), labs in labels.items():
        out[s].append((t, extents[t], lattices[extents[s], extents[t]]._join(labs)))
    composites: dict = {}  # (e_i, e_k, e_j, f, g) -> base.compose of them
    homs = []
    for i in range(n):
        ei, lats, bottoms_i = extents[i], row_lattices[extents[i]], bottoms[extents[i]]
        row = {i: base.unit(ei)}
        for j, _, g in out[i]:
            row[j] = lats[j]._join([row[j], g]) if j in row else g
        pending = collections.deque([i, *(j for j, _, _ in out[i] if j != i)])
        queued = set(pending)
        while pending:
            k = pending.popleft()
            queued.discard(k)
            f, ek = row[k], extents[k]
            for j, ej, g in out[k]:
                key = (ei, ek, ej, f, g)
                try:
                    comp = composites[key]
                except KeyError:
                    comp = composites[key] = base.compose(*key)
                lat, have = lats[j], row.get(j, bottoms_i[j])
                if not lat._leq(comp, have):
                    row[j] = comp if lat._leq(have, comp) else lat._join([have, comp])
                    if j not in queued:
                        queued.add(j)
                        pending.append(j)
        homs.append(row)
    return homs
