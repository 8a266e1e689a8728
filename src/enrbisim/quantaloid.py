"""Finite quantaloids: hom lattices, join-preserving composition, units.

A quantaloid here is a finite object set with a complete lattice of
arrows between each ordered pair, an associative composition that
preserves joins in each argument separately, and identity arrows.
One-object quantaloids are quantales.  This module holds the interface
and the relation bases.  Each other family of bases has a module that
builds, reads, writes and checks its own: ``tables`` (explicit tables,
truth values, metric grids), ``language`` (truncated word languages)
and ``cts`` (powersets and sieves of a finite category).  ``laws``
checks a base's quantaloid laws.  A request imports only the families
its documents name; the names that moved still resolve here.
"""

from __future__ import annotations

import collections
import itertools
from typing import Any, NamedTuple

from . import _moved
from .errors import NotComposable, ParseError, SizeLimit, UnknownObject, ValidationError
from .lattice import MAX_GENERATORS, Lattice, PowersetLattice


class QuantaloidElement(NamedTuple):
    """An arrow of a quantaloid: a value in hom(source, target)."""

    source: int
    target: int
    value: Any


def name_index(names: list[str], what: str = "object", error=UnknownObject):
    """The position of a name among ``names`` (the first, if repeated), looked
    up as given in one dict: any other value, a non-string or unhashable one
    included, is ``error("no <what> named ...")``."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)

    def lookup(name) -> int:
        try:
            return index[name]
        except (KeyError, TypeError):
            raise error(f"no {what} named {name!r}") from None

    return lookup


class Quantaloid:
    """Interface for finite quantaloids with opaque hom elements."""

    def __init__(self, objects: list[str]):
        self.objects = list(objects)
        self.object_index = name_index(self.objects)
        self._hom_cache: dict[tuple[int, int], Lattice] = {}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def check_object(self, u: int) -> None:
        if not 0 <= u < len(self.objects):
            raise UnknownObject(f"object index {u} out of range")

    def hom(self, u: int, v: int) -> Lattice:
        # only checked pairs are cached, so a hit needs no check
        try:
            return self._hom_cache[u, v]
        except KeyError:
            pass
        self.check_object(u)
        self.check_object(v)
        lat = self._hom_cache[u, v] = self._make_hom(u, v)
        return lat

    def _make_hom(self, u: int, v: int) -> Lattice:
        raise NotImplementedError

    def compose(self, u: int, v: int, w: int, f, g):
        """Raw composite of ``f`` in hom(u,v) with ``g`` in hom(v,w).

        The arguments are trusted, not checked: ``tensor`` is the checked
        entry point.
        """
        raise NotImplementedError

    def unit(self, u: int):
        raise NotImplementedError

    def element(self, source: int, target: int, value) -> QuantaloidElement:
        self.hom(source, target).check_element(value)
        return QuantaloidElement(source, target, value)

    def construction_doc(self, name_of) -> dict:
        """What the base's ``quantaloid`` document says after its name and
        kind; ``name_of`` gives the bundle name of a category it is built on."""
        raise ValidationError(f"cannot serialize base {self!r}")

    def composition_law_holds(self, rows) -> bool:
        """Whether a check of the base's own shows ``hom(i,j) . hom(j,l) <=
        hom(i,l)`` for the rows of an enrichment (``VCategory.rows``).
        False leaves the law to ``validate_vcategory``'s generic check."""
        return False

    def is_locally_distributive(self) -> bool:
        return all(
            self.hom(u, v).is_distributive()
            for u in range(self.n_objects)
            for v in range(self.n_objects)
        )

    def free_homs(self, extents: list[int], edges) -> list[dict[int, Any]]:
        """Hom rows of the free enrichment on a graph whose vertices have
        ``extents`` and whose ``edges`` are ``(source, target, label)``:
        here the ascending closure under identities, labels and
        composition, which a base with a faster way overrides.

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

        ``self.compose`` is a pure function of its arguments and hom
        elements are hashable, so each distinct ``(extents, f, g)`` is
        composed once, into a cache that lives for the call; over a base
        whose homs take few values that cache is small and most steps are
        dictionary hits.
        """
        n = len(extents)
        lattices = {key: self.hom(*key) for key in itertools.product(set(extents), repeat=2)}
        row_lattices = {u: [lattices[u, v] for v in extents] for u in set(extents)}
        bottoms = {u: [lat._join(()) for lat in lats] for u, lats in row_lattices.items()}
        labels: dict[tuple[int, int], list] = {}
        for s, t, lab in edges:
            labels.setdefault((s, t), []).append(lab)
        out: list[list[tuple[int, int, Any]]] = [[] for _ in range(n)]  # (j, e_j, label of k -> j)
        for (s, t), labs in labels.items():
            out[s].append((t, extents[t], lattices[extents[s], extents[t]]._join(labs)))
        composites: dict = {}  # (e_i, e_k, e_j, f, g) -> self.compose of them
        homs = []
        for i in range(n):
            ei, lats, bottoms_i = extents[i], row_lattices[extents[i]], bottoms[extents[i]]
            row = {i: self.unit(ei)}
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
                        comp = composites[key] = self.compose(*key)
                    lat, have = lats[j], row.get(j, bottoms_i[j])
                    if not lat._leq(comp, have):
                        row[j] = comp if lat._leq(have, comp) else lat._join([have, comp])
                        if j not in queued:
                            queued.add(j)
                            pending.append(j)
            homs.append(row)
        return homs

    def __repr__(self):
        return f"{type(self).__name__}({self.objects})"


class SetQuantaloid(Quantaloid):
    """A quantaloid whose hom elements are frozensets of members, which a
    document lists sorted by the key ``member_order`` (``None``: as they
    compare).  Members are tuples, written as lists, unless a subclass
    overrides ``member_to_doc`` and ``member_from_doc``."""

    member_order = None

    def member_to_doc(self, m) -> Any:
        return list(m)

    def member_from_doc(self, doc):
        if not isinstance(doc, list):
            raise ParseError(f"a member must be a list, not {doc!r}")
        return tuple(doc)

    def element_to_doc(self, u, v, x):
        return sorted(map(self.member_to_doc, x), key=self.member_order)

    def element_from_doc(self, u, v, doc):
        if not isinstance(doc, list):
            raise ParseError(f"a set element must be a list of members, not {doc!r}")
        return frozenset(map(self.member_from_doc, doc))


class RelQuantaloid(SetQuantaloid):
    """Sets, with binary relations ordered by inclusion as arrows; a member is a pair ``[x, y]``."""

    def __init__(self, sets: list[list]):
        super().__init__([f"X{i}" for i in range(len(sets))])
        self.sets = [list(s) for s in sets]

    def _make_hom(self, u, v):
        return PowersetLattice(itertools.product(self.sets[u], self.sets[v]))

    def compose(self, u, v, w, f, g):
        return frozenset(
            (x, z) for x, y in f for y2, z in g if y == y2
        )

    def unit(self, u):
        return frozenset((x, x) for x in self.sets[u])

    def construction_doc(self, name_of) -> dict:
        return {"construction": "rel", "sets": [list(s) for s in self.sets]}


def tensor(q: Quantaloid, f: QuantaloidElement, g: QuantaloidElement) -> QuantaloidElement:
    """Composite arrow ``f`` then ``g`` (diagrammatic order)."""
    if f.target != g.source:
        raise NotComposable(
            f"cannot compose {f.source}->{f.target} with {g.source}->{g.target}"
        )
    q.hom(f.source, f.target).check_element(f.value)
    q.hom(g.source, g.target).check_element(g.value)
    value = q.compose(f.source, f.target, g.target, f.value, g.value)
    return QuantaloidElement(f.source, g.target, value)


def build_rel_quantaloid(sets: list[list]) -> RelQuantaloid:
    """Relations between the given finite sets, ordered by inclusion."""
    if not sets:
        raise ValueError("need at least one set")
    if any(len(set(a)) != len(a) for a in sets):
        raise ValueError("a set repeats an element")
    for a in sets:
        for b in sets:
            if len(a) * len(b) > MAX_GENERATORS:
                raise SizeLimit(
                    f"hom powerset would have 2^{len(a) * len(b)} elements"
                )
    return RelQuantaloid(sets)


def quantaloid_from_doc(doc, resolve) -> RelQuantaloid:
    """The base of a ``rel`` document."""
    return build_rel_quantaloid([list(s) for s in doc["sets"]])


__getattr__ = _moved(__name__, {
    **dict.fromkeys(
        ("INF", "TableQuantaloid", "MetricQuantale", "grid_value", "build_boolean_quantale",
         "build_metric_quantale"), "tables"),
    **dict.fromkeys(("LanguageQuantale", "MAX_WORDS", "build_language_quantale"), "language"),
    **dict.fromkeys(("QuantaloidReport", "validate_quantaloid", "_law_compositions"), "laws"),
})
