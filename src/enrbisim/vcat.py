"""Categories enriched over a quantaloid and their free constructions.

An enriched category is a finite object set, an extent map into the
base's objects, and a hom element in the base's hom lattice for each
ordered pair, subject to unit and composition inequalities.  Functors
between them, and their pullbacks, are ``witness``'s; their names still
resolve here.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from . import _moved
from .errors import BaseMismatch, TypeMismatch, UnknownObject
from .lattice import Lattice
from .quantaloid import Quantaloid, name_index


# Most pairs of objects an engine may start from or a construction may
# build homs between: two 1,600-object automata over one extent have 2.56e6.
MAX_PAIRS = 1 << 22


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
        self.object_index = name_index(self.objects)
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
    structural bases meet them by construction.  A base with a check of
    its own decides the law first (``composition_law_holds``: a language
    quantale compares word masks).

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
    if base.composition_law_holds(rows):
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


class EnrichedGraph(NamedTuple):
    """Generators for a free enrichment: typed vertices, labelled edges."""

    vertices: list[tuple[str, int]]  # (name, base object index)
    edges: list[tuple[int, int, Any]]  # (src vertex, tgt vertex, hom element)


def free_vcategory(base: Quantaloid, graph: EnrichedGraph) -> VCategory:
    """Smallest enrichment whose homs dominate the edge labels.

    Ascending closure under identities, labels and composition; it
    terminates because every hom lattice is finite.  The base computes it
    (``Quantaloid.free_homs``): by default a worklist of the targets whose
    hom grew, and over a language quantale ``path_homs``'s forward sweep.
    """
    names = [name for name, _ in graph.vertices]
    extents = [ext for _, ext in graph.vertices]
    for ext in extents:
        base.check_object(ext)
    for s, t, label in graph.edges:
        if not base.hom(extents[s], extents[t]).has_element(label):
            raise TypeMismatch(
                f"edge label {label!r} is not in hom of extents "
                f"({base.objects[extents[s]]},{base.objects[extents[t]]})"
            )
    return VCategory(base, names, extents, base.free_homs(extents, graph.edges))


__getattr__ = _moved(__name__, dict.fromkeys(
    ("VFunctor", "validate_vfunctor", "pullback"), "witness"
))
