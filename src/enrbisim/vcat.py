"""Categories enriched over a quantaloid and their free constructions.

An enriched category is a finite object set, an extent map into the
base's objects, and a hom element in the base's hom lattice for each
ordered pair, subject to unit and composition inequalities.  Functors
between them, and their pullbacks, are ``witness``'s; two of their
names still resolve here.
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


def is_bottom(x, bottom) -> bool:
    """The one rule for when a hom is bottom: it has the bottom's own type and equals it."""
    return type(x) is type(bottom) and x == bottom


class VCategory:
    """An enrichment over a quantaloid.

    ``homs`` gives one row per object, ``{target: hom}``; a target it
    leaves out has the bottom hom.  The constructor is the one place that
    decides how homs are stored: a hom that ``is_bottom`` is dropped, and
    every other one is checked against its lattice (``UnknownElement`` if
    outside it).  ``row_maps[i]``, read-only, maps object ``i``'s targets
    with a non-bottom hom to that hom, in target order: it is the only
    store of homs.  ``row_kinds[e][j]`` is the ``(lattice, bottom)`` of
    the homs from an object of extent ``e`` to object ``j``: the one table
    a reader asks which lattice a hom lives in and what is bottom there.
    The free constructions, ``witness.quotient`` and ``witness.pullback``
    pass ``_trusted`` rows, joins, meets and composites of checked homs,
    non-bottom and in target order: none is checked or sorted again, and
    each row becomes its row map as it is.
    """

    def __init__(
        self,
        base: Quantaloid,
        objects: list[str],
        extents: list[int],
        homs: list[Mapping[int, Any]],
        *, _trusted: bool = False,
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
        lattices = {key: base.hom(*key) for key in itertools.product(set(self.extents), repeat=2)}
        kinds = {key: (lat, lat.bottom) for key, lat in lattices.items()}
        self.row_kinds = {u: [kinds[u, v] for v in self.extents] for u in set(self.extents)}
        if _trusted:
            self.row_maps = tuple(map(MappingProxyType, homs))
            return
        # the boundary: every non-bottom hom is checked here once, so
        # interior loops may use the unchecked lattice cores on it
        row_maps = []
        for i, row in enumerate(homs):
            targets = sorted(row.keys())  # a dense list row fails here, not misread
            if targets and not (0 <= targets[0] and targets[-1] < n):
                raise ValueError(f"hom row {i} has a target outside 0..{n - 1}")
            kinds_i, out = self.row_kinds[self.extents[i]], {}
            for j in targets:
                x, (lat, bottom) = row[j], kinds_i[j]
                if not is_bottom(x, bottom):
                    lat.check_element(x)
                    out[j] = x
            row_maps.append(MappingProxyType(out))
        self.row_maps = tuple(row_maps)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def _kind(self, i: int, j: int) -> tuple[Lattice, Any]:
        n = len(self.objects)
        if not (0 <= i < n and 0 <= j < n):
            raise UnknownObject(f"object index pair ({i}, {j}) out of range")
        return self.row_kinds[self.extents[i]][j]

    def hom(self, i: int, j: int):
        bottom = self._kind(i, j)[1]  # checks the indices first
        return self.row_maps[i].get(j, bottom)

    def hom_lattice(self, i: int, j: int) -> Lattice:
        return self._kind(i, j)[0]

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
    its own decides the law (``composition_law_holds``: a language
    quantale compares word masks); ``builders.composition_violations``
    checks any other.  Violations are listed in ``(i, j, k)`` order.
    """
    out = []
    base, ext = a.base, a.extents
    for i in range(a.n_objects):
        lat = a.hom_lattice(i, i)
        if not lat.leq(base.unit(ext[i]), a.hom(i, i)):
            out.append(f"identity not below hom({a.objects[i]},{a.objects[i]})")
    if not base.composition_law_holds(a.row_maps):
        from .builders import composition_violations

        out += composition_violations(a)
    return out


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
    Each label is checked here, so the rows enter the enrichment unchecked.
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
    return VCategory(base, names, extents, base.free_homs(extents, graph.edges), _trusted=True)


# read here by perfbench/tracer.py (pullback) and tests/test_acceptance.py (both)
__getattr__ = _moved(__name__, {"pullback": "witness", "VFunctor": "witness"})
