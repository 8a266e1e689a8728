"""Finite quantaloids: hom lattices, join-preserving composition, units.

A quantaloid here is a finite object set with a complete lattice of
arrows between each ordered pair, an associative composition that
preserves joins in each argument separately, and identity arrows.
One-object quantaloids are quantales.  This module holds the interface.
Each family of bases has a module that builds, reads, writes and checks
its own: ``sets`` (the set bases the relation, language and sieve
families build on), ``rel`` (relations), ``tables`` (explicit tables,
truth values, metric grids), ``language`` (truncated word languages)
and ``cts`` (powersets and sieves of a finite category).  ``laws``
checks a base's quantaloid laws.  A request imports only the families
its documents name; four of their names still resolve here.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from . import _moved
from .errors import NotComposable, UnknownObject, ValidationError
from .lattice import Lattice


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
        hom(i,l)`` for an enrichment's row maps (``VCategory.row_maps``).
        False leaves the law to ``validate_vcategory``'s generic check."""
        return False

    def is_locally_distributive(self) -> bool:
        return all(
            self.hom(u, v).is_distributive()
            for u in range(self.n_objects)
            for v in range(self.n_objects)
        )

    def free_homs(self, extents: list[int], edges) -> list[dict[int, Any]]:
        """Non-bottom hom rows, in target order, of the free enrichment on a
        graph whose vertices have ``extents`` and whose ``edges`` are
        ``(source, target, label)``: here the generic closure of ``closure``,
        imported by the first base that runs it, unless a base overrides it."""
        from .closure import free_homs

        return free_homs(self, extents, edges)

    def __repr__(self):
        return f"{type(self).__name__}({self.objects})"


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


# read here by perfbench/tracer.py (T) and tests/test_acceptance.py (A)
__getattr__ = _moved(__name__, {
    "LanguageQuantale": "language",  # T
    "validate_quantaloid": "laws",  # T, A
    "build_language_quantale": "language", "build_metric_quantale": "tables",  # A
})
