"""The relation bases: finite sets, with the binary relations between
them ordered by inclusion as arrows, and the reader of ``rel``
documents.  Only a request that names a relation base imports this
module.
"""

from __future__ import annotations

import itertools

from .errors import SizeLimit
from .lattice import MAX_GENERATORS
from .sets import PowersetLattice, SetQuantaloid


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
    """The base of a ``rel`` document: a list of sets, each a list."""
    from .jsondocs import _listed  # only a JSON document runs it

    return build_rel_quantaloid(_listed(doc, "sets", doc["sets"], "a list of elements"))
