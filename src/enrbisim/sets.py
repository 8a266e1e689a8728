"""The set bases: hom lattices of sets (``PowersetLattice``) and the
bases whose arrows are sets of members (``SetQuantaloid``), the relation
bases among them, with the ``rel`` document reader.  The language and
sieve families build on these, so a table request never imports them.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from .errors import ParseError, SizeLimit
from .lattice import MAX_GENERATORS, Lattice
from .quantaloid import Quantaloid


class _SetLattice(Lattice):
    """Families of subsets of ``universe`` closed under union and
    intersection, ordered by inclusion: joins and meets are the set
    operations and the whole universe is top."""

    def _leq(self, x, y) -> bool:
        return x <= y

    def _join(self, xs: Iterable):
        return frozenset().union(*xs)

    def _meet(self, xs: Iterable):
        acc = None
        for x in xs:
            acc = set(x) if acc is None else acc & x
        return self._uset if acc is None else frozenset(acc)

    def is_distributive(self) -> bool:
        return True


class PowersetLattice(_SetLattice):
    """All subsets of a finite universe, ordered by inclusion.

    Elements are frozensets of universe members.  The element count is
    ``2**len(universe)`` so nothing here ever builds tables; enumeration
    is available only below the cap.
    """

    def __init__(self, universe: Iterable):
        self.universe = list(universe)
        self._uset = frozenset(self.universe)
        if len(self.universe) != len(self._uset):
            raise ValueError("universe contains duplicates")

    def __repr__(self):
        return f"PowersetLattice({len(self.universe)} generators)"

    @property
    def size(self) -> int:
        return 1 << len(self.universe)

    def elements(self):
        self.ensure_enumerable()
        items = self.universe
        for r in range(len(items) + 1):
            for combo in itertools.combinations(items, r):
                yield frozenset(combo)

    def has_element(self, x) -> bool:
        return isinstance(x, frozenset) and x <= self._uset

    def sample(self, rng):
        p = rng.random()
        return frozenset(u for u in self.universe if rng.random() < p)


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
