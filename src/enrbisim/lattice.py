"""Finite complete lattices, monotone maps and Galois adjoints.

Every hom-set in this package is a finite complete lattice: each subset
has a least upper bound and a greatest lower bound, the empty join being
bottom and the empty meet top.  Elements are opaque hashable values; the
concrete classes pick the representation.  ``TableLattice`` stores the
order extensionally with dense cached join/meet tables, which is the
right trade-off for the desk-scale homs used everywhere except the
symbolic powerset lattices, whose elements are frozensets and whose
operations never need the full element enumeration.

The public ``leq``/``join``/``meet`` check that every argument is an
element and then call the unchecked cores ``_leq``/``_join``/``_meet``.
Interior loops that only see elements already checked at a boundary
call the cores directly; the cores still raise ``IncompleteLattice``
when a join or meet does not exist.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Any, Iterable, Iterator

from .errors import IncompleteLattice, NoAdjoint, SizeLimit, UnknownElement

# Largest element count we are willing to enumerate exhaustively.
DEFAULT_ENUM_CAP = 1 << 13
# Most compositions an exhaustive check of a quantaloid's laws may make.
COMPOSE_BUDGET = 1 << 20


class Lattice:
    """Interface shared by all lattice implementations."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    def elements(self) -> Iterator[Any]:
        raise NotImplementedError

    def has_element(self, x) -> bool:
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        self.check_element(x)
        self.check_element(y)
        return self._leq(x, y)

    def join(self, xs: Iterable):
        return self._join(self._checked(xs))

    def meet(self, xs: Iterable):
        return self._meet(self._checked(xs))

    def _checked(self, xs: Iterable) -> list:
        vals = list(xs)
        for x in vals:
            self.check_element(x)
        return vals

    def _leq(self, x, y) -> bool:
        raise NotImplementedError

    def _join(self, xs: Iterable):
        raise NotImplementedError

    def _meet(self, xs: Iterable):
        raise NotImplementedError

    @property
    def bottom(self):
        return self.join(())

    @property
    def top(self):
        return self.meet(())

    def is_distributive(self) -> bool:
        raise NotImplementedError

    def sample(self, rng):
        """Pick a pseudo-random element without enumerating everything."""
        raise NotImplementedError

    def validate(self) -> list[str]:
        """Structural implementations are correct by construction."""
        return []

    def check_element(self, x) -> None:
        if not self.has_element(x):
            raise UnknownElement(f"{x!r} is not an element of {self!r}")

    def ensure_enumerable(self, cap: int = DEFAULT_ENUM_CAP) -> None:
        if self.size > cap:
            raise SizeLimit(
                f"{self!r} has {self.size} elements, more than the cap {cap}"
            )


def _bound(mask: int, cones: list[int]) -> int | None:
    """The member of ``mask`` whose cone contains all of ``mask``: with
    up-sets as cones the least member, with down-sets the greatest."""
    m = mask
    while m:
        z = (m & -m).bit_length() - 1
        if mask & ~cones[z] == 0:
            return z
        m &= m - 1
    return None


class TableLattice(Lattice):
    """Lattice given extensionally by an element list and an order table.

    Joins and meets are precomputed at construction; elements are the
    dense indices ``0..n-1`` and the names are metadata only.  Untrusted
    input is accepted as-is: ``validate`` reports any violation of the
    lattice axioms instead of the constructor raising.
    """

    def __init__(self, names: list[str], leq_pairs: Iterable[tuple[int, int]]):
        self.names = list(names)
        n = len(self.names)
        self._n = n
        self._index: dict[str, int] = {}  # a repeated name means its first index
        for i, name in enumerate(self.names):
            self._index.setdefault(name, i)
        full = (1 << n) - 1
        ups = [0] * n  # ups[i] = bitmask of j with i <= j
        downs = [0] * n
        self._pairs = set()
        for i, j in leq_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownElement(f"order pair ({i},{j}) out of range 0..{n - 1}")
            self._pairs.add((i, j))
            ups[i] |= 1 << j
            downs[j] |= 1 << i
        self._ups = ups
        self._downs = downs
        self._joins = [[_bound(ups[i] & ups[j], ups) for j in range(n)] for i in range(n)]
        self._meets = [[_bound(downs[i] & downs[j], downs) for j in range(n)] for i in range(n)]
        self._bottom = next((i for i in range(n) if ups[i] == full), None)
        self._top = next((i for i in range(n) if downs[i] == full), None)
        self._distributive: bool | None = None

    def __repr__(self):
        return f"TableLattice({self._n} elements)"

    @property
    def size(self) -> int:
        return self._n

    def elements(self):
        return iter(range(self._n))

    def has_element(self, x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self._n

    def name_of(self, x) -> str:
        return self.names[x]

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"no element named {name!r}") from None

    def _leq(self, x, y) -> bool:
        return bool(self._ups[x] >> y & 1)

    def _fold(self, xs, table, empty, what):
        acc = None
        for x in xs:
            if acc is None:
                acc = x
            else:
                acc = table[acc][x]
                if acc is None:
                    raise IncompleteLattice(f"missing {what} in {self!r}")
        if acc is None:
            if empty is None:
                raise IncompleteLattice(f"lattice has no {what} of the empty set")
            return empty
        return acc

    def _join(self, xs: Iterable):
        return self._fold(xs, self._joins, self._bottom, "join")

    def _meet(self, xs: Iterable):
        return self._fold(xs, self._meets, self._top, "meet")

    def sample(self, rng):
        return rng.randrange(self._n)

    def dual(self) -> "TableLattice":
        """The order-reversed lattice (joins and meets swap)."""
        return TableLattice(self.names, [(j, i) for i, j in self._pairs])

    def validate(self) -> list[str]:
        out = []
        n, ups = self._n, self._ups
        if n == 0:
            return ["lattice is empty"]
        for i in range(n):
            if not ups[i] >> i & 1:
                out.append(f"reflexivity fails at {self.names[i]}")
        for i in range(n):
            for j in range(i + 1, n):
                if ups[i] >> j & 1 and ups[j] >> i & 1:
                    out.append(
                        f"antisymmetry fails for {self.names[i]},{self.names[j]}"
                    )
        for i in range(n):
            m = ups[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                missing = ups[j] & ~ups[i]
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    out.append(
                        "transitivity fails for "
                        f"{self.names[i]}<={self.names[j]}<={self.names[k]}"
                    )
        for i in range(n):
            for j in range(n):
                if self._joins[i][j] is None:
                    out.append(f"no join for {self.names[i]},{self.names[j]}")
                if self._meets[i][j] is None:
                    out.append(f"no meet for {self.names[i]},{self.names[j]}")
        if self._bottom is None:
            out.append("no bottom element")
        if self._top is None:
            out.append("no top element")
        return out

    def is_distributive(self) -> bool:
        if self._distributive is None:
            if self.validate():
                raise IncompleteLattice("distributivity needs a valid lattice")
            self._distributive = all(
                self._meets[x][self._joins[y][z]]
                == self._joins[self._meets[x][y]][self._meets[x][z]]
                for x in range(self._n)
                for y in range(self._n)
                for z in range(self._n)
            )
        return self._distributive

    @classmethod
    def chain(cls, names: list[str]) -> "TableLattice":
        n = len(names)
        return cls(names, [(i, j) for i in range(n) for j in range(i, n)])

    @classmethod
    def boolean(cls) -> "TableLattice":
        return cls.chain(["0", "1"])


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


class MonotoneMap:
    """An order-preserving assignment between two finite lattices.

    ``mapping`` is a read-only view of a private copy of the assignment.
    """

    def __init__(self, source: Lattice, target: Lattice, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = MappingProxyType(dict(mapping))

    def __call__(self, x):
        try:
            return self.mapping[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is outside the map's domain") from None

    def __repr__(self):
        return f"MonotoneMap({self.source!r} -> {self.target!r})"

    def then(self, other: "MonotoneMap") -> "MonotoneMap":
        """Diagrammatic composite: apply self first, then other."""
        return MonotoneMap(
            self.source, other.target, {x: other(y) for x, y in self.mapping.items()}
        )

    def check(self) -> list[str]:
        out = []
        for x in self.source.elements():
            if x not in self.mapping:
                out.append(f"domain misses {x!r}")
            elif not self.target.has_element(self.mapping[x]):
                out.append(f"value {self.mapping[x]!r} not in target")
        if out:
            return out
        for x in self.source.elements():
            for y in self.source.elements():
                if self.source.leq(x, y) and not self.target.leq(
                    self.mapping[x], self.mapping[y]
                ):
                    out.append(f"not monotone at {x!r} <= {y!r}")
        return out

    def pointwise_leq(self, other: "MonotoneMap") -> bool:
        return all(
            self.target.leq(self(x), other(x)) for x in self.source.elements()
        )

    @classmethod
    def identity(cls, lat: Lattice) -> "MonotoneMap":
        return cls(lat, lat, {x: x for x in lat.elements()})

    @classmethod
    def from_function(cls, source: Lattice, target: Lattice, fn) -> "MonotoneMap":
        return cls(source, target, {x: fn(x) for x in source.elements()})


def right_adjoint_of_monotone(
    f: MonotoneMap, enum_cap: int = DEFAULT_ENUM_CAP
) -> MonotoneMap:
    """Right Galois adjoint ``g(w) = join{v : f(v) <= w}`` of ``f``.

    The adjunction ``f(v) <= w  iff  v <= g(w)`` is verified exhaustively
    before returning; it holds exactly when ``f`` preserves all joins.
    """
    f.source.ensure_enumerable(enum_cap)
    f.target.ensure_enumerable(enum_cap)
    bad = f.check()
    if bad:
        raise NoAdjoint(f"map is not monotone: {bad[0]}")
    g = MonotoneMap(
        f.target,
        f.source,
        {
            w: f.source.join(v for v in f.source.elements() if f.target.leq(f(v), w))
            for w in f.target.elements()
        },
    )
    for v in f.source.elements():
        for w in f.target.elements():
            if f.target.leq(f(v), w) != f.source.leq(v, g(w)):
                raise NoAdjoint(
                    f"no right adjoint: adjunction fails at v={v!r}, w={w!r}"
                    " (the map does not preserve all joins)"
                )
    return g
