"""The table bases: lattices with dense join/meet tables (``TableLattice``)
and composition tables over them, given ``explicit``ly or built as truth
values or a metric grid.  Their documents are read and written here, so
only a request that names a table base imports this module.
"""

from __future__ import annotations

from typing import Any, Iterable

from .errors import BadGrid, IncompleteLattice, ParseError, UnknownElement, UnknownObject, require_valid
from .jsondocs import _indices, _keyed, _listed, _name_lookup, _names, _once
from .lattice import Lattice
from .quantaloid import Quantaloid, name_index

INF = float("inf")


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
        self.index_of = name_index(self.names, "element", UnknownElement)
        full = (1 << n) - 1
        ups = [0] * n  # ups[i] = bitmask of j with i <= j
        downs = [0] * n
        for i, j in leq_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownElement(f"order pair ({i},{j}) out of range 0..{n - 1}")
            ups[i] |= 1 << j
            downs[j] |= 1 << i
        self._ups = ups
        self._downs = downs
        self._joins = [[_bound(ups[i] & ups[j], ups) for j in range(n)] for i in range(n)]
        self._meets = [[_bound(downs[i] & downs[j], downs) for j in range(n)] for i in range(n)]
        self._bottom = next((i for i in range(n) if ups[i] == full), None)
        self._top = next((i for i in range(n) if downs[i] == full), None)

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

    @classmethod
    def chain(cls, names: list[str]) -> "TableLattice":
        n = len(names)
        return cls(names, [(i, j) for i in range(n) for j in range(i, n)])

    @classmethod
    def boolean(cls) -> "TableLattice":
        return cls.chain(["0", "1"])


class TableQuantaloid(Quantaloid):
    """Quantaloid given by explicit hom lattices and dense tensor tables."""

    def __init__(
        self,
        objects: list[str],
        homs: dict[tuple[int, int], TableLattice],
        tensor_tables: dict[tuple[int, int, int], list[list[int]]],
        units: list[int],
    ):
        super().__init__(objects)
        self._homs = dict(homs)
        self._tables = dict(tensor_tables)
        self._units = list(units)

    def _make_hom(self, u, v):
        try:
            return self._homs[(u, v)]
        except KeyError:
            raise UnknownObject(f"no hom lattice for pair ({u},{v})") from None

    def compose(self, u, v, w, f, g):
        return self._tables[(u, v, w)][f][g]

    def unit(self, u):
        self.check_object(u)
        return self._units[u]

    def element_to_doc(self, u: int, v: int, x) -> Any:
        """The document of ``x`` in hom(u,v): its table lattice name."""
        return self.hom(u, v).name_of(x)

    def element_from_doc(self, u: int, v: int, doc) -> int:
        """The element of hom(u,v) a document gives: a table lattice name, or
        an index that the object receiving it checks."""
        if isinstance(doc, str):
            return self.hom(u, v).index_of(doc)
        if isinstance(doc, bool) or not isinstance(doc, int):
            raise ParseError(f"table element {doc!r} is neither a name nor an index")
        return doc

    def construction_doc(self, name_of) -> dict:
        objects = list(self.objects)
        homs = {}
        tensor = {}
        for u in range(len(objects)):
            for v in range(len(objects)):
                lat = self.hom(u, v)
                homs[f"{objects[u]},{objects[v]}"] = {
                    "elements": list(lat.names),
                    "leq": sorted(
                        [i, j]
                        for i in lat.elements()
                        for j in lat.elements()
                        if lat.leq(i, j)
                    ),
                }
        for u in range(len(objects)):
            for v in range(len(objects)):
                for w in range(len(objects)):
                    tensor[f"{objects[u]},{objects[v]},{objects[w]}"] = [
                        [self.compose(u, v, w, f, g) for g in self.hom(v, w).elements()]
                        for f in self.hom(u, v).elements()
                    ]
        return {
            "objects": objects,
            "homs": homs,
            "tensor": tensor,
            "id": {objects[u]: self.unit(u) for u in range(len(objects))},
        }


class MetricQuantale(TableQuantaloid):
    """One object; distances on a finite grid with truncated addition.

    The lattice order is the reversed numeric order, so the join of a
    set of distances is their numeric minimum.  Composition adds and
    rounds up to the next grid point, saturating at infinity.
    """

    def __init__(self, grid):
        grid = list(grid)
        if not grid or grid[0] != 0 or grid[-1] != INF:
            raise BadGrid("grid must start at 0 and end with infinity")
        if any(not grid[i] < grid[i + 1] for i in range(len(grid) - 1)):
            raise BadGrid("grid must be strictly ascending")
        if any(g != INF and g < 0 for g in grid):
            raise BadGrid("grid values must be nonnegative")
        self.grid = grid
        n = len(grid)
        names = ["inf" if g == INF else str(g) for g in grid]
        # reversed numeric order: larger distances sit lower
        lat = TableLattice(
            names, [(i, j) for i in range(n) for j in range(n) if grid[j] <= grid[i]]
        )

        def round_up(x):
            for idx, g in enumerate(grid):
                if g >= x:
                    return idx
            return n - 1

        def add(i, j):
            if grid[i] == INF or grid[j] == INF:
                return n - 1
            return round_up(grid[i] + grid[j])

        table = [[add(i, j) for j in range(n)] for i in range(n)]
        super().__init__(["*"], {(0, 0): lat}, {(0, 0, 0): table}, [0])

    def construction_doc(self, name_of) -> dict:
        return {
            "construction": "metric",
            "grid": [("inf" if g == INF else str(g)) for g in self.grid],
        }


def grid_value(text: str):
    """Parse one metric grid entry; 'inf' means infinity."""
    if text in ("inf", "Infinity", "oo"):
        return INF
    if text.isascii() and text.isdigit():
        return int(text)  # the common case, without importing fractions
    from fractions import Fraction

    frac = Fraction(text)
    return int(frac) if frac.denominator == 1 else frac


def build_metric_quantale(grid) -> MetricQuantale:
    """Distances on an ascending grid from 0 to infinity."""
    return MetricQuantale(grid)


def build_boolean_quantale() -> TableQuantaloid:
    """Truth values: one object, elements 0 <= 1, meet as composition."""
    lat = TableLattice.boolean()
    table = [[0, 0], [0, 1]]
    return TableQuantaloid(["*"], {(0, 0): lat}, {(0, 0, 0): table}, [1])


def quantaloid_from_doc(doc, resolve) -> TableQuantaloid:
    """The base of a ``boolean``, ``metric`` or ``explicit`` document.  An
    explicit base has its laws checked here, as it loads."""
    kind = doc.get("construction", "explicit")
    if kind == "boolean":
        return build_boolean_quantale()
    if kind == "metric":
        grid = _listed(doc, "grid", doc["grid"])
        for g in grid:
            if type(g) is not str:
                raise ParseError(f"{doc['name']}: grid entry {g!r} is not a string")
        return build_metric_quantale(list(map(grid_value, grid)))
    objects = doc["objects"]
    index = _name_lookup(doc, "objects", objects)
    homs = {}
    for (u, v), lat_doc in _keyed(doc, "homs", index, 2, objects):
        key = f"'{objects[u]},{objects[v]}'"
        names = _names(doc, f"homs {key} elements", lat_doc["elements"])
        field = f"homs {key} leq"
        order = _indices(doc, field, lat_doc["leq"], len(names), "a pair of element indices", 2)
        homs[u, v] = TableLattice(names, _once(doc, field, ((pair, None) for pair in order)))
        require_valid("lattice", homs[u, v].validate())
    tensor = {}
    for (u, v, w), table in _keyed(doc, "tensor", index, 3, objects):
        key = f"tensor '{objects[u]},{objects[v]},{objects[w]}'"
        rows, entries = homs[u, v].size, homs[v, w].size
        if len(_listed(doc, key, table)) != rows:
            raise ParseError(f"{doc['name']}: {key} is not {rows} rows of {entries} entries")
        tensor[u, v, w] = [_indices(doc, key, row, homs[u, w].size, "an element index")
                           for row in _listed(doc, key, table, f"a row of {entries} entries", entries)]
    units = [
        _indices(doc, f"id '{objects[u]}'", [idx], homs[u, u].size, "an element index")[0]
        for (u,), idx in _keyed(doc, "id", index, 1, objects)
    ]
    q = TableQuantaloid(objects, homs, tensor, units)
    from .laws import validate_quantaloid  # only explicit bases need the law checks

    require_valid("quantaloid", validate_quantaloid(q).violations)
    return q
