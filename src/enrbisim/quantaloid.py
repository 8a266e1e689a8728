"""Finite quantaloids: hom lattices, join-preserving composition, units.

A quantaloid here is a finite object set with a complete lattice of
arrows between each ordered pair, an associative composition that
preserves joins in each argument separately, and identity arrows.
One-object quantaloids are quantales.  The standard bases (relations,
truncated word languages, metric grids, truth values) are provided as
builders; user-supplied bases come in as explicit tables.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Iterable, NamedTuple

from .errors import (
    BadGrid,
    NotComposable,
    SizeLimit,
    UnknownObject,
)
from .lattice import (
    COMPOSE_BUDGET,
    DEFAULT_ENUM_CAP,
    Lattice,
    PowersetLattice,
    TableLattice,
)

INF = float("inf")


class QuantaloidElement(NamedTuple):
    """An arrow of a quantaloid: a value in hom(source, target)."""

    source: int
    target: int
    value: Any


class Quantaloid:
    """Interface for finite quantaloids with opaque hom elements."""

    def __init__(self, objects: list[str]):
        self.objects = list(objects)
        self._hom_cache: dict[tuple[int, int], Lattice] = {}

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise UnknownObject(f"no object named {name!r}") from None

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

    def is_locally_distributive(self) -> bool:
        return all(
            self.hom(u, v).is_distributive()
            for u in range(self.n_objects)
            for v in range(self.n_objects)
        )

    def __repr__(self):
        return f"{type(self).__name__}({self.objects})"


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
        self.notes: list[str] = []

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


class RelQuantaloid(Quantaloid):
    """Sets, with binary relations ordered by inclusion as arrows."""

    def __init__(self, sets: list[list], names: list[str] | None = None):
        super().__init__(names or [f"X{i}" for i in range(len(sets))])
        self.sets = [list(s) for s in sets]

    def _make_hom(self, u, v):
        return PowersetLattice(itertools.product(self.sets[u], self.sets[v]))

    def compose(self, u, v, w, f, g):
        return frozenset(
            (x, z) for x, y in f for y2, z in g if y == y2
        )

    def unit(self, u):
        return frozenset((x, x) for x in self.sets[u])


class LanguageQuantale(Quantaloid):
    """Sets of words of length at most ``k`` under truncated concatenation.

    One object; elements are frozensets of words (tuples of symbols) and
    composition concatenates pointwise, discarding words longer than
    ``k``.  Both bracketings of a triple give the words of the full
    concatenation that fit, so truncation keeps composition associative.
    The unit is the singleton empty word.
    """

    def __init__(self, alphabet: Iterable[str], k: int, max_words: int = 1 << 20):
        super().__init__(["*"])
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet contains duplicates")
        self.k = int(k)
        if self.k < 0:
            raise ValueError("k must be >= 0")
        # over an empty alphabet only the empty word exists, whatever k is
        longest = self.k if self.alphabet else 0
        n_words = symbols = 0
        for length in range(longest + 1):  # ends at the first length over a cap
            count = len(self.alphabet) ** length
            n_words, symbols = n_words + count, symbols + length * count
            # within the word cap, a word over two or more letters has at most
            # log2(max_words) symbols, so the symbol cap binds on one letter only
            if n_words > max_words or symbols > 32 * max_words:
                raise SizeLimit(f"the words up to length {self.k} exceed the cap {max_words}")
        self.words = [
            word
            for length in range(longest + 1)
            for word in itertools.product(self.alphabet, repeat=length)
        ]

    def _make_hom(self, u, v):
        return PowersetLattice(self.words)

    def truncate(self, words: Iterable[tuple]) -> frozenset:
        return frozenset(w for w in words if len(w) <= self.k)

    def compose(self, u, v, w, f, g):
        k = self.k
        return frozenset(a + b for a in f for b in g if len(a) + len(b) <= k)

    def unit(self, u):
        return frozenset({()})

    def path_homs(
        self, n_vertices: int, edges: list[tuple[int, int, frozenset]]
    ) -> list[dict[int, frozenset]]:
        """Hom rows of the free enrichment on a labelled graph.

        A forward sweep from each source over the out-edge lists.  Level
        ``l`` lists the pairs (vertex, word of length ``l`` reaching it),
        each pair once; level 0 holds the source and the empty word.
        Walking a level extends each pair along every out-edge label: an
        empty-word label appends to the level being walked, so each level
        is closed under those before the next one starts, and any other
        label appends to a later level.  This equals the generic ascending
        closure but never concatenates two large languages, and it touches
        only what the source reaches within ``k`` letters.  A row maps
        each reached target to its words and leaves out the rest, whose
        hom is the empty set.
        """
        k = self.k
        out: list[list[tuple[int, tuple, int]]] = [[] for _ in range(n_vertices)]
        for s, t, lab in edges:
            out[s].extend((t, word, len(word)) for word in lab if len(word) <= k)
        table = []
        for a in range(n_vertices):
            reached: dict[int, set] = {a: {()}}
            levels: list[list[tuple[int, tuple]]] = [[] for _ in range(k + 1)]
            levels[0].append((a, ()))
            for level, pending in enumerate(levels):
                room = k - level
                for s, w in pending:
                    for t, word, length in out[s]:
                        if length <= room:
                            longer = w + word
                            have = reached.get(t)
                            if have is None:
                                reached[t] = {longer}
                            elif longer in have:
                                continue
                            else:
                                have.add(longer)
                            levels[level + length].append((t, longer))
            table.append({t: frozenset(words) for t, words in reached.items()})
        return table


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
        for i, j, l in itertools.product(range(n), repeat=3):
            if table[table[i][j]][l] != table[i][table[j][l]]:
                self.notes.append(
                    "rounding breaks associativity at "
                    f"({names[i]},{names[j]},{names[l]})"
                )
                break


def grid_value(text: str):
    """Parse one metric grid entry; 'inf' means infinity."""
    if text in ("inf", "Infinity", "oo"):
        return INF
    if text.isascii() and text.isdigit():
        return int(text)  # the common case, without importing fractions
    from fractions import Fraction

    frac = Fraction(text)
    return int(frac) if frac.denominator == 1 else frac


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


class QuantaloidReport(NamedTuple):
    """Outcome of validating a quantaloid."""

    violations: list[str]
    hom_distributive: dict[tuple[int, int], bool]
    notes: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def validate_quantaloid(
    q: Quantaloid, enum_cap: int = DEFAULT_ENUM_CAP
) -> QuantaloidReport:
    """Exhaustively check units, associativity and join preservation.

    Hom lattices too large to enumerate, and bases whose checks would
    make more than ``COMPOSE_BUDGET`` compositions, are reported as
    violations: a base that cannot be checked is not certified.
    """
    violations: list[str] = []
    distributive: dict[tuple[int, int], bool] = {}
    notes = list(getattr(q, "notes", []))
    n = q.n_objects
    if n == 0:
        violations.append("quantaloid has no objects")
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for u, v in pairs:
        hom = q.hom(u, v)
        try:
            hom.ensure_enumerable(enum_cap)
        except SizeLimit:
            violations.append(
                f"hom {q.objects[u]},{q.objects[v]} too large to validate"
            )
            continue
        problems = hom.validate()
        for msg in problems:
            violations.append(f"hom {q.objects[u]},{q.objects[v]}: {msg}")
        distributive[(u, v)] = hom.is_distributive() if not problems else False
    if violations:
        return QuantaloidReport(violations, distributive, notes)

    for u in range(n):
        if not q.hom(u, u).has_element(q.unit(u)):
            violations.append(f"unit of {q.objects[u]} is not in its hom")
    if violations:
        return QuantaloidReport(violations, distributive, notes)
    work = _law_compositions([[q.hom(u, v).size for v in range(n)] for u in range(n)])
    if work > COMPOSE_BUDGET:
        violations.append(
            f"too large to validate: the law checks take {work} compositions, "
            f"over the budget of {COMPOSE_BUDGET}"
        )
        return QuantaloidReport(violations, distributive, notes)

    # closure and unit laws
    for u, v in pairs:
        hom = q.hom(u, v)
        for f in hom.elements():
            if not hom.has_element(q.compose(u, u, v, q.unit(u), f)):
                violations.append(f"composite leaves hom {u},{v}")
            if q.compose(u, u, v, q.unit(u), f) != f:
                violations.append(
                    f"left unit law fails at {f!r} in hom {q.objects[u]},{q.objects[v]}"
                )
            if q.compose(u, v, v, f, q.unit(v)) != f:
                violations.append(
                    f"right unit law fails at {f!r} in hom {q.objects[u]},{q.objects[v]}"
                )

    # join preservation in each argument (empty and binary joins suffice
    # for finite lattices): each side fixes one factor and varies the other
    for u, v, w in itertools.product(range(n), repeat=3):
        h_uv, h_vw, h_uw = q.hom(u, v), q.hom(v, w), q.hom(u, w)
        sides = (
            (h_uv, h_vw, functools.partial(q.compose, u, v, w)),
            (h_vw, h_uv, lambda g, f: q.compose(u, v, w, f, g)),
        )
        bottom = h_uw.bottom
        for (fixed, varied, comp), message in zip(
            sides, ("tensor does not annihilate bottom", "bottom does not annihilate tensor")
        ):
            zero = varied.bottom
            if any(comp(x, zero) != bottom for x in fixed.elements()):
                violations.append(f"{message} ({u},{v},{w})")
        for (fixed, varied, comp), side in zip(sides, ("right", "left")):
            joins = [
                (y1, y2, varied.join([y1, y2]))
                for y1, y2 in itertools.combinations_with_replacement(varied.elements(), 2)
            ]
            if any(
                comp(x, y) != h_uw.join([comp(x, y1), comp(x, y2)])
                for x in fixed.elements()
                for y1, y2, y in joins
            ):
                violations.append(f"tensor not join-preserving on the {side} ({u},{v},{w})")

    # associativity over all composable triples
    for u, v, w, t in itertools.product(range(n), repeat=4):
        for f in q.hom(u, v).elements():
            for g in q.hom(v, w).elements():
                fg = q.compose(u, v, w, f, g)
                for h in q.hom(w, t).elements():
                    if q.compose(u, w, t, fg, h) != q.compose(
                        u, v, t, f, q.compose(v, w, t, g, h)
                    ):
                        violations.append(
                            f"associativity fails at objects ({u},{v},{w},{t})"
                        )
                        break
                else:
                    continue
                break
            else:
                continue
            break

    return QuantaloidReport(violations, distributive, notes)


def _law_compositions(size: list[list[int]]) -> int:
    """Compositions ``validate_quantaloid``'s unit, join and associativity
    loops make when no law fails, from the hom sizes ``size[u][v]``."""
    n = len(size)
    work = sum(3 * size[u][v] for u in range(n) for v in range(n))
    for u, v, w in itertools.product(range(n), repeat=3):
        a, b = size[u][v], size[v][w]
        work += a + b + 3 * a * b * (b + 1) // 2 + 3 * b * a * (a + 1) // 2
    for u, v, w, t in itertools.product(range(n), repeat=4):
        work += size[u][v] * size[v][w] * (1 + 3 * size[w][t])
    return work


def build_rel_quantaloid(
    sets: list[list], names: list[str] | None = None, max_pairs: int = 12
) -> RelQuantaloid:
    """Relations between the given finite sets, ordered by inclusion."""
    if not sets:
        raise ValueError("need at least one set")
    if any(len(set(a)) != len(a) for a in sets):
        raise ValueError("a set repeats an element")
    for a in sets:
        for b in sets:
            if len(a) * len(b) > max_pairs:
                raise SizeLimit(
                    f"hom powerset would have 2^{len(a) * len(b)} elements"
                )
    return RelQuantaloid(sets, names)


def build_language_quantale(
    alphabet: Iterable[str], k: int, max_words: int = 1 << 20
) -> LanguageQuantale:
    """Truncated word languages over ``alphabet`` with cutoff ``k``."""
    return LanguageQuantale(alphabet, k, max_words)


def build_metric_quantale(grid) -> MetricQuantale:
    """Distances on an ascending grid from 0 to infinity."""
    return MetricQuantale(grid)


def build_boolean_quantale() -> TableQuantaloid:
    """Truth values: one object, elements 0 <= 1, meet as composition."""
    lat = TableLattice.boolean()
    table = [[0, 0], [0, 1]]
    return TableQuantaloid(["*"], {(0, 0): lat}, {(0, 0, 0): table}, [1])
