"""Simulation and bisimulation of enrichments: relations and the bisimulation engine.

A relation between two enrichments over one base relates only objects
of equal extent.  It is a simulation when every hom out of a related
source object is dominated by the join of the homs out of its partners;
a bisimulation when the inverse is a simulation as well.  The largest
simulation is ``simulation``'s, the witnesses ``witness``'s and the
direct checks ``checks``'; six of their names still resolve here.
"""

from __future__ import annotations

import collections
import functools
from typing import Iterable, Iterator, Optional

from . import _moved, simulation  # simulation is lazy (see the package)
from .errors import EndpointMismatch, ExtentMismatch, SizeLimit, UnknownObject
from .vcat import MAX_PAIRS, VCategory, require_same_base


class SimRelation:
    """A set of extent-matching object pairs between two enrichments.

    ``largest_bisimulation``'s partition form keeps ``_rounds``, the coproduct's block
    ids (right objects after left ones) after each refinement round; it builds ``pairs``
    and ``refinement_trace`` when first read, and its totalities read the blocks.
    """

    def __init__(self, left: VCategory, right: VCategory, pairs: Iterable[tuple[int, int]] = (),
                 *, trace: Iterable[tuple[int, str, str]] = (), _rounds: Optional[list] = None):
        require_same_base(left, right)
        self.left = left
        self.right = right
        self._rounds = _rounds
        if _rounds is None:
            self.pairs = frozenset(pairs)
            for a, b in self.pairs:
                if not (0 <= a < left.n_objects and 0 <= b < right.n_objects):
                    raise UnknownObject(f"pair ({a},{b}) out of range")
                if left.extents[a] != right.extents[b]:
                    raise ExtentMismatch(
                        f"pair ({left.objects[a]},{right.objects[b]}) mixes extents")
            # (round, left name, right name) of each pair refinement removed
            self.refinement_trace = tuple(trace)

    @classmethod
    def from_names(cls, left: VCategory, right: VCategory, named_pairs) -> "SimRelation":
        """The pairs of objects named by ``named_pairs``, each name looked up as given."""
        return cls(left, right, [(left.object_index(a), right.object_index(b)) for a, b in named_pairs])

    @classmethod
    def diagonal(cls, a: VCategory) -> "SimRelation":
        return cls(a, a, [(i, i) for i in range(a.n_objects)])

    @classmethod
    def full(cls, left: VCategory, right: VCategory) -> "SimRelation":
        """All extent-matching pairs: the starting point of refinement."""
        ext = right.extents
        return cls(left, right, [(a, b) for a, e in enumerate(left.extents)
                                 for b in range(len(ext)) if ext[b] == e])

    def inverse(self) -> "SimRelation":
        return SimRelation(self.right, self.left, [(b, a) for a, b in self.pairs])

    def compose(self, other: "SimRelation") -> "SimRelation":
        if self.right is not other.left:
            raise EndpointMismatch("inner endpoints do not match")
        return SimRelation(self.left, other.right,
                           {(a, c) for a, b in self.pairs for b2, c in other.pairs if b == b2})

    def union(self, other: "SimRelation") -> "SimRelation":
        if self.left is not other.left or self.right is not other.right:
            raise EndpointMismatch("union needs identical endpoints")
        return SimRelation(self.left, self.right, self.pairs | other.pairs)

    def _by_name(self, ids) -> tuple[list[int], dict]:
        """The left objects, and each block of ``ids`` -> its right objects, in name order."""
        lnames, rnames, na = self.left.objects, self.right.objects, self.left.n_objects
        rights: dict = {}
        for b in sorted(range(len(rnames)), key=rnames.__getitem__):
            rights.setdefault(ids[na + b], []).append(b)
        return sorted(range(na), key=lnames.__getitem__), rights

    def _linked(self) -> Iterator[tuple[int, int]]:
        """The partition form's pairs, in name order."""
        lefts, rights = self._by_name(self._rounds[-1])
        return ((a, b) for a in lefts for b in rights.get(self._rounds[-1][a], ()))

    @functools.cached_property
    def pairs(self) -> frozenset:
        return frozenset(self._linked())

    @functools.cached_property
    def refinement_trace(self) -> tuple:
        """Round r removes the left-right pairs that a block of round r - 1
        splits apart, listed part by part in name order: the entries need no sort."""
        lnames, rnames, na, out = self.left.objects, self.right.objects, self.left.n_objects, []
        for r, (old, new) in enumerate(zip(self._rounds, self._rounds[1:]), 1):
            part: dict = {}  # an old block -> its first object's new block
            split = {c for c, s in zip(old, new) if part.setdefault(c, s) != s}
            (lefts, rights), gone = self._by_name(old), {}
            for a in lefts:
                if old[a] in split:
                    s = new[a]
                    if s not in gone:  # the right objects of a's old block outside s
                        gone[s] = [rnames[b] for b in rights.get(old[a], ()) if new[na + b] != s]
                    out += [(r, lnames[a], name) for name in gone[s]]
        return tuple(out)

    def total_on_left(self) -> bool:
        if self._rounds is None:
            return {a for a, _ in self.pairs} == set(range(self.left.n_objects))
        final, na = self._rounds[-1], self.left.n_objects
        return set(final[:na]) <= set(final[na:])

    def total_on_right(self) -> bool:
        if self._rounds is None:
            return {b for _, b in self.pairs} == set(range(self.right.n_objects))
        final, na = self._rounds[-1], self.left.n_objects
        return set(final[na:]) <= set(final[:na])

    def final_classes(self) -> Optional[list[list[int]]]:
        """The partition form's final blocks on the coproduct (right objects after left ones),
        each in object order, by least member; None for a relation given by its pairs."""
        if self._rounds is None:
            return None
        parts: dict = {}  # block ids number the blocks by least member
        for i, c in enumerate(self._rounds[-1]):
            parts.setdefault(c, []).append(i)
        return list(parts.values())

    def pairs_named(self) -> list[tuple[str, str]]:
        lnames, rnames, eager = self.left.objects, self.right.objects, self._rounds is None
        named = [(lnames[a], rnames[b]) for a, b in (self.pairs if eager else self._linked())]
        return sorted(named) if eager else named

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, SimRelation) and (self.left, self.right, self.pairs) == (
            other.left, other.right, other.pairs)

    def __hash__(self):
        return hash((id(self.left), id(self.right), self.pairs))

    def __repr__(self):
        return f"SimRelation({sorted(self.pairs)})"


def _failing_probe(cat, a, probes, b, map_b, mates, joins) -> Optional[int]:
    """The first probe ``(a', x)`` of object a of ``cat``, x = hom(a,a') non-bottom, with x
    not below b's join into the mates of a' (read from b's row map ``map_b``), else None;
    ``joins`` caches those joins by (a', b).  A bottom hom lies below any join and adds
    nothing to one, so only non-bottom homs are probed or joined, by the unchecked cores."""
    kinds = cat.row_kinds[cat.extents[a]]
    for ap, x in probes:
        key = (ap, b)
        lat = kinds[ap][0]
        if key not in joins:
            # the intersection walks the smaller of b's targets and the mates
            joins[key] = lat._join([map_b[bp] for bp in map_b.keys() & mates[ap]])
        if not lat._leq(x, joins[key]):
            return ap
    return None


def _require_pair_budget(left: VCategory, right: VCategory) -> None:
    """``SizeLimit`` past ``MAX_PAIRS`` extent-matching pairs, counted from extent counts."""
    per_extent = collections.Counter(right.extents)
    pairs = sum(per_extent[e] for e in left.extents)
    if pairs > MAX_PAIRS:
        raise SizeLimit(f"{pairs} extent-matching pairs, more than the cap {MAX_PAIRS}")


def _block_joins(cat: VCategory, i: int, block_of) -> dict:
    """Each block object i's homs reach -> their join by the unchecked core (one hom is its
    own join); a join of non-bottom homs is not bottom, so absent blocks join to bottom."""
    groups: dict = {}
    kinds = cat.row_kinds[cat.extents[i]]
    for y, x in cat.row_maps[i].items():
        groups.setdefault(block_of[y], (kinds[y], []))[1].append(x)
    return {c: xs[0] if len(xs) == 1 else kind[0]._join(xs) for c, (kind, xs) in groups.items()}


def _numbered(keys: list) -> tuple[list[int], int]:
    """Block ids by first occurrence in object order, and their count."""
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys], len(ids)


def largest_bisimulation(left: VCategory, right: VCategory) -> SimRelation:
    """Signature refinement on the coproduct, where cross homs are bottom.

    From the partition by extent, each round splits the blocks by
    signature (an object's block and its join into each block) until the
    block count stops growing.  A partition is a bisimulation iff objects
    sharing a block have equal blockwise joins, so the result is the
    left-right pairs sharing a final block, kept as every round's block
    ids.  A pair's trace round is the first round whose blocks separate
    it, where the pairwise ``_refine`` (the tests' oracle) removes it.
    Every hom order must be antisymmetric, so that equal joins are equal
    values (table lattices are validated when loaded).  More than
    ``MAX_PAIRS`` extent-matching pairs are a ``SizeLimit``.
    """
    require_same_base(left, right)
    _require_pair_budget(left, right)
    na = left.n_objects
    rounds = [_numbered(left.extents + right.extents)]
    while True:
        block_of, count = rounds[-1]
        # the right side's objects follow the left's: each side reads its own part
        sides = ((left, block_of[:na]), (right, block_of[na:]))
        new = _numbered([(ids[x], tuple(sorted(_block_joins(cat, x, ids).items())))
                         for cat, ids in sides for x in range(cat.n_objects)])
        if new[1] == count:
            return SimRelation(left, right, _rounds=[ids for ids, _ in rounds])
        rounds.append(new)


def bisimilar(left: VCategory, right: VCategory) -> bool:
    r = largest_bisimulation(left, right)
    return r.total_on_left() and r.total_on_right()


# the commands ``cli.COMMANDS`` routes here: each returns its verdict and details
def _pair(bundle, flags) -> tuple[VCategory, VCategory]:
    return bundle.get(flags.a, VCategory), bundle.get(flags.b, VCategory)


def _relation_details(rel: SimRelation) -> dict:
    """The named pairs and the trace, as tuples: a report writes a tuple as a list."""
    return {"pairs": rel.pairs_named(), "trace": rel.refinement_trace}


def cmd_bisim_largest(bundle, flags) -> tuple[str, dict]:
    largest = simulation.largest_simulation if flags.sim else largest_bisimulation
    return "valid", _relation_details(largest(*_pair(bundle, flags)))


def cmd_bisimilar(bundle, flags) -> tuple[str, dict]:
    rel = largest_bisimulation(*_pair(bundle, flags))
    return "yes" if rel.total_on_left() and rel.total_on_right() else "no", _relation_details(rel)


# read here by perfbench/tracer.py (T) and tests/test_acceptance.py (A)
__getattr__ = _moved(__name__, {
    "cospan_witness": "witness", "span_witness": "witness", "quotient": "witness",  # T, A
    "is_od": "witness", "largest_simulation": "simulation",  # T, A
    "is_simulation": "checks",  # A
})
