"""Simulation and bisimulation of enrichments: the relation engines.

A relation between two enrichments over one base relates only objects
of equal extent.  It is a simulation when every hom out of a related
source object is dominated by the join of the homs out of its partners;
a bisimulation when the inverse is a simulation as well.  The largest
such relations are greatest fixed points of a refinement operator and
equal the union of all relations passing the direct check.  The largest
simulation is ``simulation``'s, and the direct checks and the functional
bisimulations that witness a relation are ``witness``'s; their names
still resolve here.
"""

from __future__ import annotations

import collections
import itertools
from typing import Iterable, Optional

from . import _moved, simulation  # simulation is lazy (see the package)
from .errors import EndpointMismatch, ExtentMismatch, SizeLimit, UnknownObject
from .vcat import MAX_PAIRS, VCategory, require_same_base


class SimRelation:
    """A set of extent-matching object pairs between two enrichments."""

    def __init__(
        self,
        left: VCategory,
        right: VCategory,
        pairs: Iterable[tuple[int, int]],
        *,
        trace: Iterable[tuple[int, str, str]] = (),
    ):
        require_same_base(left, right)
        self.left = left
        self.right = right
        self.pairs = frozenset(pairs)
        for a, b in self.pairs:
            if not (0 <= a < left.n_objects and 0 <= b < right.n_objects):
                raise UnknownObject(f"pair ({a},{b}) out of range")
            if left.extents[a] != right.extents[b]:
                raise ExtentMismatch(
                    f"pair ({left.objects[a]},{right.objects[b]}) mixes extents"
                )
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
        return cls(
            left,
            right,
            [
                (a, b)
                for a in range(left.n_objects)
                for b in range(right.n_objects)
                if left.extents[a] == right.extents[b]
            ],
        )

    def inverse(self) -> "SimRelation":
        return SimRelation(self.right, self.left, [(b, a) for a, b in self.pairs])

    def compose(self, other: "SimRelation") -> "SimRelation":
        if self.right is not other.left:
            raise EndpointMismatch("inner endpoints do not match")
        return SimRelation(
            self.left,
            other.right,
            {(a, c) for a, b in self.pairs for b2, c in other.pairs if b == b2},
        )

    def union(self, other: "SimRelation") -> "SimRelation":
        if self.left is not other.left or self.right is not other.right:
            raise EndpointMismatch("union needs identical endpoints")
        return SimRelation(self.left, self.right, self.pairs | other.pairs)

    def total_on_left(self) -> bool:
        return {a for a, _ in self.pairs} == set(range(self.left.n_objects))

    def total_on_right(self) -> bool:
        return {b for _, b in self.pairs} == set(range(self.right.n_objects))

    def pairs_named(self) -> list[tuple[str, str]]:
        return sorted(
            (self.left.objects[a], self.right.objects[b]) for a, b in self.pairs
        )

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return (
            isinstance(other, SimRelation)
            and self.left is other.left
            and self.right is other.right
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((id(self.left), id(self.right), self.pairs))

    def __repr__(self):
        return f"SimRelation({sorted(self.pairs)})"


def _failing_probe(probes, b, map_b, mates, joins) -> Optional[int]:
    """The first probe ``(a', x, lattice)``, x = hom(a,a') non-bottom, with
    x not below b's join into the mates of a' (read from b's row map
    ``map_b``), else None.  ``joins`` caches those joins by (a', b).

    A bottom hom lies below any join and adds nothing to one, so only
    non-bottom homs are probed or joined.  Homs were checked when the
    enrichments were built, so the unchecked lattice cores are used.
    """
    for ap, x, lat in probes:
        key = (ap, b)
        if key not in joins:
            # the intersection walks the smaller of b's targets and the mates
            joins[key] = lat._join([map_b[bp] for bp in map_b.keys() & mates[ap]])
        if not lat._leq(x, joins[key]):
            return ap
    return None


def _require_pair_budget(left: VCategory, right: VCategory) -> None:
    """``SizeLimit`` if more than ``MAX_PAIRS`` pairs of objects share an
    extent, counted in linear time from the right side's extent counts."""
    per_extent = collections.Counter(right.extents)
    pairs = sum(per_extent[e] for e in left.extents)
    if pairs > MAX_PAIRS:
        raise SizeLimit(f"{pairs} extent-matching pairs, more than the cap {MAX_PAIRS}")


def _block_joins(row: list[tuple], block_of) -> dict:
    """The join of the row's homs into each block it reaches, unchecked:
    the homs were checked when their enrichment was built.  A join of
    non-bottom homs is not bottom, so absent blocks are the bottom joins."""
    groups: dict = {}
    for y, x, lat in row:
        groups.setdefault(block_of[y], (lat, []))[1].append(x)
    return {c: lat._join(xs) for c, (lat, xs) in groups.items()}


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
    left-right pairs sharing a final block.  The round-robin refinement
    (``_refine``, the oracle in the tests) checks each round against the
    previous round's relation, which is the left-right part of that
    round's partition; so a pair's trace round is the round that first
    separates it, and the trace equals ``_refine``'s.

    Precondition: every hom order is antisymmetric, so that equal joins
    are equal values.  Table lattices are validated when loaded.  More
    than ``MAX_PAIRS`` extent-matching pairs are a ``SizeLimit``, before
    the pairs are listed.
    """
    require_same_base(left, right)
    _require_pair_budget(left, right)
    na = left.n_objects
    # the right side's objects follow the left's, so its targets shift by na
    rows = list(left.rows) + [[(na + y, x, lat) for y, x, lat in row] for row in right.rows]
    block_of, count = _numbered(left.extents + right.extents)
    alive = [
        (a, b) for a in range(na) for b in range(na, len(rows)) if block_of[a] == block_of[b]
    ]
    removed = []
    for round_no in itertools.count(1):
        new, new_count = _numbered(
            [
                (block_of[x], tuple(sorted(_block_joins(row, block_of).items())))
                for x, row in enumerate(rows)
            ]
        )
        if new_count == count:
            break
        removed += [(round_no, a, b) for a, b in alive if new[a] != new[b]]
        alive = [(a, b) for a, b in alive if new[a] == new[b]]
        block_of, count = new, new_count
    trace = sorted((r, left.objects[a], right.objects[b - na]) for r, a, b in removed)
    return SimRelation(left, right, [(a, b - na) for a, b in alive], trace=trace)


def bisimilar(left: VCategory, right: VCategory) -> bool:
    r = largest_bisimulation(left, right)
    return r.total_on_left() and r.total_on_right()


# the commands ``cli.COMMANDS`` routes here: each returns its verdict and details
def _pair(bundle, flags) -> tuple[VCategory, VCategory]:
    return bundle.get(flags.a, VCategory), bundle.get(flags.b, VCategory)


def _relation_details(rel: SimRelation) -> dict:
    return {
        "pairs": [list(p) for p in rel.pairs_named()],
        "trace": [list(entry) for entry in rel.refinement_trace],
    }


def cmd_bisim_largest(bundle, flags) -> tuple[str, dict]:
    largest = simulation.largest_simulation if flags.sim else largest_bisimulation
    return "valid", _relation_details(largest(*_pair(bundle, flags)))


def cmd_bisimilar(bundle, flags) -> tuple[str, dict]:
    rel = largest_bisimulation(*_pair(bundle, flags))
    ok = rel.total_on_left() and rel.total_on_right()
    return "yes" if ok else "no", _relation_details(rel)


__getattr__ = _moved(__name__, {**dict.fromkeys((
    "SimulationCheck", "is_simulation", "is_bisimulation", "is_functional_bisimulation", "is_od",
    "BisimEquivalence", "equivalence_closure", "quotient", "cospan_witness", "span_witness",
), "witness"), **dict.fromkeys(("largest_simulation", "_first_round", "simulates"), "simulation")})
