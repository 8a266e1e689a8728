"""Simulation and bisimulation of enrichments.

A relation between two enrichments over one base relates only objects
of equal extent.  It is a simulation when every hom out of a related
source object is dominated by the join of the homs out of its partners;
a bisimulation when the inverse is a simulation as well.  The largest
such relations are greatest fixed points of a refinement operator and
equal the union of all relations passing the direct check.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

from .errors import (
    EndpointMismatch,
    ExtentMismatch,
    InternalAssertion,
    NotABisimulation,
    NotBisimilar,
    NotLocallyDistributive,
    UnknownObject,
)
from .vcat import VCategory, VFunctor, pullback, require_same_base, validate_vfunctor


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
        return cls(
            left,
            right,
            [
                (left.object_index(a), right.object_index(b))
                for a, b in named_pairs
            ],
        )

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


class SimulationCheck(NamedTuple):
    """Verdict with the first violating triple, if any."""

    ok: bool
    counterexample: Optional[tuple[str, str, str]] = None
    direction: str = "forward"

    def __bool__(self):
        return self.ok


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


def is_simulation(r: SimRelation) -> SimulationCheck:
    """Direct check of the simulation condition at every pair."""
    mates: list[set] = [set() for _ in r.left.objects]
    for a, b in r.pairs:
        mates[a].add(b)
    joins: dict = {}
    rows, rmaps = r.left.rows, r.right.row_maps
    for a, b in sorted(r.pairs):
        ap = _failing_probe(rows[a], b, rmaps[b], mates, joins)
        if ap is not None:
            return SimulationCheck(
                False,
                (r.left.objects[a], r.right.objects[b], r.left.objects[ap]),
            )
    return SimulationCheck(True)


def is_bisimulation(r: SimRelation) -> SimulationCheck:
    fwd = is_simulation(r)
    if not fwd:
        return fwd
    bwd = is_simulation(r.inverse())
    if not bwd:
        return SimulationCheck(False, bwd.counterexample, "backward")
    return SimulationCheck(True)


def largest_simulation(left: VCategory, right: VCategory) -> SimRelation:
    """Greatest fixed point of the refinement operator from the full
    extent-matching relation, in synchronous rounds.  Relations passing
    the direct check are exactly the post-fixed points, so the result is
    their union.

    Round r removes every pair (a,b) with a probe a' (a non-bottom hom
    x = hom(a,a')) such that x is not below the partner join of (a',b),
    the join of hom(b,b') over the partners b' of a' at the start of the
    round; the trace gives each removed pair its round.

    - Round 1: each partner set is a whole extent, so the partner join
      is b's join into the extent of a'.  A pair survives iff, for each
      extent, a's join into it is below b's (a join is below a bound iff
      each joinand is), so objects are compared once per distinct
      vector of extent joins.
    - Round r > 1: a pair that passed round r-1 can fail only on a probe
      whose partner set shrank in round r-1, so only pairs (a,b) whose
      a has a non-bottom hom into such an object are re-checked, and
      only on those probes, with their partner joins recomputed.

    Each step needs of the base only what the direct check does: every
    hom lattice has binary and empty joins that are least upper bounds,
    and a transitive order.  No distributivity is used, since no join
    is ever split or subtracted.
    """
    require_same_base(left, right)
    lnames, rnames, rmaps = left.objects, right.objects, right.row_maps
    part, shrunk, trace = _first_round(left, right)
    preds: list[list] = [[] for _ in lnames]  # a' -> (a, hom(a,a'), lattice)
    for a, row in enumerate(left.rows):
        for ap, x, lat in row:
            preds[ap].append((a, x, lat))
    for round_no in itertools.count(2):
        if not shrunk:
            break
        probes: dict = {}  # a -> its probes whose partner sets shrank
        for ap in shrunk:
            for a, x, lat in preds[ap]:
                probes.setdefault(a, []).append((ap, x, lat))
        joins: dict = {}  # (a', b) -> partner join
        removed = [
            (a, b)
            for a, checks in probes.items()
            for b in part[a]
            if _failing_probe(checks, b, rmaps[b], part, joins) is not None
        ]
        shrunk = set()
        for a, b in removed:
            part[a].discard(b)
            shrunk.add(a)
            trace.append((round_no, lnames[a], rnames[b]))
    pairs = [(a, b) for a, mates in enumerate(part) for b in mates]
    return SimRelation(left, right, pairs, trace=sorted(trace))


def _first_round(left: VCategory, right: VCategory) -> tuple[list[set], set, list]:
    """Round 1 of ``largest_simulation``: each left object's surviving
    partners, the left objects that lost one, and the trace entries.

    Objects of one extent with equal extent joins pass or fail together,
    so each distinct left vector meets each distinct right one once.  An
    extent that b has no hom into has the bottom join there.
    """
    base = left.base
    by_vector: list[dict] = [{}, {}]  # (extent, {extent: join}) -> (joins, objects)
    for side, cat in enumerate((left, right)):
        for x, row in enumerate(cat.rows):
            joins = _block_joins(row, cat.extents)
            key = (cat.extents[x], frozenset(joins.items()))
            by_vector[side].setdefault(key, (joins, []))[1].append(x)
    right_groups: dict = {}  # extent -> [(joins, objects)]
    for (eb, _), group in by_vector[1].items():
        right_groups.setdefault(eb, []).append(group)
    part: list[set] = [set() for _ in left.objects]
    shrunk: set = set()
    trace: list = []
    lnames, rnames = left.objects, right.objects
    for (ea, _), (need, lefts) in by_vector[0].items():
        lats = {e: base.hom(ea, e) for e in need}
        checks = [(e, lats[e], x, lats[e]._join(())) for e, x in need.items()]
        good, bad = [], []
        for have, rights in right_groups.get(ea, ()):
            for e, lat, x, bottom in checks:
                if not lat._leq(x, have.get(e, bottom)):
                    bad += rights
                    break
            else:
                good += rights
        for a in lefts:
            part[a].update(good)
        if bad:
            shrunk.update(lefts)
            trace += [(1, lnames[a], rnames[b]) for a in lefts for b in bad]
    return part, shrunk, trace


def _block_joins(row: list[tuple], block_of) -> dict:
    """The join of the row's homs into each block it reaches, unchecked:
    the homs were checked when their enrichment was built.  A join of
    non-bottom homs is not bottom, so absent blocks are the bottom joins."""
    groups: dict = {}
    for y, x, lat in row:
        groups.setdefault(block_of[y], (lat, []))[1].append(x)
    return {c: lat._join(xs) for c, (lat, xs) in groups.items()}


def _unequal_joins(rows, block_of, want, objects) -> Optional[tuple[int, int]]:
    """The first object i of ``objects`` whose joins into the blocks of
    ``block_of`` differ from ``want[block_of[i]]`` (a mapping without
    bottom entries), with the least block where they differ, else None.
    """
    for i in objects:
        got, w = _block_joins(rows[i], block_of), want[block_of[i]]
        if got != w:
            return i, min(c for c in w.keys() | got.keys() if w.get(c) != got.get(c))
    return None


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
    are equal values.  Table lattices are validated when loaded.
    """
    require_same_base(left, right)
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


def simulates(left: VCategory, right: VCategory) -> bool:
    """Whether the right enrichment simulates the left one (total on left)."""
    return largest_simulation(left, right).total_on_left()


def bisimilar(left: VCategory, right: VCategory) -> bool:
    r = largest_bisimulation(left, right)
    return r.total_on_left() and r.total_on_right()


def is_functional_bisimulation(f: VFunctor) -> bool:
    """A functor whose target homs equal the fiberwise joins of source homs."""
    if validate_vfunctor(f):
        return False
    # the fibers are the blocks of f.mapping; non-bottom entries suffice
    a = f.source
    return _unequal_joins(a.rows, f.mapping, f.target.row_maps, range(a.n_objects)) is None


def is_od(f: VFunctor) -> bool:
    """Functional bisimulations that are surjective on objects."""
    return f.is_surjective() and is_functional_bisimulation(f)


class BisimEquivalence:
    """A partition of an enrichment's objects that is a bisimulation."""

    def __init__(self, carrier: VCategory, blocks: list[list[int]]):
        self.carrier = carrier
        seen = sorted(i for block in blocks for i in block)
        if seen != list(range(carrier.n_objects)) or not all(blocks):
            raise ValueError("blocks do not partition the objects")
        self.blocks = sorted([sorted(b) for b in blocks], key=lambda b: b[0])
        self.block_of = [0] * carrier.n_objects
        for bi, block in enumerate(self.blocks):
            for i in block:
                self.block_of[i] = bi
        names = carrier.objects
        for block in self.blocks:
            if len({carrier.extents[i] for i in block}) > 1:
                raise ExtentMismatch(f"block of {names[block[0]]} mixes extents")
        # a partition is a bisimulation iff objects sharing a block have
        # equal joins into every block
        rows = carrier.rows
        # each block's least member's joins: the quotient's homs
        self._joins = [_block_joins(rows[block[0]], self.block_of) for block in self.blocks]
        others = (i for block in self.blocks for i in block[1:])  # all but the least
        bad = _unequal_joins(rows, self.block_of, self._joins, others)
        if bad is not None:
            i, c = bad
            raise NotABisimulation(
                f"partition is not a bisimulation: "
                f"{names[self.blocks[self.block_of[i]][0]]} and {names[i]} have "
                f"different joins into the block of {names[self.blocks[c][0]]}"
            )

    def as_relation(self) -> SimRelation:
        return SimRelation(
            self.carrier,
            self.carrier,
            [
                (i, j)
                for block in self.blocks
                for i in block
                for j in block
            ],
        )

    def __repr__(self):
        return f"BisimEquivalence({self.blocks})"


def _closure_blocks(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def equivalence_closure(r: SimRelation) -> BisimEquivalence:
    """Reflexive-symmetric-transitive closure of a bisimulation on one
    enrichment, returned as a partition.  The closure is itself a
    bisimulation (it is a union of composites of bisimulations); this is
    re-verified when the partition is built."""
    if r.left is not r.right:
        raise EndpointMismatch("closure needs a relation on a single enrichment")
    check = is_bisimulation(r)
    if not check:
        raise NotABisimulation(f"input relation fails at {check.counterexample}")
    return BisimEquivalence(r.left, _closure_blocks(r.left.n_objects, r.pairs))


def quotient(a: VCategory, e: BisimEquivalence) -> tuple[VCategory, VFunctor]:
    """Collapse a bisimulation equivalence into a new enrichment.

    The hom from one block to another is the join of the carrier's homs
    from the block's least representative into the whole target block.
    ``BisimEquivalence`` checked, when it was built, that each block keeps
    one extent and that the join does not depend on the representative.
    """
    if e.carrier is not a:
        raise NotABisimulation("the equivalence does not live on this enrichment")
    names = [f"[{a.objects[block[0]]}]" for block in e.blocks]
    extents = [a.extents[block[0]] for block in e.blocks]
    quo = VCategory(a.base, names, extents, e._joins)
    q = VFunctor(a, quo, [e.block_of[i] for i in range(a.n_objects)])
    return quo, q


def cospan_witness(
    a: VCategory, b: VCategory, r: SimRelation
) -> tuple[VFunctor, VFunctor]:
    """Two surjective functional bisimulations into a quotient of ``a``.

    ``a``'s leg quotients the linking relation's classes restricted to
    ``a``, checked by ``BisimEquivalence``.  ``b``'s leg sends each object
    to its linked class, and each object's joins into the fibers must
    equal its class's homs.  A total relation equal to the union of its
    linked classes' products is the composite of the legs' graphs, so
    those two checks prove it a bisimulation without a pairwise check.
    """
    if r.left is not a or r.right is not b:
        raise EndpointMismatch("the relation does not link these enrichments")
    na, nb = a.n_objects, b.n_objects
    # each class lists its objects in order, a's (below na) before b's
    blocks = _closure_blocks(na + nb, [(x, na + y) for x, y in r.pairs])
    blocks_a = [[i for i in blk if i < na] for blk in blocks]
    total = r.total_on_left() and r.total_on_right()
    # r lies inside that union, so the sizes decide equality
    closed = len(r) == sum(len(x) * (len(blk) - len(x)) for x, blk in zip(blocks_a, blocks))
    if not (total and closed):
        check = is_bisimulation(r)
        if not check:
            raise NotABisimulation(f"relation fails at {check.counterexample}")
        if not total:
            raise NotBisimilar("the relation is not total on both sides")
    if any(len(x) in (0, len(blk)) for x, blk in zip(blocks_a, blocks)):
        raise InternalAssertion("a linked class misses one side")

    e = BisimEquivalence(a, blocks_a)
    quo, qa = quotient(a, e)
    leg = [0] * nb
    for x, blk in zip(blocks_a, blocks):
        for y in blk[len(x) :]:
            leg[y - na] = e.block_of[x[0]]
    bad = _unequal_joins(b.rows, leg, quo.row_maps, range(nb))
    if bad is not None:
        y, c = bad
        raise NotABisimulation(
            f"{b.objects[y]} and its linked class {quo.objects[leg[y]]} have "
            f"different homs into {quo.objects[c]}"
        )
    return qa, VFunctor(b, quo, leg)


def span_witness(a: VCategory, b: VCategory) -> tuple[VFunctor, VFunctor]:
    """Projections of the pullback of the cospan witnesses.

    Needs every hom lattice of the base distributive: that is what makes
    pulling back preserve surjective functional bisimulations.
    """
    if not a.base.is_locally_distributive():
        raise NotLocallyDistributive("the base has a non-distributive hom")
    require_same_base(a, b)
    r = largest_bisimulation(a, b)
    if not (r.total_on_left() and r.total_on_right()):
        raise NotBisimilar("the enrichments are not bisimilar")
    f, g = cospan_witness(a, b, r)
    _, to_a, to_b = pullback(f, g)
    return to_a, to_b
