"""What witnesses and checks a (bi)simulation relation that ``bisim``
computed or a document gave: enriched functors and their pullbacks, the
direct checks of a relation, surjective functional bisimulations,
quotients, and the cospan and span witnesses of bisimilarity, with the
``vfunctor`` and ``relation`` documents and the commands that need them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import jsondocs
from .bisim import SimRelation, _block_joins, _failing_probe, _pair, largest_bisimulation
from .errors import (
    BaseMismatch, EndpointMismatch, ExtentMismatch, InternalAssertion, NotABisimulation,
    NotBisimilar, NotComposable, NotLocallyDistributive, UnknownObject, require_valid,
)
from .vcat import VCategory, require_same_base


class VFunctor:
    """An extent-preserving, hom-non-decreasing map between enrichments."""

    def __init__(self, source: VCategory, target: VCategory, mapping: list[int]):
        if len(mapping) != source.n_objects:
            raise ValueError("mapping size disagrees with the source")
        for t in mapping:
            if not 0 <= t < target.n_objects:
                raise UnknownObject(f"target index {t} out of range")
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def then(self, other: "VFunctor") -> "VFunctor":
        if self.target is not other.source:
            raise NotComposable("functor endpoints do not line up")
        return VFunctor(
            self.source, other.target, [other(self(i)) for i in range(self.source.n_objects)]
        )

    def is_surjective(self) -> bool:
        return set(self.mapping) == set(range(self.target.n_objects))

    @classmethod
    def identity(cls, a: VCategory) -> "VFunctor":
        return cls(a, a, list(range(a.n_objects)))

    def __repr__(self):
        return f"VFunctor({self.mapping})"


def validate_vfunctor(f: VFunctor) -> list[str]:
    require_same_base(f.source, f.target)
    out = []
    a, b = f.source, f.target
    for i in range(a.n_objects):
        if a.extents[i] != b.extents[f(i)]:
            out.append(f"extent changes at {a.objects[i]}")
    if out:
        return out
    # both hom tables were checked by their constructors, and a bottom
    # hom lies below any image
    m = f.mapping
    for i, row in enumerate(a.rows):
        for j, x, lat in row:
            if not lat._leq(x, b.hom(m[i], m[j])):
                out.append(f"hom shrinks at ({a.objects[i]},{a.objects[j]})")
    return out


def pullback(f: VFunctor, g: VFunctor) -> tuple[VCategory, VFunctor, VFunctor]:
    """Pairs agreeing in the target, with the meets of the factors' homs.

    Over the maps into ``terminal`` this is the product.  A meet with a
    bottom hom is bottom, so only pairs of non-bottom homs are met.
    """
    if f.target is not g.target:
        raise BaseMismatch("pullback needs a common codomain")
    a, b = f.source, g.source
    require_same_base(a, b)
    fibres: dict[tuple[int, int], list[int]] = {}
    for j in range(b.n_objects):
        fibres.setdefault((b.extents[j], g(j)), []).append(j)
    pairs = [(i, j) for i in range(a.n_objects) for j in fibres.get((a.extents[i], f(i)), ())]
    names = [f"({a.objects[i]}|{b.objects[j]})" for i, j in pairs]
    extents = [a.extents[i] for i, _ in pairs]
    at = {pair: p for p, pair in enumerate(pairs)}
    homs = [
        {
            at[i2, j2]: lat.meet([x, y])
            for i2, x, lat in a.rows[i1]
            for j2, y, _ in b.rows[j1]
            if (i2, j2) in at
        }
        for i1, j1 in pairs
    ]
    p = VCategory(a.base, names, extents, homs)
    return p, VFunctor(p, a, [i for i, _ in pairs]), VFunctor(p, b, [j for _, j in pairs])


class SimulationCheck(NamedTuple):
    """Verdict with the first violating triple, if any."""

    ok: bool
    counterexample: Optional[tuple[str, str, str]] = None
    direction: str = "forward"

    def __bool__(self):
        return self.ok


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
    one extent and that the join does not depend on the representative;
    so the joins enter the quotient unchecked.
    """
    if e.carrier is not a:
        raise NotABisimulation("the equivalence does not live on this enrichment")
    names = [f"[{a.objects[block[0]]}]" for block in e.blocks]
    extents = [a.extents[block[0]] for block in e.blocks]
    rows = [dict(sorted(joins.items())) for joins in e._joins]  # joins of checked homs
    quo = VCategory(a.base, names, extents, rows, _trusted=True)
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


def vfunctor_from_doc(doc, resolve) -> VFunctor:
    """The functor of a ``vfunctor`` document, by object names."""
    source = resolve(doc["source"], VCategory)
    target = resolve(doc["target"], VCategory)
    entries = jsondocs._keyed(doc, "map", source.object_index, 1, source.objects)
    f = VFunctor(source, target, [target.object_index(b) for _, b in entries])
    require_valid("vfunctor", validate_vfunctor(f))
    return f


def relation_from_doc(doc, resolve) -> SimRelation:
    """The relation of a ``relation`` document, by object names; a pair
    given twice is a ``ParseError``."""
    left = resolve(doc["left"], VCategory)
    right = resolve(doc["right"], VCategory)
    pairs = jsondocs._listed(doc, "pairs", doc["pairs"], "a pair of names", 2)
    rel = SimRelation.from_names(left, right, pairs)
    if len(rel.pairs) < len(pairs):  # the names are known strings now, so hashable
        jsondocs._once(doc, "pairs", ((tuple(pair), None) for pair in pairs))
    return rel


def vfunctor_to_doc(f: VFunctor, name_of) -> dict:
    """What a functor's document says after its name and kind; ``name_of``
    gives the bundle name of an enrichment."""
    return {"source": name_of(f.source), "target": name_of(f.target),
            "map": {x: f.target.objects[y] for x, y in zip(f.source.objects, f.mapping)}}


def relation_to_doc(r: SimRelation, name_of) -> dict:
    """What a relation's document says after its name and kind."""
    return {"left": name_of(r.left), "right": name_of(r.right),
            "pairs": [list(p) for p in r.pairs_named()]}


# the commands ``cli.COMMANDS`` routes here: each returns its verdict and details
def cmd_bisim_check(bundle, flags) -> tuple[str, dict]:
    rel = bundle.get(flags.rel, SimRelation)
    check = is_simulation(rel) if flags.sim else is_bisimulation(rel)
    details = {}
    if check.counterexample is not None:
        a, b, ap = check.counterexample
        details["counterexample"] = {"pair": [a, b], "probe": ap, "direction": check.direction}
    return "yes" if check.ok else "no", details


def cmd_od_check(bundle, flags) -> tuple[str, dict]:
    ok = is_od(bundle.get(flags.functor, VFunctor))
    return "yes" if ok else "no", {"functor": flags.functor}


def cmd_quotient(bundle, flags) -> tuple[str, dict]:
    a = bundle.get(flags.a, VCategory)
    equivalence = equivalence_closure(bundle.get(flags.rel, SimRelation))
    quo, qmap = quotient(a, equivalence)
    return "valid", {
        "blocks": [[a.objects[i] for i in block] for block in equivalence.blocks],
        "map_in_class": is_od(qmap),
        "result": bundle.store(flags.out, quo),
    }


def cmd_cospan(bundle, flags) -> tuple[str, dict]:
    a, b = _pair(bundle, flags)
    rel = bundle.get(flags.rel, SimRelation) if flags.rel else largest_bisimulation(a, b)
    f, g = cospan_witness(a, b, rel)
    return "yes", {
        "target_objects": list(f.target.objects),
        "left_in_class": is_od(f),
        "right_in_class": is_od(g),
    }


def cmd_span(bundle, flags) -> tuple[str, dict]:
    to_a, to_b = span_witness(*_pair(bundle, flags))
    return "yes", {
        "apex_objects": list(to_a.source.objects),
        "left_in_class": is_od(to_a),
        "right_in_class": is_od(to_b),
    }
