"""What witnesses bisimilarity: enriched functors and their pullbacks,
surjective functional bisimulations, quotients, and the cospan and span
witnesses, which read the blocks of ``largest_bisimulation``'s result,
with the commands that build them.  The checks of a relation or functor
that a document or a caller gives are ``checks``'.
"""

from __future__ import annotations

from typing import Optional

from .bisim import SimRelation, _block_joins, _pair, largest_bisimulation
from .errors import (
    BaseMismatch, EndpointMismatch, ExtentMismatch, InternalAssertion, NotABisimulation,
    NotBisimilar, NotComposable, NotLocallyDistributive, UnknownObject,
)
from .vcat import VCategory, is_bottom, require_same_base


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
    for i, row in enumerate(a.row_maps):
        image, kinds = b.row_maps[m[i]], a.row_kinds[a.extents[i]]
        for j, x in row.items():
            if not kinds[j][0]._leq(x, image[m[j]] if m[j] in image else b.hom(m[i], m[j])):
                out.append(f"hom shrinks at ({a.objects[i]},{a.objects[j]})")
    return out


def pullback(f: VFunctor, g: VFunctor) -> tuple[VCategory, VFunctor, VFunctor]:
    """Pairs agreeing in the target, with the meets of the factors' homs.

    Over the maps into ``terminal`` this is the product.  A meet with a
    bottom hom is bottom, so each apex pair's row meets ``a``'s non-bottom
    homs with ``b``'s into the fibre of their target alone, in target
    order.  A meet that ``is_bottom`` is dropped, so the rows, meets of
    checked homs, enter the apex unchecked.
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
    homs = []
    for i1, j1 in pairs:
        row, image, kinds = {}, b.row_maps[j1], a.row_kinds[a.extents[i1]]
        for i2, x in a.row_maps[i1].items():  # in target order, and each fibre in object order
            lat, bottom = kinds[i2]
            for j2 in fibres.get((a.extents[i2], f(i2)), ()):
                if j2 in image:
                    meet = lat.meet((x, image[j2]))
                    if not is_bottom(meet, bottom):
                        row[at[i2, j2]] = meet
        homs.append(row)
    p = VCategory(a.base, names, extents, homs, _trusted=True)
    return p, VFunctor(p, a, [i for i, _ in pairs]), VFunctor(p, b, [j for _, j in pairs])


def _unequal_joins(cat, block_of, want, objects) -> Optional[tuple[int, int]]:
    """The first object i of ``objects`` (of ``cat``) whose joins into the
    blocks of ``block_of`` differ from ``want[block_of[i]]`` (a mapping
    without bottom entries), with the least block where they differ, else None.
    """
    for i in objects:
        got, w = _block_joins(cat, i, block_of), want[block_of[i]]
        if got != w:
            return i, min(c for c in w.keys() | got.keys() if w.get(c) != got.get(c))
    return None


def is_functional_bisimulation(f: VFunctor) -> bool:
    """A functor whose target homs equal the fiberwise joins of source homs."""
    if validate_vfunctor(f):
        return False
    # the fibers are the blocks of f.mapping; non-bottom entries suffice
    a = f.source
    return _unequal_joins(a, f.mapping, f.target.row_maps, range(a.n_objects)) is None


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
        # a partition is a bisimulation iff objects sharing a block have equal joins
        # into every block; each block's least member's joins are the quotient's homs
        self._joins = [_block_joins(carrier, block[0], self.block_of) for block in self.blocks]
        others = (i for block in self.blocks for i in block[1:])  # all but the least
        bad = _unequal_joins(carrier, self.block_of, self._joins, others)
        if bad is not None:
            i, c = bad
            raise NotABisimulation(
                f"partition is not a bisimulation: "
                f"{names[self.blocks[self.block_of[i]][0]]} and {names[i]} have "
                f"different joins into the block of {names[self.blocks[c][0]]}"
            )

    def as_relation(self) -> SimRelation:
        pairs = [(i, j) for block in self.blocks for i in block for j in block]
        return SimRelation(self.carrier, self.carrier, pairs)

    def __repr__(self):
        return f"BisimEquivalence({self.blocks})"


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
    equal its class's homs.  ``largest_bisimulation``'s result is the
    union of its final blocks' products, so those blocks are its classes
    and the two checks prove it a bisimulation; any other relation's
    classes are ``checks.linked_classes``', which decides when the
    pairwise check must run.
    """
    if r.left is not a or r.right is not b:
        raise EndpointMismatch("the relation does not link these enrichments")
    na, nb = a.n_objects, b.n_objects
    # each class lists its objects in order, a's (below na) before b's
    blocks = r.final_classes()
    if blocks is None:
        from .checks import linked_classes  # only a relation given as such runs it

        blocks = linked_classes(r)
    elif not (r.total_on_left() and r.total_on_right()):
        raise NotBisimilar("the relation is not total on both sides")
    blocks_a = [[i for i in blk if i < na] for blk in blocks]
    if any(len(x) in (0, len(blk)) for x, blk in zip(blocks_a, blocks)):
        raise InternalAssertion("a linked class misses one side")

    e = BisimEquivalence(a, blocks_a)
    quo, qa = quotient(a, e)
    leg = [0] * nb
    for x, blk in zip(blocks_a, blocks):
        for y in blk[len(x) :]:
            leg[y - na] = e.block_of[x[0]]
    bad = _unequal_joins(b, leg, quo.row_maps, range(nb))
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
