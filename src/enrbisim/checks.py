"""What checks a relation or a functor that a document or a caller
gives: the direct (bi)simulation checks, the equivalence closure, the
linked classes a relation must close under before it is a cospan's, the
``vfunctor`` and ``relation`` documents, and the commands that read
them.  Only such a relation or functor runs this module; the witnesses
of ``largest_bisimulation``'s result read its blocks in ``witness``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import jsondocs
from .bisim import SimRelation, _failing_probe
from .errors import EndpointMismatch, NotABisimulation, NotBisimilar, require_valid
from .vcat import VCategory
from .witness import BisimEquivalence, VFunctor, is_od, quotient, validate_vfunctor


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
    left, rmaps = r.left, r.right.row_maps
    for a, b in sorted(r.pairs):
        ap = _failing_probe(left, a, left.row_maps[a].items(), b, rmaps[b], mates, joins)
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


def linked_classes(r: SimRelation) -> list[list[int]]:
    """The classes the relation links on the coproduct of its ends (the
    right objects after the left ones), each in object order, by least
    member, for ``witness.cospan_witness``.

    A relation that is not total on both sides, or is not the union of
    its classes' products, must pass ``is_bisimulation`` (else
    ``NotABisimulation``) and be total (else ``NotBisimilar``).  A total
    relation equal to that union is the composite of the cospan's legs'
    graphs, so the legs' own checks prove it a bisimulation.
    """
    na = r.left.n_objects
    blocks = _closure_blocks(na + r.right.n_objects, [(x, na + y) for x, y in r.pairs])
    total = r.total_on_left() and r.total_on_right()
    # r lies inside that union, so the sizes decide equality
    lefts = [sum(i < na for i in blk) for blk in blocks]
    closed = len(r) == sum(x * (len(blk) - x) for x, blk in zip(lefts, blocks))
    if not (total and closed):
        check = is_bisimulation(r)
        if not check:
            raise NotABisimulation(f"relation fails at {check.counterexample}")
        if not total:
            raise NotBisimilar("the relation is not total on both sides")
    return blocks


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
