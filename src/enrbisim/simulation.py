"""The largest simulation engine, which only ``simulates`` and
``bisim-largest --sim`` run; its names still resolve in ``bisim``."""

from __future__ import annotations

import itertools

from .bisim import (SimRelation, VCategory, _block_joins, _failing_probe, _pair, _relation_details,
                    _require_pair_budget, require_same_base)


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
    is ever split or subtracted.  More than ``MAX_PAIRS`` extent-matching
    pairs are a ``SizeLimit``, before round 1 builds a partner set.
    """
    require_same_base(left, right)
    _require_pair_budget(left, right)
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


def simulates(left: VCategory, right: VCategory) -> bool:
    """Whether the right enrichment simulates the left one (total on left)."""
    return largest_simulation(left, right).total_on_left()


# the command ``cli.COMMANDS`` routes here; ``bisim-largest --sim`` reads the engine
def cmd_simulates(bundle, flags) -> tuple[str, dict]:
    rel = largest_simulation(*_pair(bundle, flags))
    return "yes" if rel.total_on_left() else "no", _relation_details(rel)
