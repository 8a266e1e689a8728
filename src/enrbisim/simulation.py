"""The largest simulation engine, which only ``simulates`` and
``bisim-largest --sim`` run; ``largest_simulation`` still resolves in ``bisim``."""

from __future__ import annotations

import itertools

from .bisim import SimRelation, _block_joins, _failing_probe, _pair, _relation_details, _require_pair_budget
from .vcat import VCategory, require_same_base


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
    preds: list[list] = [[] for _ in lnames]  # a' -> (a, hom(a,a'))
    for a, row in enumerate(left.row_maps):
        for ap, x in row.items():
            preds[ap].append((a, x))
    for round_no in itertools.count(2):
        if not shrunk:
            break
        probes: dict = {}  # a -> its probes whose partner sets shrank
        for ap in shrunk:
            for a, x in preds[ap]:
                probes.setdefault(a, []).append((ap, x))
        joins: dict = {}  # (a', b) -> partner join
        removed = [
            (a, b)
            for a, checks in probes.items()
            for b in part[a]
            if _failing_probe(left, a, checks, b, rmaps[b], part, joins) is not None
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
    by_vector: list[dict] = [{}, {}]  # (extent, {extent: join}) -> (joins, objects)
    for side, cat in enumerate((left, right)):
        for x in range(cat.n_objects):
            joins = _block_joins(cat, x, cat.extents)
            key = (cat.extents[x], frozenset(joins.items()))
            by_vector[side].setdefault(key, (joins, []))[1].append(x)
    right_groups: dict = {}  # extent -> [(joins, objects)]
    for (eb, _), group in by_vector[1].items():
        right_groups.setdefault(eb, []).append(group)
    part: list[set] = [set() for _ in left.objects]
    shrunk: set = set()
    trace: list = []
    lnames, rnames = left.objects, right.objects
    column = {e: j for j, e in enumerate(left.extents)}  # extent -> a left object of it
    for (ea, _), (need, lefts) in by_vector[0].items():
        kinds = left.row_kinds[ea]
        checks = [(e, *kinds[column[e]], x) for e, x in need.items()]
        good, bad = [], []
        for have, rights in right_groups.get(ea, ()):
            for e, lat, bottom, x in checks:
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
