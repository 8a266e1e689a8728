"""The generic free closure behind ``Quantaloid.free_homs``: only graph
documents over a base without a faster way of its own import it.
"""

from __future__ import annotations

import collections
import itertools
from typing import Any

from .quantaloid import Quantaloid
from .vcat import is_bottom


def free_homs(base: Quantaloid, extents: list[int], edges) -> list[dict[int, Any]]:
    """Hom rows of the free enrichment on a graph whose vertices have
    ``extents`` and whose ``edges`` are ``(source, target, label)``:
    the ascending closure under identities, labels and composition of
    ``base``, whose ``free_homs`` calls this unless it has a faster way.

    Row ``i`` of the closure is the least solution of
    ``r = unit(i) ∨ r·E``, where ``E`` joins the parallel edge labels of
    each ``(s, t)`` once.  Because composition preserves joins in each
    argument, that row equals the least fixed point of joining
    ``hom(i,k)·hom(k,j)`` into ``hom(i,j)`` over all ``(i, k, j)``:
    ``validate_quantaloid`` certifies the laws for table bases, and the
    structural bases have them by construction.  So each source runs a
    worklist of its own.  Row ``i`` starts as the unit at ``i`` joined
    with ``i``'s edge labels, and the queue (first in, first out) holds
    the targets ``k`` whose ``hom(i,k)`` grew; for each edge ``k -> j``
    labelled ``g``, the composite ``hom(i,k)·g`` is joined into
    ``hom(i,j)`` (it replaces a hom it lies above), and ``j`` is queued
    again only if its hom grew.  A target row ``i`` never reaches is
    never composed from, which is exact because bottom composes to
    bottom.  A source's work is the out-edges of the targets it reaches,
    once for each time their hom grows, where the passes it replaces
    visited all n³ cells, a last pass that changed nothing included.

    ``base.compose`` is a pure function of its arguments and hom
    elements are hashable, so each distinct ``(extents, f, g)`` is
    composed once, into a cache that lives for the call; over a base
    whose homs take few values that cache is small and most steps are
    dictionary hits.
    """
    n = len(extents)
    lattices = {key: base.hom(*key) for key in itertools.product(set(extents), repeat=2)}
    row_lattices = {u: [lattices[u, v] for v in extents] for u in set(extents)}
    bottoms = {u: [lat._join(()) for lat in lats] for u, lats in row_lattices.items()}
    labels: dict[tuple[int, int], list] = {}
    for s, t, lab in edges:
        labels.setdefault((s, t), []).append(lab)
    out: list[list[tuple[int, int, Any]]] = [[] for _ in range(n)]  # (j, e_j, label of k -> j)
    for (s, t), labs in labels.items():
        out[s].append((t, extents[t], lattices[extents[s], extents[t]]._join(labs)))
    composites: dict = {}  # (e_i, e_k, e_j, f, g) -> base.compose of them
    homs = []
    for i in range(n):
        ei, lats, bottoms_i = extents[i], row_lattices[extents[i]], bottoms[extents[i]]
        row = {i: base.unit(ei)}
        for j, _, g in out[i]:
            row[j] = lats[j]._join([row[j], g]) if j in row else g
        pending = collections.deque([i, *(j for j, _, _ in out[i] if j != i)])
        queued = set(pending)
        while pending:
            k = pending.popleft()
            queued.discard(k)
            f, ek = row[k], extents[k]
            for j, ej, g in out[k]:
                key = (ei, ek, ej, f, g)
                try:
                    comp = composites[key]
                except KeyError:
                    comp = composites[key] = base.compose(*key)
                lat, have = lats[j], row.get(j, bottoms_i[j])
                if not lat._leq(comp, have):
                    row[j] = comp if lat._leq(have, comp) else lat._join([have, comp])
                    if j not in queued:
                        queued.add(j)
                        pending.append(j)
        # the enrichment takes the rows unchecked: in target order, bottoms dropped
        homs.append({j: x for j, x in sorted(row.items()) if not is_bottom(x, bottoms_i[j])})
    return homs
