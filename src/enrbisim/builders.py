"""The builders of ``quantaloid`` and ``vcategory`` documents, and the
grouped check of an enrichment's composition law for every base without
a check of its own.  A request that loads neither kind of document, such
as a specification's sieve request, compiles none of this.
"""

from __future__ import annotations

import importlib

from .errors import ParseError, require_valid
from .jsondocs import _CONSTRUCTIONS, _keyed, _name_lookup, _object, _objects
from .quantaloid import Quantaloid
from .vcat import EnrichedGraph, VCategory, free_vcategory, validate_vcategory


def _quantaloid_from_doc(doc, resolve) -> Quantaloid:
    kind = doc.get("construction", "explicit")
    if not isinstance(kind, str) or kind not in _CONSTRUCTIONS:
        raise ParseError(f"unknown quantaloid construction {kind!r}")
    family = importlib.import_module(f".{_CONSTRUCTIONS[kind]}", __package__)
    return family.quantaloid_from_doc(doc, resolve)


def _vcategory_from_doc(doc, resolve) -> VCategory:
    base = resolve(doc["base"], Quantaloid)
    if "graph" in doc:
        if "objects" in doc or "homs" in doc:
            raise ParseError(f"{doc['name']}: an enrichment gives either a graph or objects and homs")
        g = _object(doc, "graph", doc["graph"])
        index = _name_lookup(doc, "graph vertices", g["vertices"], "name")
        vertices = [(v["name"], base.object_index(v["extent"])) for v in g["vertices"]]
        edges = []
        for e in _objects(doc, "graph edges", g["edges"]):
            s, t = index(e["src"]), index(e["tgt"])
            edges.append((s, t, base.element_from_doc(vertices[s][1], vertices[t][1], e["label"])))
        cat = free_vcategory(base, EnrichedGraph(vertices, edges))
    else:
        index = _name_lookup(doc, "objects", doc["objects"], "name")
        names = [o["name"] for o in doc["objects"]]
        extents = [base.object_index(o["extent"]) for o in doc["objects"]]
        homs: list[dict] = [{} for _ in names]
        for (i, j), elem_doc in _keyed(doc, "homs", index, 2):
            homs[i][j] = base.element_from_doc(extents[i], extents[j], elem_doc)
        cat = VCategory(base, names, extents, homs)
    require_valid("vcategory", validate_vcategory(cat))
    return cat


def composition_violations(a: VCategory) -> list[str]:
    """Where ``hom(i,j).hom(j,k) <= hom(i,k)`` fails, both non-bottom, in
    ``(i, j, k)`` order.  Each row's targets are grouped by (extent, hom
    value).  A row ``j`` of singleton groups is compared target by target,
    with no masks.  Else each group ``(e, g)`` of row ``j`` is composed
    once, to ``c``, and fails at its targets outside the mask of row
    ``i``'s targets of extent ``e`` above ``c``, built once per ``(e, c)``
    from row ``i``'s groups (none when ``c`` is not below bottom, all when
    it is), unless the group is no larger than row ``i``'s group count in
    ``e``: so a row makes at most one ``_leq`` per triple.
    """
    out = []
    base, ext, maps, names = a.base, a.extents, a.row_maps, a.objects
    groups = [_value_groups(row, ext) for row in maps]
    plans = [None if len(g) == len(row) else g for g, row in zip(groups, maps)]  # None: singletons
    for i, map_i in enumerate(maps):
        ei, kinds_i = ext[i], a.row_kinds[ext[i]]
        mine: dict = {}  # extent e -> [(value, bits)] of row i's groups in e
        for e, v, bits, _ in groups[i]:
            mine.setdefault(e, []).append((v, bits))
        masks: dict = {}  # (extent, composite) -> bits of the targets above it
        for j, f in map_i.items():
            ej, plan = ext[j], plans[j]
            if plan is None:
                for k, g in maps[j].items():
                    lat, bottom = kinds_i[k]
                    if not lat._leq(base.compose(ei, ej, ext[k], f, g), map_i.get(k, bottom)):
                        out.append(f"composition fails at ({names[i]},{names[j]},{names[k]})")
                continue
            failed = 0
            for e, g, bits, targets in plan:
                c = base.compose(ei, ej, e, f, g)
                mask = masks.get((e, c))
                if mask is None:
                    (lat, bottom), mine_e = kinds_i[targets[0]], mine.get(e, ())
                    if len(targets) <= len(mine_e):
                        for k in targets:
                            if not lat._leq(c, map_i.get(k, bottom)):
                                failed |= 1 << k
                        continue
                    if lat._leq(c, bottom):
                        mask = -1
                    else:
                        mask = 0
                        for v, vbits in mine_e:
                            if lat._leq(c, v):
                                mask |= vbits
                    masks[e, c] = mask
                failed |= bits & ~mask
            while failed:
                k = (failed & -failed).bit_length() - 1
                failed &= failed - 1
                out.append(f"composition fails at ({names[i]},{names[j]},{names[k]})")
    return out


def _value_groups(row, extents) -> list:
    """A row map's targets grouped by (extent, hom value), as
    ``(extent, value, bitmask of the targets, their list in order)``."""
    groups: dict = {}
    for k, g in row.items():
        groups.setdefault((extents[k], g), []).append(k)
    return [(e, g, sum(1 << k for k in ks), ks) for (e, g), ks in groups.items()]
