"""JSON documents, read (``_read_doc`` refuses a key given twice in one
object) and written back (``serialize``), with the readers of every list,
name, name-keyed object and index field a document defines; each base
reads and writes its own elements.  Automata are ``language``'s, so only a
request that reads a ``.json`` file, stores a result or checks the
composition law over a base without a check of its own runs this module
and ``json``.
"""

from __future__ import annotations

import importlib
import itertools
import json

from . import cts, documents, witness
from .documents import SCHEMA, Bundle, _read_text
from .errors import ParseError, SizeLimit, UnknownObject, ValidationError, require_valid
from .quantaloid import Quantaloid, name_index
from .vcat import EnrichedGraph, VCategory, free_vcategory, validate_vcategory

# the module of each construction's family, which reads its documents: it
# is imported at call time, so that a request runs only the families it names
_CONSTRUCTIONS = {
    "explicit": "tables", "boolean": "tables", "metric": "tables", "language": "language",
    "rel": "sets", "powerset": "cts", "sieves": "cts",
}
# shorthand spelling: "kind" may name the construction directly
_QUANTALOID_SHORTHANDS = [kind for kind in _CONSTRUCTIONS if kind != "explicit"]


def _quantaloid_from_doc(doc, resolve) -> Quantaloid:
    kind = doc.get("construction", "explicit")
    if not isinstance(kind, str) or kind not in _CONSTRUCTIONS:
        raise ParseError(f"unknown quantaloid construction {kind!r}")
    family = importlib.import_module(f".{_CONSTRUCTIONS[kind]}", __package__)
    return family.quantaloid_from_doc(doc, resolve)


def _once(doc, field: str, entries) -> dict:
    """The ``(key, value)`` entries of a document field as a dict; a key
    given twice is a ``ParseError``."""
    table: dict = {}
    for key, value in entries:
        if key in table:
            raise ParseError(f"{doc['name']}: {field} gives {key!r} twice")
        table[key] = value
    return table


def _listed(doc, field: str, values, what: str | None = None, arity: int | None = None) -> list:
    """A list a document gives, as given: a JSON list, where any other
    value (a string, object, number, bool or null) is a ``ParseError``
    naming the document and the field.  With ``what``, each entry must be
    a JSON list too (of ``arity`` items, with ``arity``), and one that is
    not is a ``ParseError`` naming the entry and ``what`` was expected."""
    if type(values) is not list:
        raise ParseError(f"{doc['name']}: {field} is not a list")
    if what is not None:
        for entry in values:
            if type(entry) is not list or arity is not None and len(entry) != arity:
                raise ParseError(f"{doc['name']}: {field} entry {entry!r} is not {what}")
    return values


def _names(doc, field: str, values, key: str | None = None) -> list[str]:
    """The names a document defines in a field, as given: a list of
    distinct JSON strings (with ``key``, of objects whose ``key`` each
    is), where any other value and a repeated name are each a
    ``ParseError`` naming it.  More than ``documents.MAX_OBJECTS``
    entries are a ``SizeLimit``, before any name is read."""
    if len(_listed(doc, field, values)) > documents.MAX_OBJECTS:
        raise SizeLimit(f"{doc['name']}: {field} lists {len(values)} names, "
                        f"more than the cap {documents.MAX_OBJECTS}")
    if key is not None:
        values = [value[key] for value in values]
    seen = set()
    for name in values:
        if not isinstance(name, str):
            raise ParseError(f"{doc['name']}: name {name!r} in {field} is not a string")
        if name in seen:
            raise ParseError(f"{doc['name']}: name {name!r} in {field} is repeated")
        seen.add(name)
    return values


def _name_lookup(doc, field: str, values, key: str | None = None):
    """Index of the objects a document defines in a field (``_names``), by
    name (``name_index``).  An unknown name and one with a comma (which
    the ``"a,b"`` keys could not split) are each a ``ParseError``."""
    names = _names(doc, field, values, key)
    for name in names:
        if "," in name:
            raise ParseError(f"{doc['name']}: object name {name!r} has a comma")
    return name_index(names, error=lambda message: ParseError(f"{doc['name']}: {message}"))


def _keyed(doc, field: str, lookup, arity: int, names=None):
    """``(indices, value)`` for each entry of a name-keyed field: a key of
    arity 1 is one whole name, a longer one ``arity`` comma-joined names,
    each resolved by ``lookup``.  A key that names another number of
    objects or an unknown one is a ``ParseError``.  With ``names``, so is
    an ``arity``-tuple of them that no key gives, and the entries come in
    index order.  A field that is not a JSON object is a ``ParseError``."""
    entries = doc[field]
    if type(entries) is not dict:
        raise ParseError(f"{doc['name']}: {field} is not an object")
    given = {}
    for key, value in entries.items():
        parts = key.split(",") if arity > 1 else [key]
        if len(parts) != arity:
            raise ParseError(
                f"{doc['name']}: {field} key {key!r} names {len(parts)} objects, not {arity}"
            )
        try:
            given[tuple(map(lookup, parts))] = value
        except UnknownObject as err:  # a lookup into another object's names
            raise ParseError(f"{doc['name']}: {field} key {key!r}: {err}") from None
    if names is None:
        return given.items()
    for indices in itertools.product(range(len(names)), repeat=arity):
        if indices not in given:
            key = ",".join(names[i] for i in indices)
            raise ParseError(f"{doc['name']}: {field} misses the key '{key}'")
    return sorted(given.items())


def _indices(doc, field: str, entries, n: int, what: str, arity: int = 0) -> list:
    """The entries of a list (``_listed``) of indices into ``0..n-1``,
    taken as given: each one JSON integer, or with ``arity`` a list of
    that many, read as a tuple.  Anything else (a bool, a float, a string,
    an index out of range) is a ``ParseError`` naming the entry and
    ``what`` was expected."""
    what = f"{what} in 0..{n - 1}"
    entries = _listed(doc, field, entries, what, arity) if arity else _listed(doc, field, entries)
    for entry in entries:
        if not all(type(i) is int and 0 <= i < n for i in (entry if arity else (entry,))):
            raise ParseError(f"{doc['name']}: {field} entry {entry!r} is not {what}")
    return [tuple(entry) for entry in entries] if arity else list(entries)


def _vcategory_from_doc(doc, resolve) -> VCategory:
    base = resolve(doc["base"], Quantaloid)
    if "graph" in doc:
        if "objects" in doc or "homs" in doc:
            raise ParseError(f"{doc['name']}: an enrichment gives either a graph or objects and homs")
        g = doc["graph"]
        index = _name_lookup(doc, "graph vertices", g["vertices"], "name")
        vertices = [(v["name"], base.object_index(v["extent"])) for v in g["vertices"]]
        edges = []
        for e in _listed(doc, "graph edges", g["edges"]):
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


def _read_doc(path) -> dict:
    def once(pairs: list) -> dict:  # a JSON object, where a key given twice is a ParseError
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"{path}: key {key!r} appears twice in one object")
                seen.add(key)
        return obj

    try:
        doc = json.loads(_read_text(path), object_pairs_hook=once)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: document must be an object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema tag")
    for key in ("name", "kind"):
        if key not in doc:
            raise ParseError(f"{path}: missing {key!r}")
    if not isinstance(doc["name"], str):
        raise ParseError(f"{path}: name {doc['name']!r} is not a string")
    if doc["kind"] in _QUANTALOID_SHORTHANDS:
        doc = doc | {"kind": "quantaloid", "construction": doc["kind"]}
    return doc


def serialize(bundle: Bundle, name: str) -> dict:
    """Canonical document for a loaded object."""
    obj, kind = bundle.get(name), bundle.kinds[name]
    head = {"schema": SCHEMA, "name": name, "kind": kind}
    if kind == "quantaloid":
        return head | obj.construction_doc(bundle.name_of)
    if kind == "fincat":
        return cts.fincat_to_doc(name, obj)
    if kind == "vcategory":
        return vcategory_to_doc(bundle, name, obj)
    if kind == "vfunctor":
        return head | witness.vfunctor_to_doc(obj, bundle.name_of)
    if kind == "relation":
        return head | witness.relation_to_doc(obj, bundle.name_of)
    raise ValidationError(f"cannot serialize documents of kind {kind!r}")


def vcategory_to_doc(bundle: Bundle, name: str, cat: VCategory) -> dict:
    base, names, ext, n = cat.base, cat.objects, cat.extents, range(cat.n_objects)
    return {
        "schema": SCHEMA, "name": name, "kind": "vcategory", "base": bundle.name_of(base),
        "objects": [{"name": names[i], "extent": base.objects[ext[i]]} for i in n],
        "homs": {f"{names[i]},{names[j]}": base.element_to_doc(ext[i], ext[j], cat.hom(i, j))
                 for i in n for j in n},
    }


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
    base, ext, rows, names = a.base, a.extents, a.rows, a.objects
    groups = [_value_groups(row, ext) for row in rows]
    plans = [None if len(g) == len(row) else g for g, row in zip(groups, rows)]  # None: singletons
    for i, row_i in enumerate(rows):
        ei, map_i = ext[i], a.row_maps[i]
        # extent e -> (lattice, bottom, [(value, bits)] of row i's groups in e)
        scope = {e: (lat, lat._join(()), []) for (u, e), lat in a._lattices.items() if u == ei}
        for e, v, bits, _ in groups[i]:
            scope[e][2].append((v, bits))
        masks: dict = {}  # (extent, composite) -> bits of the targets above it
        for j, f, _ in row_i:
            ej, plan = ext[j], plans[j]
            if plan is None:
                for k, g, _ in rows[j]:
                    lat, bottom, _ = scope[ext[k]]
                    if not lat._leq(base.compose(ei, ej, ext[k], f, g), map_i.get(k, bottom)):
                        out.append(f"composition fails at ({names[i]},{names[j]},{names[k]})")
                continue
            failed = 0
            for e, g, bits, targets in plan:
                c = base.compose(ei, ej, e, f, g)
                mask = masks.get((e, c))
                if mask is None:
                    lat, bottom, mine = scope[e]
                    if len(targets) <= len(mine):
                        for k in targets:
                            if not lat._leq(c, map_i.get(k, bottom)):
                                failed |= 1 << k
                        continue
                    if lat._leq(c, bottom):
                        mask = -1
                    else:
                        mask = 0
                        for v, vbits in mine:
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
    """A row's non-bottom targets grouped by (extent, hom value), as
    ``(extent, value, bitmask of the targets, their list in order)``."""
    groups: dict = {}
    for k, g, _ in row:
        groups.setdefault((extents[k], g), []).append(k)
    return [(e, g, sum(1 << k for k in ks), ks) for (e, g), ks in groups.items()]
