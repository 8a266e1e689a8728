"""JSON documents, read (``_read_doc`` refuses a key given twice in one
object) and written back (``serialize``), with the readers of every list,
name, name-keyed object and index field a document defines; each base
reads and writes its own elements.  Automata are ``language``'s, so only a
request that reads a ``.json`` file or stores a result runs this module
and ``json``.  The builders of ``quantaloid`` and ``vcategory`` documents
and the grouped composition-law check are ``builders``'s; their names
still resolve here.
"""

from __future__ import annotations

import itertools
import json

from . import _moved, checks, cts, documents
from .documents import SCHEMA, Bundle, _read_text
from .errors import ParseError, SizeLimit, UnknownObject, ValidationError
from .quantaloid import name_index
from .vcat import VCategory

# the module of each construction's family, which reads its documents: it
# is imported at call time, so that a request runs only the families it names
_CONSTRUCTIONS = {
    "explicit": "tables", "boolean": "tables", "metric": "tables", "language": "language",
    "rel": "rel", "powerset": "cts", "sieves": "cts",
}
# shorthand spelling: "kind" may name the construction directly
_QUANTALOID_SHORTHANDS = [kind for kind in _CONSTRUCTIONS if kind != "explicit"]


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


def _objects(doc, field: str, values) -> list[dict]:
    """A list of JSON objects a document gives (``_listed``), as given: an
    entry of any other JSON value is a ``ParseError`` naming it."""
    for entry in _listed(doc, field, values):
        if type(entry) is not dict:
            raise ParseError(f"{doc['name']}: {field} entry {entry!r} is not an object")
    return values


def _object(doc, field: str, value) -> dict:
    """A JSON object a document gives, as given: any other JSON value is a
    ``ParseError`` naming the document, the field and the value."""
    if type(value) is not dict:
        raise ParseError(f"{doc['name']}: {field} {value!r} is not an object")
    return value


def _names(doc, field: str, values, key: str | None = None) -> list[str]:
    """The names a document defines in a field, as given: a list of
    distinct JSON strings (with ``key``, of objects whose ``key`` each
    is, ``_objects``), where any other value and a repeated name are each
    a ``ParseError`` naming it.  More than ``documents.MAX_OBJECTS``
    entries are a ``SizeLimit``, before any name is read."""
    if len(_listed(doc, field, values)) > documents.MAX_OBJECTS:
        raise SizeLimit(f"{doc['name']}: {field} lists {len(values)} names, "
                        f"more than the cap {documents.MAX_OBJECTS}")
    if key is not None:
        values = [value[key] for value in _objects(doc, field, values)]
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
        return head | checks.vfunctor_to_doc(obj, bundle.name_of)
    if kind == "relation":
        return head | checks.relation_to_doc(obj, bundle.name_of)
    raise ValidationError(f"cannot serialize documents of kind {kind!r}")


def vcategory_to_doc(bundle: Bundle, name: str, cat: VCategory) -> dict:
    """The explicit document of an enrichment, every hom written.  Each
    distinct (extent pair, hom) is written once, and its cells share
    that one document."""
    base, names, ext, n = cat.base, cat.objects, cat.extents, range(cat.n_objects)
    written: dict = {}  # (extent pair, hom) -> its document
    homs = {}
    for i in n:
        for j in n:
            key = (ext[i], ext[j], cat.hom(i, j))
            doc = written.get(key)
            if doc is None:
                doc = written[key] = base.element_to_doc(*key)
            homs[f"{names[i]},{names[j]}"] = doc
    return {
        "schema": SCHEMA, "name": name, "kind": "vcategory", "base": bundle.name_of(base),
        "objects": [{"name": names[i], "extent": base.objects[ext[i]]} for i in n],
        "homs": homs,
    }


__getattr__ = _moved(__name__, dict.fromkeys(
    ("_quantaloid_from_doc", "_vcategory_from_doc", "composition_violations", "_value_groups"),
    "builders",
))
