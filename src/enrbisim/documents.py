"""JSON documents: loading, validation, cross-linking and serialization.

Every document is an object with a ``schema`` tag, a unique ``name`` and
a ``kind``.  References between documents are by name; a bundle resolves
them in dependency order and validates each object as it is built.
How a hom element is written and read is the base's own decision
(its ``element_to_doc`` and ``element_from_doc``), and the object that
receives an element checks it; this module only says where in a
document the elements go, and reads every name a document defines
(``_names``, ``_name_lookup``), every object keyed by names (``_keyed``)
and every field of indices (``_indices``); ``_read_doc`` refuses a key
given twice in one JSON object.
The kinds ``cts``, ``cob`` and ``witness`` define are read by those
modules, and each base by the module of its family, which also writes it
(``Quantaloid.construction_doc``); Aldebaran automata are ``language``'s.
"""

from __future__ import annotations

import importlib
import itertools
import json
from pathlib import Path
from typing import Any

# cob, cts and witness are lazy (see the package): read their names at call time
from . import _moved, cob, cts, witness
from .errors import (
    DanglingReference, ParseError, SizeLimit, UnknownObject, ValidationError, require_valid,
)
from .quantaloid import Quantaloid, name_index
from .vcat import EnrichedGraph, VCategory, free_vcategory, validate_vcategory

SCHEMA = "enrbisim/1"
# Most names one field of a document may define, and states an Aldebaran header may announce
MAX_OBJECTS = 1 << 17


# ---------------------------------------------------------------------------
# per-kind builders


# the module of each construction's family, which reads its documents: it
# is imported at call time, so that a request runs only the families it names
_CONSTRUCTIONS = {
    "explicit": "tables", "boolean": "tables", "metric": "tables", "language": "language",
    "rel": "sets", "powerset": "cts", "sieves": "cts",
}


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


def _names(doc, field: str, values, key: str | None = None) -> list[str]:
    """The names a document defines in a field, as given: a list of
    distinct JSON strings (with ``key``, of objects whose ``key`` each
    is), where any other value and a repeated name are each a
    ``ParseError`` naming it.  More than ``MAX_OBJECTS`` entries are a
    ``SizeLimit``, before any name is read."""
    if not isinstance(values, list):
        raise ParseError(f"{doc['name']}: {field} is not a list of names")
    if len(values) > MAX_OBJECTS:
        raise SizeLimit(
            f"{doc['name']}: {field} lists {len(values)} names, more than the cap {MAX_OBJECTS}"
        )
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
    index order."""
    given = {}
    for key, value in doc[field].items():
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
    """The entries of a field that lists indices into ``0..n-1``, taken as
    given: each one JSON integer, or with ``arity`` a list of that many,
    read as a tuple.  Anything else (a bool, a float, a string, an index
    out of range) is a ``ParseError`` naming the entry and ``what`` was
    expected."""
    out = []
    for entry in entries:
        items = entry if arity else [entry]
        if not (isinstance(items, list) and len(items) == max(arity, 1)
                and all(type(i) is int and 0 <= i < n for i in items)):
            raise ParseError(f"{doc['name']}: {field} entry {entry!r} is not {what} in 0..{n - 1}")
        out.append(tuple(entry) if arity else entry)
    return out


def _vcategory_from_doc(doc, resolve) -> VCategory:
    base = resolve(doc["base"], Quantaloid)
    if "graph" in doc:
        g = doc["graph"]
        index = _name_lookup(doc, "graph vertices", g["vertices"], "name")
        vertices = [(v["name"], base.object_index(v["extent"])) for v in g["vertices"]]
        edges = []
        for e in g["edges"]:
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


# ---------------------------------------------------------------------------
# the bundle

class Bundle:
    """Named, validated, cross-linked objects loaded from documents."""

    def __init__(self):
        self.objects: dict[str, Any] = {}
        self.kinds: dict[str, str] = {}
        self.certified: set[str] = set()  # bases whose laws were checked as they loaded

    def get(self, name: str, expected: type | str | None = None):
        """The named object, checked against a type or a kind name; any
        other value, a non-string one included, is a ``DanglingReference``."""
        try:
            obj, kind = self.objects[name], self.kinds[name]
        except (KeyError, TypeError):
            raise DanglingReference(f"no object named {name!r} in the bundle") from None
        if expected is not None and not (
            kind == expected if isinstance(expected, str) else isinstance(obj, expected)
        ):
            raise ValidationError(f"{name!r} is a {kind}, which is not what was expected")
        return obj

    def name_of(self, obj) -> str:
        for name, candidate in self.objects.items():
            if candidate is obj:
                return name
        raise DanglingReference("object is not part of the bundle")

    def names(self, kind: str | None = None) -> list[str]:
        return sorted(
            n for n, k in self.kinds.items() if kind is None or k == kind
        )

    def sieve_base(self, fincat_name: str) -> cts.CribleQuantaloid:
        """The sieve quantaloid of a loaded category (``cts.sieve_base``)."""
        return cts.sieve_base(self, fincat_name)

    def store(self, name: str, out: VCategory) -> dict:
        """Keep a command's result under ``name``; return its document."""
        self.objects[name] = out
        self.kinds[name] = "vcategory"
        return vcategory_to_doc(self, name, out)


# in load order: a document refers only to kinds listed before its own; the
# readers in cts, cob and witness are read at call time, so only their kinds run them
_BUILDERS = {
    "fincat": lambda doc, resolve: cts.fincat_from_doc(doc),
    "quantaloid": _quantaloid_from_doc,
    "vcategory": _vcategory_from_doc,
    "vfunctor": lambda doc, resolve: witness.vfunctor_from_doc(doc, resolve),
    "relation": lambda doc, resolve: witness.relation_from_doc(doc, resolve),
    "tse": lambda doc, resolve: cob.tse_from_doc(doc, resolve),
    "ctsspec": lambda doc, resolve: cts.ctsspec_from_doc(doc, resolve),
    "catfunctor": lambda doc, resolve: cts.catfunctor_from_doc(doc, resolve),
}
_LOAD_ORDER = list(_BUILDERS)  # a list: document kinds need not be hashable


# shorthand spelling: "kind" may name the construction directly
_QUANTALOID_SHORTHANDS = [kind for kind in _CONSTRUCTIONS if kind != "explicit"]


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"{path}: cannot read: {err}") from None


def _read_doc(path: Path) -> dict:
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


def collect_documents(paths, aut_alphabet=None, aut_k=None) -> list[dict]:
    docs = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob("*.json")) + sorted(path.glob("*.aut"))
        else:
            files = [path]
        for file in files:
            if file.suffix == ".aut":
                if aut_alphabet is None or aut_k is None:
                    raise ParseError(
                        f"{file}: importing automata needs an alphabet and a cutoff"
                    )
                from .language import aut_base_doc, aut_to_doc  # only automata need them

                doc = aut_to_doc(file, aut_alphabet, aut_k)
                base_doc = aut_base_doc(aut_alphabet, aut_k)
                if not any(d["name"] == base_doc["name"] for d in docs):
                    docs.append(base_doc)
                docs.append(doc)
            else:
                docs.append(_read_doc(file))
    return docs


def load_bundle(paths, aut_alphabet=None, aut_k=None) -> Bundle:
    """Parse, validate and cross-link the documents at the given paths."""
    docs = collect_documents(paths, aut_alphabet, aut_k)
    bundle = Bundle()
    seen = set()
    for doc in docs:
        name = doc["name"]
        if name in seen:
            raise ValidationError(f"duplicate document name {name!r}")
        seen.add(name)
    for kind in _LOAD_ORDER:
        for doc in docs:
            if doc["kind"] != kind:
                continue
            name = doc["name"]
            try:
                obj = _BUILDERS[kind](doc, bundle.get)
            except KeyError as err:
                raise ParseError(f"{name}: missing field {err}") from None
            except (TypeError, ValueError, AttributeError, IndexError, ZeroDivisionError) as err:
                raise ParseError(f"{name}: malformed field ({type(err).__name__}: {err})") from None
            except (ValidationError, DanglingReference) as err:
                raise type(err)(f"{name}: {err}") from None
            bundle.objects[name] = obj
            bundle.kinds[name] = kind
            if kind == "quantaloid" and doc.get("construction", "explicit") == "explicit":
                bundle.certified.add(name)  # _quantaloid_from_doc checked its laws
    unknown = [d for d in docs if d["kind"] not in _LOAD_ORDER]
    if unknown:
        raise ParseError(f"unknown document kind {unknown[0]['kind']!r}")
    return bundle


# ---------------------------------------------------------------------------
# serialization back to documents


def serialize(bundle: Bundle, name: str) -> dict:
    """Canonical document for a loaded object."""
    obj = bundle.get(name)
    kind = bundle.kinds[name]
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
    base = cat.base
    return {
        "schema": SCHEMA,
        "name": name,
        "kind": "vcategory",
        "base": bundle.name_of(base),
        "objects": [
            {"name": cat.objects[i], "extent": base.objects[cat.extents[i]]}
            for i in range(cat.n_objects)
        ],
        "homs": {
            f"{cat.objects[i]},{cat.objects[j]}": base.element_to_doc(
                cat.extents[i], cat.extents[j], cat.hom(i, j)
            )
            for i in range(cat.n_objects)
            for j in range(cat.n_objects)
        },
    }


__getattr__ = _moved(__name__, dict.fromkeys(
    ("aut_base_doc", "aut_to_doc", "import_aut", "parse_aut"), "language"
))
