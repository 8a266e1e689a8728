"""JSON documents: loading, validation, cross-linking and serialization.

Every document is an object with a ``schema`` tag, a unique ``name`` and
a ``kind``.  References between documents are by name; a bundle resolves
them in dependency order and validates each object as it is built.
How a hom element is written and read is the base's own decision
(``Quantaloid.element_to_doc`` and ``Quantaloid.element_decoder``);
this module only says where in a document the elements go.  The kinds
``cts`` and ``cob`` define are read by those modules.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path
from typing import Any

# bisim, cob and cts are lazy (see the package): read their names at call time
from . import bisim, cob, cts
from .errors import (
    DanglingReference,
    ParseError,
    UnknownLabel,
    ValidationError,
)
from .lattice import TableLattice
from .quantaloid import (
    LanguageQuantale,
    MetricQuantale,
    Quantaloid,
    RelQuantaloid,
    TableQuantaloid,
    build_boolean_quantale,
    build_language_quantale,
    build_metric_quantale,
    build_rel_quantaloid,
    grid_value,
    validate_quantaloid,
)
from .vcat import EnrichedGraph, VCategory, VFunctor, free_vcategory, validate_vcategory, validate_vfunctor

SCHEMA = "enrbisim/1"


# ---------------------------------------------------------------------------
# per-kind builders


def _table_lattice_from_doc(doc) -> TableLattice:
    lat = TableLattice([str(n) for n in doc["elements"]], [tuple(p) for p in doc["leq"]])
    problems = lat.validate()
    if problems:
        raise ValidationError(f"lattice invalid: {problems[0]}")
    return lat


def _quantaloid_from_doc(doc, resolve) -> Quantaloid:
    kind = doc.get("construction", "explicit")
    if kind == "boolean":
        return build_boolean_quantale()
    if kind == "language":
        return build_language_quantale([str(s) for s in doc["alphabet"]], int(doc["k"]))
    if kind == "metric":
        return build_metric_quantale([grid_value(str(g)) for g in doc["grid"]])
    if kind == "rel":
        return build_rel_quantaloid([list(s) for s in doc["sets"]])
    if kind == "powerset":
        return cts.PowersetCatQuantaloid(resolve(doc["category"], cts.FiniteCategory))
    if kind == "sieves":
        return cts.build_S_quantaloid(resolve(doc["category"], cts.FiniteCategory))
    if kind != "explicit":
        raise ParseError(f"unknown quantaloid construction {kind!r}")
    objects = [str(o) for o in doc["objects"]]
    homs = {}
    for key, lat_doc in doc["homs"].items():
        u, v = key.split(",")
        homs[(objects.index(u), objects.index(v))] = _table_lattice_from_doc(lat_doc)
    tensor = {}
    for key, table in doc["tensor"].items():
        u, v, w = key.split(",")
        tensor[(objects.index(u), objects.index(v), objects.index(w))] = [
            [int(x) for x in row] for row in table
        ]
    units = [0] * len(objects)
    for key, idx in doc["id"].items():
        units[objects.index(key)] = int(idx)
    q = TableQuantaloid(objects, homs, tensor, units)
    report = validate_quantaloid(q)
    if not report.ok:
        raise ValidationError(f"quantaloid invalid: {report.violations[0]}")
    return q


def _once(doc, field: str, entries) -> dict:
    """The ``(key, value)`` entries of a document field as a dict; a key
    given twice is a ``ParseError``."""
    table: dict = {}
    for key, value in entries:
        if key in table:
            raise ParseError(f"{doc['name']}: {field} gives {key!r} twice")
        table[key] = value
    return table


def _name_lookup(doc, names: list[str]):
    """Object index by name, in one map.  A repeated name and an unknown
    one are each a ``ParseError``."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if index.setdefault(name, i) != i:
            raise ParseError(f"{doc['name']}: object name {name!r} is repeated")

    def lookup(name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise ParseError(f"{doc['name']}: no object named {name!r}") from None

    return lookup


def _vcategory_from_doc(doc, resolve) -> VCategory:
    base = resolve(doc["base"], Quantaloid)
    decoder = functools.cache(base.element_decoder)  # one per extent pair

    if "graph" in doc:
        g = doc["graph"]
        vertices = [
            (str(v["name"]), base.object_index(str(v["extent"])))
            for v in g["vertices"]
        ]
        index = _name_lookup(doc, [n for n, _ in vertices])
        edges = []
        for e in g["edges"]:
            s, t = index(str(e["src"])), index(str(e["tgt"]))
            label = decoder(vertices[s][1], vertices[t][1])(e["label"])
            edges.append((s, t, label))
        cat = free_vcategory(base, EnrichedGraph(vertices, edges))
    else:
        objs = [(str(o["name"]), base.object_index(str(o["extent"]))) for o in doc["objects"]]
        names = [n for n, _ in objs]
        extents = [e for _, e in objs]
        homs: list[dict] = [{} for _ in names]
        index = _name_lookup(doc, names)
        for key, elem_doc in doc["homs"].items():
            a, b = key.split(",")
            i, j = index(a), index(b)
            homs[i][j] = decoder(extents[i], extents[j])(elem_doc)
        cat = VCategory(base, names, extents, homs)
    problems = validate_vcategory(cat)
    if problems:
        raise ValidationError(f"vcategory invalid: {problems[0]}")
    return cat


def _vfunctor_from_doc(doc, resolve) -> VFunctor:
    source = resolve(doc["source"], VCategory)
    target = resolve(doc["target"], VCategory)
    mapping = [0] * source.n_objects
    seen = set()
    for a, b in doc["map"].items():
        i = source.object_index(str(a))
        mapping[i] = target.object_index(str(b))
        seen.add(i)
    if len(seen) != source.n_objects:
        raise ValidationError("functor map misses source objects")
    f = VFunctor(source, target, mapping)
    problems = validate_vfunctor(f)
    if problems:
        raise ValidationError(f"vfunctor invalid: {problems[0]}")
    return f


def _relation_from_doc(doc, resolve) -> bisim.SimRelation:
    left = resolve(doc["left"], VCategory)
    right = resolve(doc["right"], VCategory)
    return bisim.SimRelation.from_names(
        left, right, [(str(a), str(b)) for a, b in doc["pairs"]]
    )


# ---------------------------------------------------------------------------
# the bundle

class Bundle:
    """Named, validated, cross-linked objects loaded from documents."""

    def __init__(self):
        self.objects: dict[str, Any] = {}
        self.kinds: dict[str, str] = {}
        self.certified: set[str] = set()  # bases whose laws were checked as they loaded

    def get(self, name: str, expected: type | str | None = None):
        """The named object, checked against a type or a kind name."""
        if name not in self.objects:
            raise DanglingReference(f"no object named {name!r} in the bundle")
        obj = self.objects[name]
        kind = self.kinds[name]
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
        """The sieve quantaloid of a loaded category: the first sieve base
        over it in the bundle, else one built now and kept under the name
        ``S(<category>)``, which no other object may have."""
        cat = self.get(fincat_name, cts.FiniteCategory)
        for obj in self.objects.values():
            if isinstance(obj, cts.CribleQuantaloid) and obj.cat is cat:
                return obj
        name = f"S({fincat_name})"
        if name in self.objects:
            raise ValidationError(
                f"the sieve base of {fincat_name!r} would be named {name!r}, "
                f"but that names a {self.kinds[name]} that is not a sieve base over it"
            )
        sieves = self.objects[name] = cts.build_S_quantaloid(cat)
        self.kinds[name] = "quantaloid"
        return sieves


# in load order: a document refers only to kinds listed before its own; the
# readers in cts and cob are read at call time, so only their kinds run them
_BUILDERS = {
    "fincat": lambda doc, resolve: cts.fincat_from_doc(doc),
    "quantaloid": _quantaloid_from_doc,
    "vcategory": _vcategory_from_doc,
    "vfunctor": _vfunctor_from_doc,
    "relation": _relation_from_doc,
    "tse": lambda doc, resolve: cob.tse_from_doc(doc, resolve),
    "ctsspec": lambda doc, resolve: cts.ctsspec_from_doc(doc, resolve),
    "catfunctor": lambda doc, resolve: cts.catfunctor_from_doc(doc, resolve),
}
_LOAD_ORDER = list(_BUILDERS)  # a list: document kinds need not be hashable


# shorthand spelling: "kind" may name the construction directly
_QUANTALOID_SHORTHANDS = ("boolean", "language", "metric", "rel", "powerset", "sieves")


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"{path}: cannot read: {err}") from None


def _read_doc(path: Path) -> dict:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: document must be an object")
    if doc.get("schema") != SCHEMA:
        raise ParseError(f"{path}: missing or unsupported schema tag")
    for key in ("name", "kind"):
        if key not in doc:
            raise ParseError(f"{path}: missing {key!r}")
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
        name = str(doc["name"])
        if name in seen:
            raise ValidationError(f"duplicate document name {name!r}")
        seen.add(name)
    for kind in _LOAD_ORDER:
        for doc in docs:
            if doc["kind"] != kind:
                continue
            name = str(doc["name"])

            def resolve(ref, expected):
                return bundle.get(str(ref), expected)

            try:
                obj = _BUILDERS[kind](doc, resolve)
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
# Aldebaran automata

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_AUT_LINE = re.compile(r'\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')


def parse_aut(path) -> tuple[int, int, list[tuple[int, str, int]]]:
    """Read an Aldebaran file: header ``des (init, trans, states)``."""
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = _AUT_HEADER.match(lines[0])
    if not header:
        raise ParseError(f"{path}: bad header {lines[0]!r}")
    initial, n_trans, n_states = (int(g) for g in header.groups())
    if initial >= n_states:
        raise ParseError(f"{path}: initial state {initial} out of range")
    transitions = []
    for ln in lines[1:]:
        m = _AUT_LINE.match(ln)
        if not m:
            raise ParseError(f"{path}: bad transition line {ln!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n_states or dst >= n_states:
            raise ParseError(f"{path}: state out of range in {ln!r}")
        transitions.append((src, label, dst))
    if len(transitions) != n_trans:
        raise ParseError(
            f"{path}: header announces {n_trans} transitions, found {len(transitions)}"
        )
    return initial, n_states, transitions


def aut_base_doc(alphabet, k) -> dict:
    alphabet = [str(a) for a in alphabet]
    return {
        "schema": SCHEMA,
        "name": f"QL({','.join(alphabet)},{k})",
        "kind": "quantaloid",
        "construction": "language",
        "alphabet": alphabet,
        "k": int(k),
    }


def aut_to_doc(path, alphabet, k) -> dict:
    """Translate an Aldebaran file into a free-enrichment document."""
    alphabet = [str(a) for a in alphabet]
    _, n_states, transitions = parse_aut(path)
    for _, label, _ in transitions:
        if label not in alphabet:
            raise UnknownLabel(f"{path}: label {label!r} not in the alphabet")
    return {
        "schema": SCHEMA,
        "name": Path(path).stem,
        "kind": "vcategory",
        "base": aut_base_doc(alphabet, k)["name"],
        "graph": {
            "vertices": [{"name": f"s{i}", "extent": "*"} for i in range(n_states)],
            "edges": [
                {"src": f"s{s}", "tgt": f"s{t}", "label": [[label]]}
                for s, label, t in transitions
            ],
        },
    }


def import_aut(path, alphabet, k) -> VCategory:
    """Free enrichment of an automaton over the truncated word base."""
    doc = aut_to_doc(path, alphabet, k)
    base = build_language_quantale([str(a) for a in alphabet], int(k))

    def resolve(ref, expected):
        return base

    return _vcategory_from_doc(doc, resolve)


# ---------------------------------------------------------------------------
# serialization back to documents


def serialize(bundle: Bundle, name: str) -> dict:
    """Canonical document for a loaded object."""
    obj = bundle.get(name)
    kind = bundle.kinds[name]
    if kind == "quantaloid":
        return _quantaloid_to_doc(bundle, name, obj)
    if kind == "fincat":
        return cts.fincat_to_doc(name, obj)
    if kind == "vcategory":
        return vcategory_to_doc(bundle, name, obj)
    if kind == "vfunctor":
        return {
            "schema": SCHEMA,
            "name": name,
            "kind": "vfunctor",
            "source": bundle.name_of(obj.source),
            "target": bundle.name_of(obj.target),
            "map": {
                obj.source.objects[i]: obj.target.objects[obj(i)]
                for i in range(obj.source.n_objects)
            },
        }
    if kind == "relation":
        return {
            "schema": SCHEMA,
            "name": name,
            "kind": "relation",
            "left": bundle.name_of(obj.left),
            "right": bundle.name_of(obj.right),
            "pairs": [list(p) for p in obj.pairs_named()],
        }
    raise ValidationError(f"cannot serialize documents of kind {kind!r}")


def _quantaloid_to_doc(bundle, name, q) -> dict:
    head = {"schema": SCHEMA, "name": name, "kind": "quantaloid"}
    if isinstance(q, LanguageQuantale):
        return head | {
            "construction": "language",
            "alphabet": list(q.alphabet),
            "k": q.k,
        }
    if isinstance(q, MetricQuantale):
        return head | {
            "construction": "metric",
            "grid": [("inf" if g == float("inf") else str(g)) for g in q.grid],
        }
    if isinstance(q, RelQuantaloid):
        return head | {"construction": "rel", "sets": [list(s) for s in q.sets]}
    if isinstance(q, TableQuantaloid):
        objects = list(q.objects)
        homs = {}
        tensor = {}
        for u in range(len(objects)):
            for v in range(len(objects)):
                lat = q.hom(u, v)
                homs[f"{objects[u]},{objects[v]}"] = {
                    "elements": list(lat.names),
                    "leq": sorted(
                        [i, j]
                        for i in lat.elements()
                        for j in lat.elements()
                        if lat.leq(i, j)
                    ),
                }
        for u in range(len(objects)):
            for v in range(len(objects)):
                for w in range(len(objects)):
                    tensor[f"{objects[u]},{objects[v]},{objects[w]}"] = [
                        [q.compose(u, v, w, f, g) for g in q.hom(v, w).elements()]
                        for f in q.hom(u, v).elements()
                    ]
        return head | {
            "objects": objects,
            "homs": homs,
            "tensor": tensor,
            "id": {objects[u]: q.unit(u) for u in range(len(objects))},
        }
    if isinstance(q, cts.PowersetCatQuantaloid):
        return head | {"construction": "powerset", "category": bundle.name_of(q.cat)}
    if isinstance(q, cts.CribleQuantaloid):
        return head | {"construction": "sieves", "category": bundle.name_of(q.cat)}
    raise ValidationError(f"cannot serialize base {q!r}")


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
