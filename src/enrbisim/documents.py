"""Documents and the bundle that cross-links them.

Every document has a ``schema`` tag, a unique ``name`` and a ``kind``.
References between documents are by name; a bundle resolves them in
dependency order and validates each object as it is built.  ``jsondocs``
reads, builds and writes JSON documents, and ``language`` reads
Aldebaran automata straight into their free enrichment.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

# these modules are lazy (see the package): read their names at call time
from . import _moved, builders, checks, cobdocs, cts, ctsrefine, jsondocs
from .errors import DanglingReference, ParseError, ValidationError
from .vcat import VCategory

SCHEMA = "enrbisim/1"
# Most names one field of a document may define, and states an Aldebaran header may announce
MAX_OBJECTS = 1 << 17


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
        return sorted(n for n, k in self.kinds.items() if kind is None or k == kind)

    def sieve_base(self, fincat_name: str) -> cts.CribleQuantaloid:
        """The sieve quantaloid of a loaded category (``cts.sieve_base``)."""
        return cts.sieve_base(self, fincat_name)

    def store(self, name: str, out: VCategory) -> dict:
        """Keep a command's result under ``name``; return its document."""
        self.objects[name] = out
        self.kinds[name] = "vcategory"
        return jsondocs.vcategory_to_doc(self, name, out)


# in load order: a document refers only to kinds listed before its own; each
# lazy module's reader is read at call time, so only its kinds run it
_BUILDERS = {
    "fincat": lambda doc, resolve: cts.fincat_from_doc(doc),
    "quantaloid": lambda doc, resolve: builders._quantaloid_from_doc(doc, resolve),
    "vcategory": lambda doc, resolve: builders._vcategory_from_doc(doc, resolve),
    "vfunctor": lambda doc, resolve: checks.vfunctor_from_doc(doc, resolve),
    "relation": lambda doc, resolve: checks.relation_from_doc(doc, resolve),
    "tse": lambda doc, resolve: cobdocs.tse_from_doc(doc, resolve),
    "ctsspec": lambda doc, resolve: cts.ctsspec_from_doc(doc, resolve),
    "catfunctor": lambda doc, resolve: ctsrefine.catfunctor_from_doc(doc, resolve),
}
_LOAD_ORDER = list(_BUILDERS)  # a list: document kinds need not be hashable


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"{path}: cannot read: {err}") from None


def _directory_files(path: Path) -> list[Path]:
    """The entries of a directory named ``*.json``, then those named
    ``*.aut``, each in sorted order (what two ``Path.glob`` calls give),
    from one listing."""
    try:
        names = sorted(os.listdir(path))
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from None
    return [path / name for suffix in (".json", ".aut") for name in names if name.endswith(suffix)]


def collect_documents(paths, aut_alphabet=None, aut_k=None) -> list[tuple[dict, Any]]:
    """Each document at the paths and its reader: None for a JSON document
    (its kind's), ``language``'s for an automaton and its base."""
    docs: list[tuple[dict, Any]] = []
    for raw in paths:
        path = Path(raw)
        for file in _directory_files(path) if path.is_dir() else [path]:
            if file.suffix == ".aut":
                if aut_alphabet is None or aut_k is None:
                    raise ParseError(
                        f"{file}: importing automata needs an alphabet and a cutoff"
                    )
                from .language import aut_documents  # only automata need it

                base, automaton = aut_documents(file, aut_alphabet, aut_k)
                if not any(d["name"] == base[0]["name"] for d, _ in docs):
                    docs.append(base)
                docs.append(automaton)
            else:
                docs.append((jsondocs._read_doc(file), None))
    return docs


def load_bundle(paths, aut_alphabet=None, aut_k=None) -> Bundle:
    """Parse, validate and cross-link the documents at the given paths."""
    docs = collect_documents(paths, aut_alphabet, aut_k)
    bundle = Bundle()
    seen = set()
    for doc, _ in docs:
        name = doc["name"]
        if name in seen:
            raise ValidationError(f"duplicate document name {name!r}")
        seen.add(name)
    for kind in _LOAD_ORDER:
        for doc, read in docs:
            if doc["kind"] != kind:
                continue
            name = doc["name"]
            try:
                obj = (read or _BUILDERS[kind])(doc, bundle.get)
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
    unknown = [d for d, _ in docs if d["kind"] not in _LOAD_ORDER]
    if unknown:
        raise ParseError(f"unknown document kind {unknown[0]['kind']!r}")
    return bundle


__getattr__ = _moved(__name__, {"import_aut": "language", "parse_aut": "language",
                                "serialize": "jsondocs", "vcategory_to_doc": "jsondocs"})
