import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import rows_of

from enrbisim.bisim import SimRelation
from enrbisim import documents
from enrbisim.cli import default_fixture_paths, main
from enrbisim.cts import FiniteCategory, Morphism, PowersetCatQuantaloid
from enrbisim.documents import MAX_OBJECTS, SCHEMA, load_bundle
from enrbisim.builders import _vcategory_from_doc
from enrbisim.jsondocs import serialize
from enrbisim.cob import TwoSidedEnrichment
from enrbisim.cobdocs import validate_tse
from enrbisim.errors import (
    DanglingReference,
    NotACongruence,
    ParseError,
    SizeLimit,
    TypeMismatch,
    UnknownLabel,
    ValidationError,
)
from enrbisim.fixtures import aut1, loop1
from enrbisim.language import build_language_quantale, import_aut, parse_aut
from enrbisim.quantaloid import Quantaloid
from enrbisim.sets import PowersetLattice
from enrbisim.tables import TableLattice
from enrbisim.vcat import VCategory, validate_vcategory


FIXTURES = default_fixture_paths()
GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"
Q2_DOC = {"schema": SCHEMA, "name": "Q2", "kind": "quantaloid", "construction": "boolean"}
# object names of printable ASCII: a comma is the one character they may not hold
PRINTABLE_NAMES = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","), min_size=1, max_size=4
)


def write_doc(tmp_path, doc):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return path


class TestBundleLoading:
    def test_fixture_directory_loads(self):
        bundle = load_bundle(FIXTURES)
        for name in ("Q2", "QL_m_2", "M3", "REL1", "BP2", "AUT1", "LOOP1", "P01", "POINT"):
            assert name in bundle.objects
        aut = bundle.get("AUT1", VCategory)
        assert aut.objects == ["a0", "a1"]
        assert aut.hom(0, 1) == frozenset({("m",)})
        assert bundle.get("LOOP1").hom(0, 0) == frozenset({(), ("m",), ("m", "m")})

    def test_dangling_reference(self, tmp_path):
        write_doc(
            tmp_path,
            {
                "schema": SCHEMA,
                "name": "X",
                "kind": "vcategory",
                "base": "NOWHERE",
                "objects": [],
                "homs": {},
            },
        )
        with pytest.raises(DanglingReference):
            load_bundle([tmp_path])

    def test_malformed_order_table(self, tmp_path):
        write_doc(
            tmp_path,
            {
                "schema": SCHEMA,
                "name": "BADQ",
                "kind": "quantaloid",
                "objects": ["*"],
                "homs": {
                    "*,*": {"elements": ["x", "y", "z"], "leq": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]]}
                },
                "tensor": {"*,*,*": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
                "id": {"*": 0},
            },
        )
        with pytest.raises(ValidationError, match="transitivity"):
            load_bundle([tmp_path])

    def test_duplicate_names_rejected(self, tmp_path):
        doc = {"schema": SCHEMA, "name": "Q", "kind": "quantaloid", "construction": "boolean"}
        write_doc(tmp_path, doc)
        (tmp_path / "other.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="duplicate"):
            load_bundle([tmp_path])

    @pytest.mark.parametrize("body, field", [
        ({"kind": "vcategory", "base": "Q2", "homs": {"x,y": "1"},
          "objects": [{"name": name, "extent": "*"} for name in ("x", "y", "x")]}, "objects"),
        ({"kind": "vcategory", "base": "Q2",
          "graph": {"vertices": [{"name": name, "extent": "*"} for name in ("x", "y", "x")],
                    "edges": [{"src": "y", "tgt": "x", "label": "1"}]}}, "graph vertices"),
        ({"kind": "ctsspec", "category": "P2", "edges": [],
          "vertices": [{"name": name, "type": "0"} for name in ("x", "y", "x")]}, "vertices"),
    ], ids=["table", "graph", "cts-graph"])
    def test_repeated_object_name_is_a_parse_error(self, tmp_path, capsys, body, field):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "BAD", **body})
        with pytest.raises(ParseError, match=f"BAD: name 'x' in {field} is repeated"):
            load_bundle([*FIXTURES, tmp_path])
        assert main(["--paths", *FIXTURES, "--paths", str(tmp_path), "validate"]) == 2
        assert "ParseError" in json.loads(capsys.readouterr().out)["details"]["error"]

    @pytest.mark.parametrize("body, match", [
        ({"kind": "tse", "source": "Q2", "target": "Q2",
          "carriers": [{"name": "c", "minus": "*", "plus": "*"}],
          "components": {"c,c": [["0", "0"], ["1", "0"], ["1", "1"]]}},
         "BAD: component 'c,c' gives 1 twice"),
        ({"kind": "fincat", "objects": ["x"], "identities": [0],
          "morphisms": [{"name": "id", "src": 0, "tgt": 0}, {"name": "e", "src": 0, "tgt": 0}],
          "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]]},
         "BAD: compose gives (1, 1) twice"),
        ({"kind": "fincat", "objects": ["x"], "identities": [0],
          "morphisms": [{"name": "id", "src": 0, "tgt": 0}], "compose": [[0, 0, 0]],
          "pullbacks": [[0, 0, 0, 0], [0, 0, 0, 0]]},
         "BAD: pullbacks gives (0, 0) twice"),
        ({"kind": "relation", "left": "P01", "right": "P01", "pairs": [["a0", "a1"], ["a1", "a1"], ["a0", "a1"]]},
         "BAD: pairs gives ('a0', 'a1') twice"),
        ({"kind": "quantaloid", "objects": ["*"], "tensor": {"*,*,*": [[0, 0], [0, 1]]}, "id": {"*": 1},
          "homs": {"*,*": {"elements": ["0", "1"], "leq": [[0, 0], [0, 1], [1, 1], [0, 1]]}}},
         "BAD: homs '*,*' leq gives (0, 1) twice"),
        ({"kind": "fincat", "construction": "poset", "elements": ["0", "1"],
          "leq": [[0, 0], [0, 1], [0, 0], [1, 1]]},
         "BAD: leq gives (0, 0) twice"),
    ], ids=["tse-component", "fincat-compose", "fincat-pullbacks", "relation-pair", "base-leq-pair",
            "poset-leq-pair"])
    def test_repeated_entry_is_a_parse_error(self, tmp_path, capsys, body, match):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "BAD", **body})
        with pytest.raises(ParseError, match=re.escape(match)):
            load_bundle([*FIXTURES, tmp_path])
        assert main(["--paths", *FIXTURES, "--paths", str(tmp_path), "validate"]) == 2
        assert "ParseError" in json.loads(capsys.readouterr().out)["details"]["error"]

    def test_a_directory_lists_as_two_globs_did(self, tmp_path):
        """One listing gives what ``sorted(glob("*.json")) +
        sorted(glob("*.aut"))`` gave: hidden files and directories named
        like documents included, suffixes matched by case, ``.aut``
        entries after every ``.json`` one."""
        for name in ["b.json", "a.json", ".hidden.json", ".json", "X.JSON", "Z.json", "c.aut", "a.aut",
                     "a.AUT", "notes.txt", "aut", "json", "z.json.bak", "y.aut.json"]:
            (tmp_path / name).write_text("")
        (tmp_path / "x.json").mkdir()
        (tmp_path / "d.aut").mkdir()
        globbed = sorted(tmp_path.glob("*.json")) + sorted(tmp_path.glob("*.aut"))
        assert documents._directory_files(tmp_path) == globbed
        assert [p.name for p in globbed][-3:] == ["a.aut", "c.aut", "d.aut"]
        assert {".hidden.json", "x.json"} <= {p.name for p in globbed}

    def test_a_directory_named_like_a_document_cannot_be_read(self, tmp_path):
        (tmp_path / "x.json").mkdir()
        with pytest.raises(ParseError, match="x.json: cannot read"):
            load_bundle([tmp_path])

    def test_shorthand_kind_spelling(self, tmp_path):
        write_doc(
            tmp_path,
            {"schema": SCHEMA, "name": "QLX", "kind": "language",
             "alphabet": ["x"], "k": 1},
        )
        bundle = load_bundle([tmp_path])
        assert bundle.kinds["QLX"] == "quantaloid"
        assert bundle.get("QLX").alphabet == ("x",)

    def test_missing_schema_tag(self, tmp_path):
        (tmp_path / "x.json").write_text(json.dumps({"name": "x", "kind": "quantaloid"}))
        with pytest.raises(ParseError, match="schema"):
            load_bundle([tmp_path])

    def test_invalid_vcategory_rejected(self, tmp_path):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "Q", "kind": "quantaloid", "construction": "boolean"})
        write_doc(
            tmp_path,
            {
                "schema": SCHEMA,
                "name": "BADV",
                "kind": "vcategory",
                "base": "Q",
                "objects": [{"name": "x", "extent": "*"}],
                "homs": {"x,x": "0"},
            },
        )
        with pytest.raises(ValidationError, match="vcategory invalid"):
            load_bundle([tmp_path])


class TestBoundaryChecks:
    """A language or poset document field is checked as given: a bad one is
    a ``ParseError`` that names it, never a conversion or an internal error."""

    @staticmethod
    def assert_parse_error(tmp_path, capsys, match):
        with pytest.raises(ParseError, match=re.escape(match)):
            load_bundle([tmp_path])
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": f"ParseError: {match}"}
        assert "Traceback" not in err

    @pytest.mark.parametrize("fields, match", [
        ('"alphabet": ["a"], "k": 1e400', "k must be an integer >= 0, not inf"),
        ('"alphabet": ["a"], "k": 2.5', "k must be an integer >= 0, not 2.5"),
        ('"alphabet": ["a"], "k": true', "k must be an integer >= 0, not True"),
        ('"alphabet": [["a"]], "k": 1', "a letter must be a string: (['a'],)"),
    ], ids=["k-overflows", "k-fraction", "k-boolean", "letter-list"])
    def test_bad_language_field(self, tmp_path, capsys, fields, match):
        (tmp_path / "L.json").write_text(
            f'{{"schema": "{SCHEMA}", "name": "L", "kind": "language", {fields}}}'
        )
        self.assert_parse_error(tmp_path, capsys, f"L: malformed field (ValueError: {match})")

    @pytest.mark.parametrize("elements, leq, match", [
        (["0", "1"], [[0, 0], [1, 1], [0, 5]], "leq entry [0, 5] is not a pair of element "
         "indices in 0..1"),
        (["0", "1"], [[0, 0], [1, 1], [-1, 0]], "leq entry [-1, 0] is not a pair of element "
         "indices in 0..1"),
        (["0", "1"], [[0, 0], [1, 1], [0, 1, 2]], "leq entry [0, 1, 2] is not a pair of "
         "element indices in 0..1"),
        (["0", "1"], [[0, 0], [1, 1], [True, 1]], "leq entry [True, 1] is not a pair of "
         "element indices in 0..1"),
        (["0", "0"], [[0, 0], [1, 1]], "name '0' in elements is repeated"),
        (["0", "1"], [[0, 0], [0, 1]], "leq misses the pair [1, 1] of '1'"),
    ], ids=["index-too-large", "index-negative", "triple", "boolean", "repeated-name",
            "not-reflexive"])
    def test_bad_poset_field(self, tmp_path, capsys, elements, leq, match):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "P", "kind": "fincat",
                             "construction": "poset", "elements": elements, "leq": leq})
        self.assert_parse_error(tmp_path, capsys, f"P: {match}")


class TestRoundTrips:
    def test_serialize_is_stable_under_reload(self, tmp_path):
        bundle = load_bundle(FIXTURES)
        serializable = [
            n
            for n, kind in bundle.kinds.items()
            if kind in ("quantaloid", "fincat", "vcategory")
        ]
        docs = {name: serialize(bundle, name) for name in serializable}
        for name, doc in docs.items():
            write_doc(tmp_path, doc)
        reloaded = load_bundle([tmp_path])
        for name in serializable:
            assert serialize(reloaded, name) == docs[name]

    def test_vcategory_round_trip_preserves_homs(self, tmp_path):
        bundle = load_bundle(FIXTURES)
        doc = serialize(bundle, "AUT1")
        base_doc = serialize(bundle, "QL_m_2")
        write_doc(tmp_path, doc)
        write_doc(tmp_path, base_doc)
        reloaded = load_bundle([tmp_path])
        a, b = bundle.get("AUT1"), reloaded.get("AUT1")
        assert a.objects == b.objects
        assert a.extents == b.extents
        assert a.row_maps == b.row_maps

    def test_element_codecs(self):
        bundle = load_bundle([*FIXTURES, GOLDEN_DOCS])
        bases = [bundle.get(name, Quantaloid) for name in ("Q2", "QL_m_2", "M3", "REL1", "BP2")]
        for base in [*bases, bundle.sieve_base("T3")]:
            for u in range(base.n_objects):
                for v in range(base.n_objects):
                    for x in base.hom(u, v).elements():
                        doc = base.element_to_doc(u, v, x)
                        assert base.element_from_doc(u, v, json.loads(json.dumps(doc))) == x
                        if isinstance(doc, list):  # a set reads back in any order
                            assert base.element_from_doc(u, v, doc[::-1]) == x

    def test_set_member_order(self):
        bundle = load_bundle([*FIXTURES, GOLDEN_DOCS])
        words = build_language_quantale(["m", "n"], 2)
        assert words.element_to_doc(0, 0, frozenset({("m", "m"), ("n",), ()})) == [[], ["n"], ["m", "m"]]
        rel = bundle.get("REL1")
        assert rel.element_to_doc(0, 0, rel.hom(0, 0).top) == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
        # the identity is morphism 0, but members sort by name
        mono = FiniteCategory(["x"], [Morphism("id", 0, 0), Morphism("e", 0, 0)],
                              {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, [0])
        assert PowersetCatQuantaloid(mono).element_to_doc(0, 0, frozenset({0, 1})) == ["e", "id"]
        sieves = bundle.sieve_base("T3")
        assert sieves.element_to_doc(2, 2, sieves.hom(2, 2).top) == [
            {"apex": str(i), "left": f"{i}<=2", "right": f"{i}<=2"} for i in range(3)
        ]

    @settings(max_examples=40, deadline=None)
    @given(names=st.lists(PRINTABLE_NAMES, min_size=1, max_size=4, unique=True), data=st.data())
    def test_printable_names_round_trip(self, names, data):
        edges = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=6))
        graph = {"vertices": [{"name": name, "extent": "*"} for name in names],
                 "edges": [{"src": s, "tgt": t, "label": "1"} for s, t in edges]}
        with tempfile.TemporaryDirectory() as tmp:
            write_doc(Path(tmp), Q2_DOC)
            write_doc(Path(tmp), {"schema": SCHEMA, "name": "G", "kind": "vcategory", "base": "Q2",
                                  "graph": graph})
            bundle = load_bundle([tmp])
            doc = serialize(bundle, "G")
            write_doc(Path(tmp), doc)
            reloaded = load_bundle([tmp])
        a, b = bundle.get("G"), reloaded.get("G")
        assert b.objects == names
        assert (a.objects, a.extents, a.row_maps) == (b.objects, b.extents, b.row_maps)
        assert serialize(reloaded, "G") == doc

    @pytest.mark.parametrize("body", [
        {"graph": {"vertices": [{"name": "a,b", "extent": "*"}, {"name": "c", "extent": "*"}],
                   "edges": [{"src": "a,b", "tgt": "c", "label": "1"}]}},
        {"objects": [{"name": "a,b", "extent": "*"}], "homs": {"a,b,a,b": "1"}},
    ], ids=["graph", "table"])
    def test_comma_in_a_name_is_a_parse_error(self, tmp_path, capsys, body):
        # serialize would write the hom keys "a,b,a,b" and "a,b,c", which no reader can split
        write_doc(tmp_path, Q2_DOC)
        write_doc(tmp_path, {"schema": SCHEMA, "name": "G", "kind": "vcategory", "base": "Q2", **body})
        with pytest.raises(ParseError, match=re.escape("G: object name 'a,b' has a comma")):
            load_bundle([tmp_path])
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        assert json.loads(capsys.readouterr().out)["details"] == {
            "error": "ParseError: G: object name 'a,b' has a comma"}

    @pytest.mark.parametrize("label", ["mn", ["mn"], [[["m"]]], {"m": 1}],
                             ids=["string", "word-string", "nested-word", "object"])
    def test_set_element_must_be_a_list_of_lists(self, tmp_path, capsys, label):
        # a string is neither a language nor a word: it would read as its letters
        write_doc(tmp_path, {"schema": SCHEMA, "name": "QLMN", "kind": "language",
                             "alphabet": ["m", "n"], "k": 2})
        write_doc(tmp_path, {"schema": SCHEMA, "name": "G", "kind": "vcategory", "base": "QLMN",
                             "graph": {"vertices": [{"name": "s", "extent": "*"}],
                                       "edges": [{"src": "s", "tgt": "s", "label": label}]}})
        with pytest.raises(ParseError):
            load_bundle([tmp_path])
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        assert "ParseError" in json.loads(capsys.readouterr().out)["details"]["error"]


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
    """The oracle route's first half: an Aldebaran file as a free-enrichment
    document, one JSON-shaped edge per transition."""
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


def import_aut_by_doc(path, alphabet, k) -> VCategory:
    """The oracle route: ``aut_to_doc`` read back by the document reader."""
    doc = aut_to_doc(path, alphabet, k)
    base = build_language_quantale([str(a) for a in alphabet], int(k))
    return _vcategory_from_doc(doc, lambda ref, expected: base)


def outcome(route, *args):
    """What a route gives: the enrichment's objects, extents and row maps,
    or the type and message of what it raised."""
    try:
        cat = route(*args)
    except Exception as err:  # compared below, not swallowed
        return type(err), str(err)
    return cat.objects, cat.extents, cat.row_maps


class TestAutReaderAgainstDocuments:
    """The direct ``.aut`` reader against the document route it replaced."""

    def test_random_automata(self, tmp_path):
        rng = random.Random("aut-reader")
        path = tmp_path / "A.aut"
        for case in range(150):
            n, k = rng.randint(1, 30), rng.randint(0, 4)
            letters = ["a", "b", "c"][: rng.randint(1, 3)]
            transitions = [
                (rng.randrange(n), rng.choice(letters), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))
            ]
            transitions += [(s, label, s) for s, label, _ in transitions[: rng.randint(0, 3)]]
            transitions += transitions[: rng.randint(0, 3)]  # parallel edges
            rng.shuffle(transitions)
            lines = [f"des ({rng.randrange(n)}, {len(transitions)}, {n})"]
            path.write_text("\n".join(lines + [f'({s}, "{a}", {t})' for s, a, t in transitions]))
            got = outcome(import_aut, path, letters, k)
            assert got == outcome(import_aut_by_doc, path, letters, k), case
            if k == 0 and transitions:
                assert got[0] is TypeMismatch  # a letter is a word longer than the cutoff
                continue
            cat = import_aut(path, letters, k)
            rebuilt = VCategory(cat.base, cat.objects, cat.extents, [dict(m) for m in cat.row_maps])
            assert rows_of(rebuilt) == rows_of(cat), case  # the free rows are non-bottom and in order

    @pytest.mark.parametrize("text", [
        "",
        "nonsense\n",
        'des (0, 1, 2)\n(0, m, 1)\n',
        'des (0, 1, 2)\n(0, "m", 5)\n',
        'des (0, 2, 2)\n(0, "m", 1)\n',
        'des (0, 2, 2)\n(0, "m", 1)\n(1, "z", 0)\n',
        f"des (0, 0, {MAX_OBJECTS + 1})\n",
        'des (3, 0, 2)\n',
    ], ids=["empty", "header", "line", "state", "count", "label", "cap", "initial"])
    def test_same_refusals(self, tmp_path, text):
        path = tmp_path / "bad.aut"
        path.write_text(text)
        got = outcome(import_aut, path, ["m"], 2)
        assert got == outcome(import_aut_by_doc, path, ["m"], 2)
        assert got[0] in (ParseError, UnknownLabel, SizeLimit)


# the patterns the Aldebaran reader used before it read lines with ``str``
# methods: the oracle of ``TestAutLinesAgainstPatterns``
AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
AUT_LINE = re.compile(r'\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')
# whitespace and decimal digits beyond ASCII, which \s and \d match, and
# look-alikes they do not: a superscript two and a zero-width space
AUT_SPACES = ["", "", " ", "  ", "\t", "\x0b", "\x0c", "\u00a0", "\u2003", "\u3000", "\u200b"]
AUT_DIGITS = "0123456789" + "\u0663\u0969\uff10\uff15" + "\u00b2"
AUT_LABEL_CHARS = "ab,() \t'\\\u00e9x"
AUT_NOISE = AUT_DIGITS + AUT_LABEL_CHARS + '"' + "des"


def aut_number(rng) -> str:
    return "".join(rng.choice(AUT_DIGITS[:14] if rng.random() < 0.95 else AUT_DIGITS)
                   for _ in range(rng.randint(1, 3)))


def aut_lines(rng, header: bool) -> str:
    """A well-formed header or transition line, its tokens spaced at random."""
    space = lambda: rng.choice(AUT_SPACES)  # noqa: E731
    if header:
        return (f"des{space()}({space()}{aut_number(rng)}{space()},{space()}{aut_number(rng)}"
                f"{space()},{space()}{aut_number(rng)}{space()}){space()}")
    label = "".join(rng.choice(AUT_LABEL_CHARS) for _ in range(rng.randint(0, 4)))
    return (f"({space()}{aut_number(rng)}{space()},{space()}\"{label}\"{space()},{space()}"
            f"{aut_number(rng)}{space()}){space()}")


def mutated(rng, line: str) -> str:
    """``line`` with one to three characters deleted, inserted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(line) + 1)
        op = rng.randrange(3)
        if op == 0:
            line = line[:i] + line[i + 1:]
        else:
            line = line[:i] + rng.choice(AUT_NOISE + "".join(AUT_SPACES)) + line[i + (op == 2):]
    return line


class TestAutLinesAgainstPatterns:
    """The ``str`` line readers against the patterns they replaced, on the
    stripped lines ``parse_aut`` gives them."""

    def test_seeded_and_mutated_lines(self):
        from enrbisim.language import _aut_header, _aut_transition

        def read(reader, line):
            try:
                return reader("A.aut", line)
            except ParseError as err:  # with the message parse_aut gave before
                what = "header" if reader is _aut_header else "transition line"
                assert str(err) == f"A.aut: bad {what} {line!r}"
                return "ParseError", line

        rng = random.Random("aut-lines")
        accepted, refused, unicode = 0, 0, 0
        for case in range(4000):
            header = case % 2 == 0
            line = aut_lines(rng, header)
            if case % 4 >= 2:
                line = mutated(rng, line)
            line = line.strip()
            if not line:
                continue
            if header:
                m = AUT_HEADER.match(line)
                got, want = read(_aut_header, line), m and [int(g) for g in m.groups()]
            else:
                m = AUT_LINE.match(line)
                got, want = read(_aut_transition, line), m and (int(m[1]), m[2], int(m[3]))
            assert got == (want or ("ParseError", line)), (case, line)
            accepted += m is not None
            refused += m is None
            unicode += m is not None and not line.isascii()
        assert accepted > 1000 and refused > 500 and unicode > 100


class TestAutImport:
    def test_direct_translation(self, tmp_path):
        path = tmp_path / "two.aut"
        path.write_text('des (0, 1, 2)\n(0, "m", 1)\n')
        got = import_aut(path, ["m"], 2)
        want = aut1()
        assert got.extents == want.extents
        assert got.row_maps == want.row_maps
        assert validate_vcategory(got) == []

    def test_loop_translation(self, tmp_path):
        path = tmp_path / "loop.aut"
        path.write_text('des (0, 1, 1)\n(0, "m", 0)\n')
        got = import_aut(path, ["m"], 2)
        assert got.row_maps == loop1().row_maps

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.aut"
        path.write_text('des (0, 1, 2)\n(0, "z", 1)\n')
        with pytest.raises(UnknownLabel):
            import_aut(path, ["m"], 2)

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.aut"
        path.write_text("nonsense\n")
        with pytest.raises(ParseError):
            parse_aut(path)
        path.write_text('des (0, 2, 2)\n(0, "m", 1)\n')
        with pytest.raises(ParseError, match="announces"):
            parse_aut(path)
        path.write_text('des (0, 1, 2)\n(0, "m", 5)\n')
        with pytest.raises(ParseError, match="range"):
            parse_aut(path)

    def test_bundle_with_aut_paths(self, tmp_path):
        path = tmp_path / "two.aut"
        path.write_text('des (0, 1, 2)\n(0, "m", 1)\n')
        bundle = load_bundle([path], aut_alphabet=["m"], aut_k=2)
        assert "two" in bundle.objects
        assert "QL(m,2)" in bundle.objects

    @pytest.mark.parametrize("first", ["document", "automaton"])
    @pytest.mark.parametrize("base, agrees", [
        ({"kind": "language", "alphabet": ["a", "b"], "k": 2}, True),
        ({"kind": "quantaloid", "construction": "language", "alphabet": ["a", "b"], "k": 2}, True),
        ({"kind": "language", "alphabet": ["a", "b"], "k": 3}, False),
        ({"kind": "boolean"}, False),
    ], ids=["equal", "equal-long-form", "other-k", "table"])
    def test_document_named_like_the_automaton_base(self, tmp_path, first, base, agrees):
        # the flags name the automata's base; a document may stand for it, in
        # either order, only as that very language base
        aut, doc = tmp_path / "A.aut", tmp_path / "QL.json"
        aut.write_text('des (0, 2, 2)\n(0, "a", 1)\n(1, "b", 0)\n')
        doc.write_text(json.dumps({"schema": SCHEMA, "name": "QL(a,b,2)", **base}))
        paths = [doc, aut] if first == "document" else [aut, doc]
        if agrees:
            bundle = load_bundle(paths, aut_alphabet=["a", "b"], aut_k=2)
            base = bundle.get("A").base
            assert base is bundle.get("QL(a,b,2)") and (base.alphabet, base.k) == (("a", "b"), 2)
        else:
            with pytest.raises(ValidationError, match=r"'QL\(a,b,2\)'.*--aut-alphabet a,b --aut-k 2"):
                load_bundle(paths, aut_alphabet=["a", "b"], aut_k=2)

    def test_aut_doc_shape(self, tmp_path):
        path = tmp_path / "two.aut"
        path.write_text('des (0, 1, 2)\n(0, "m", 1)\n')
        doc = aut_to_doc(path, ["m"], 4)
        assert doc["kind"] == "vcategory"
        assert doc["graph"]["edges"][0]["label"] == [["m"]]


class TestRelationAndFunctorDocs:
    def test_relation_doc(self, tmp_path):
        for name in ("Q2", "P01", "POINT"):
            src = Path(FIXTURES[0]) / f"{name}.json"
            (tmp_path / src.name).write_text(src.read_text())
        write_doc(
            tmp_path,
            {
                "schema": SCHEMA,
                "name": "R",
                "kind": "relation",
                "left": "P01",
                "right": "POINT",
                "pairs": [["a0", "p"], ["a1", "p"]],
            },
        )
        bundle = load_bundle([tmp_path])
        rel = bundle.get("R", SimRelation)
        assert rel.pairs == frozenset({(0, 0), (1, 0)})
        assert serialize(bundle, "R")["pairs"] == [["a0", "p"], ["a1", "p"]]

    def test_vfunctor_doc(self, tmp_path):
        for name in ("Q2", "P01", "POINT"):
            src = Path(FIXTURES[0]) / f"{name}.json"
            (tmp_path / src.name).write_text(src.read_text())
        write_doc(
            tmp_path,
            {
                "schema": SCHEMA,
                "name": "F",
                "kind": "vfunctor",
                "source": "P01",
                "target": "POINT",
                "map": {"a0": "p", "a1": "p"},
            },
        )
        bundle = load_bundle([tmp_path])
        assert bundle.get("F").mapping == (0, 0)

    def test_tse_docs(self, tmp_path):
        write_doc(
            tmp_path,
            {"schema": SCHEMA, "name": "QLm", "kind": "quantaloid",
             "construction": "language", "alphabet": ["m"], "k": 1},
        )
        write_doc(
            tmp_path,
            {"schema": SCHEMA, "name": "QLn", "kind": "quantaloid",
             "construction": "language", "alphabet": ["n"], "k": 1},
        )
        write_doc(
            tmp_path,
            {"schema": SCHEMA, "name": "REN", "kind": "tse",
             "construction": "monoid-morphism", "source": "QLm", "target": "QLn",
             "map": {"m": ["n"]}},
        )
        write_doc(
            tmp_path,
            {"schema": SCHEMA, "name": "ID", "kind": "tse",
             "construction": "identity", "base": "QLm"},
        )
        bundle = load_bundle([tmp_path])
        ren = bundle.get("REN")
        assert ren.component(0, 0)(frozenset({("m",)})) == frozenset({("n",)})
        ident = bundle.get("ID")
        assert ident.component(0, 0)(frozenset({("m",)})) == frozenset({("m",)})

    @pytest.mark.parametrize("construction, strings, lists", [
        ("monoid-congruence", {"pairs": [[[], []], ["m", "x"], ["mm", "xx"]]},
         {"pairs": [[[], []], [["m"], ["x"]], [["m", "m"], ["x", "x"]]]}),
        ("monoid-morphism", {"map": {"m": "x"}}, {"map": {"m": ["x"]}}),
    ], ids=["congruence-pairs", "morphism-map"])
    def test_span_words_must_be_lists(self, tmp_path, construction, strings, lists):
        # a string word would read as its letters: "mm" as the word m·m
        for name, letter in (("QLm", "m"), ("QLx", "x")):
            write_doc(tmp_path, {"schema": SCHEMA, "name": name, "kind": "language",
                                 "alphabet": [letter], "k": 2})
        span = {"schema": SCHEMA, "name": "T", "kind": "tse", "construction": construction,
                "source": "QLm", "target": "QLx"}
        write_doc(tmp_path, span | strings)
        with pytest.raises(ParseError, match="a member must be a list"):
            load_bundle([tmp_path])
        write_doc(tmp_path, span | lists)
        tse = load_bundle([tmp_path]).get("T", TwoSidedEnrichment)
        assert tse.component(0, 0)(frozenset({("m", "m")})) == frozenset({("x", "x")})

    @pytest.mark.parametrize("construction, words", [
        ("monoid-congruence", {"pairs": [["m", "x"]]}), ("monoid-morphism", {"map": {"m": "x"}}),
    ])
    def test_span_words_need_language_bases(self, tmp_path, construction, words):
        # the bases are checked before a word is read
        copy = Path(FIXTURES[0]) / "Q2.json"
        (tmp_path / copy.name).write_text(copy.read_text())
        write_doc(tmp_path, {"schema": SCHEMA, "name": "T", "kind": "tse", "construction": construction,
                             "source": "Q2", "target": "Q2"} | words)
        with pytest.raises(NotACongruence, match="both bases must be truncated language quantales"):
            load_bundle([tmp_path])

    @pytest.mark.parametrize("construction, words, error", [
        ("monoid-congruence", {"pairs": [[[], []], [["z", "z", "z"], []]]},
         "pair [['z', 'z', 'z'], []] uses the unknown letter 'z'"),
        ("monoid-morphism", {"map": {"m": ["z", "z", "z"]}}, "letter 'm' maps to the unknown letter 'z'"),
    ], ids=["congruence-pair", "morphism-map"])
    def test_unknown_letter_is_refused_however_long_its_word(
        self, tmp_path, capsys, construction, words, error
    ):
        # the word is longer than the cutoff: its letters are checked before it is dropped
        for name, letter in (("QLm", "m"), ("QLn", "n")):
            write_doc(tmp_path, document(name, "language", alphabet=[letter], k=2))
        target = "QLm" if construction == "monoid-congruence" else "QLn"
        write_doc(tmp_path, document("T", "tse", construction=construction, source="QLm",
                                     target=target, **words))
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": f"NotACongruence: {error}"}
        assert "Traceback" not in err


class TestSieveBase:
    @pytest.mark.parametrize("name", ["S(P2)", "SQ"])
    def test_loaded_sieve_base_is_used(self, tmp_path, capsys, name):
        # a sieves document over the spec's category is the base cts-build builds over
        for path in (Path(FIXTURES[0]) / "P2.json", GOLDEN_DOCS / "SPEC.json"):
            (tmp_path / path.name).write_text(path.read_text())
        write_doc(tmp_path, {"schema": SCHEMA, "name": name, "kind": "sieves", "category": "P2"})
        bundle = load_bundle([tmp_path])
        assert bundle.sieve_base("P2") is bundle.get(name)
        assert main(["--paths", str(tmp_path), "cts-build", "--spec", "SPEC"]) == 0
        assert json.loads(capsys.readouterr().out)["details"]["result"]["base"] == name

    def test_sieve_base_is_built_once(self):
        bundle = load_bundle([*FIXTURES, GOLDEN_DOCS])
        sieves = bundle.sieve_base("P2")
        assert bundle.sieve_base("P2") is sieves is bundle.get("S(P2)")

    def test_name_taken_by_another_document(self, tmp_path, capsys):
        # the base cts-build would build over P2 cannot be kept under S(P2)
        for path in (Path(FIXTURES[0]) / "P2.json", GOLDEN_DOCS / "SPEC.json"):
            (tmp_path / path.name).write_text(path.read_text())
        write_doc(tmp_path, {"schema": SCHEMA, "name": "S(P2)", "kind": "boolean"})
        with pytest.raises(ValidationError, match=r"'S\(P2\)'.*quantaloid"):
            load_bundle([tmp_path]).sieve_base("P2")
        assert main(["--paths", str(tmp_path), "cts-build", "--spec", "SPEC"]) == 2
        error = json.loads(capsys.readouterr().out)["details"]["error"]
        assert error.startswith("ValidationError: the sieve base of 'P2' would be named 'S(P2)'")


def cyclic_monoid_doc(name: str, order: int) -> dict:
    """A one-object category whose morphisms g^0 .. g^(order-1) compose by adding exponents."""
    return {
        "schema": SCHEMA, "name": name, "kind": "fincat", "objects": ["*"],
        "morphisms": [{"name": f"g{i}", "src": 0, "tgt": 0} for i in range(order)],
        "compose": [[i, j, (i + j) % order] for i in range(order) for j in range(order)],
        "identities": [0],
    }


class TestPowersetBase:
    def test_generator_cap(self, tmp_path, capsys):
        # 13 morphisms are over MAX_GENERATORS, for a document as for the constructor
        write_doc(tmp_path, cyclic_monoid_doc("C13", 13))
        cat = load_bundle([tmp_path]).get("C13", FiniteCategory)
        with pytest.raises(SizeLimit, match="hom powerset too large"):
            PowersetCatQuantaloid(cat)
        write_doc(tmp_path, {"schema": SCHEMA, "name": "PC", "kind": "powerset", "category": "C13"})
        with pytest.raises(SizeLimit, match="hom powerset too large"):
            load_bundle([tmp_path])
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        error = json.loads(capsys.readouterr().out)["details"]["error"]
        assert error == "SizeLimit: hom powerset too large"

    def test_within_the_cap(self, tmp_path):
        write_doc(tmp_path, cyclic_monoid_doc("C12", 12))
        write_doc(tmp_path, {"schema": SCHEMA, "name": "PC", "kind": "powerset", "category": "C12"})
        assert isinstance(load_bundle([tmp_path]).get("PC"), PowersetCatQuantaloid)


class TestFinCatDocs:
    def test_explicit_fincat_round_trip(self, tmp_path):
        cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        bundle = load_bundle(FIXTURES)
        doc = serialize(bundle, "P2")
        write_doc(tmp_path, doc)
        reloaded = load_bundle([tmp_path])
        got = reloaded.get("P2", FiniteCategory)
        assert got.objects == cat.objects
        assert got.compose_table == cat.compose_table
        assert got.pullbacks == cat.pullbacks


def explicit_base_doc(objects, **fields) -> dict:
    """An explicit two-element base named B on ``objects``: every hom the
    chain 0 <= 1 and composition the meet, so fields may replace any part."""
    chain = {"elements": ["0", "1"], "leq": [[0, 0], [0, 1], [1, 1]]}
    return {"schema": SCHEMA, "name": "B", "kind": "quantaloid", "objects": objects,
            "homs": {f"{u},{v}": chain for u in objects for v in objects},
            "tensor": {f"{u},{v},{w}": [[0, 0], [0, 1]]
                       for u in objects for v in objects for w in objects},
            "id": {u: 1 for u in objects}} | fields


def fincat_doc(**fields) -> dict:
    """An explicit category named C: one object and its identity, so fields
    may replace any part."""
    return {"schema": SCHEMA, "name": "C", "kind": "fincat", "objects": ["x"],
            "morphisms": [{"name": "id", "src": 0, "tgt": 0}], "compose": [[0, 0, 0]],
            "identities": [0]} | fields


def vcategory_doc(names, homs) -> dict:
    return {"schema": SCHEMA, "name": "V", "kind": "vcategory", "base": "Q2", "homs": homs,
            "objects": [{"name": name, "extent": "*"} for name in names]}


def span_doc(carriers, components) -> dict:
    return {"schema": SCHEMA, "name": "T", "kind": "tse", "source": "Q2", "target": "Q2",
            "carriers": [{"name": name, "minus": "*", "plus": "*"} for name in carriers],
            "components": components}


IDENTITY_COMPONENT = [["0", "0"], ["1", "1"]]
POSET_DOC = {"schema": SCHEMA, "name": "P", "kind": "fincat", "construction": "poset",
             "elements": ["0", "1"], "leq": [[0, 0], [0, 1], [1, 1]]}


def document(name, kind, **fields) -> dict:
    return {"schema": SCHEMA, "name": name, "kind": kind, **fields}


def shipped_doc(name: str) -> dict:
    """A shipped fixture or golden document, by name."""
    path = Path(FIXTURES[0]) / f"{name}.json"
    return json.loads((path if path.exists() else GOLDEN_DOCS / f"{name}.json").read_text())


INC, F = shipped_doc("INC"), shipped_doc("F")
ONE_ELEMENT_BASE = explicit_base_doc(
    ["x"], homs={"x,x": {"elements": ["0"], "leq": [[0, 0]]}}, tensor={"x,x,x": [[0]]}, id={}
)
REPEATED_HOM = ('{"schema": "enrbisim/1", "name": "V", "kind": "vcategory", "base": "Q2",'
                ' "objects": [{"name": "a", "extent": "*"}, {"name": "b", "extent": "*"}],'
                ' "homs": {"a,a": "1", "a,b": "1", "b,b": "1", "a,b": "0"}}')
REPEATED_BASE = ('{"schema": "enrbisim/1", "name": "V", "kind": "vcategory", "base": "Q2", "base": "Q2",'
                 ' "objects": [{"name": "a", "extent": "*"}], "homs": {"a,a": "1"}}')
LANGUAGES = {"QLab": document("QLab", "language", alphabet=["a", "b"], k=2),
             "QLn": document("QLn", "language", alphabet=["n"], k=2)}


def renaming(letters) -> dict:
    """A monoid-morphism span M from QLab to QLn sending each letter to n."""
    return document("M", "tse", construction="monoid-morphism", source="QLab", target="QLn",
                    map={letter: ["n"] for letter in letters})


ONE_POINT = {"schema": SCHEMA, "name": "P", "kind": "fincat", "construction": "poset",
             "elements": ["0"], "leq": [[0, 0]]}
TWO_VERTICES = [{"name": "a", "extent": "*"}, {"name": "b", "extent": "*"}]


class TestObjectCap:
    """Every field that defines names lists at most ``documents.MAX_OBJECTS``
    of them; one more is a ``SizeLimit`` (exit 2) that names the document
    and the field, raised before a name is read.  Here the cap is 1; the
    real cap is tested on 2^17 + 1 objects and vertices in test_fuzz.py."""

    @pytest.mark.parametrize("docs, match", [
        ([Q2_DOC, vcategory_doc(["a", "b"], {})], "V: objects lists 2 names"),
        ([Q2_DOC, document("V", "vcategory", base="Q2",
                           graph={"vertices": TWO_VERTICES, "edges": []})],
         "V: graph vertices lists 2 names"),
        ([explicit_base_doc(["x", "y"])], "B: objects lists 2 names"),
        ([explicit_base_doc(["x"])], "B: homs 'x,x' elements lists 2 names"),
        ([fincat_doc(objects=["x", "y"])], "C: objects lists 2 names"),
        ([fincat_doc(morphisms=[{"name": n, "src": 0, "tgt": 0} for n in ("id", "f")])],
         "C: morphisms lists 2 names"),
        ([POSET_DOC], "P: elements lists 2 names"),
        ([ONE_POINT, document("S", "ctsspec", category="P", edges=[],
                              vertices=[{"name": n, "type": "0"} for n in ("a", "b")])],
         "S: vertices lists 2 names"),
        ([Q2_DOC, span_doc(["c", "d"], {})], "T: carriers lists 2 names"),
    ], ids=["objects", "graph-vertices", "base-objects", "hom-elements", "category-objects",
            "morphisms", "poset-elements", "spec-vertices", "span-carriers"])
    def test_one_name_over_the_cap(self, tmp_path, capsys, monkeypatch, docs, match):
        monkeypatch.setattr(documents, "MAX_OBJECTS", 1)
        for doc in docs:
            write_doc(tmp_path, doc)
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": f"SizeLimit: {match}, more than the cap 1"}
        assert "Traceback" not in err


class TestMalformedDocuments:
    """Every comma-keyed field, every list of names a document resolves and
    every field of indices: a key naming the wrong number of objects, an
    unknown name, a repeated name, a name with a comma and an index that is
    not a JSON integer in range each exit 2 with a ``ParseError`` that
    names the document and the key, name or entry.  An enrichment's unknown,
    repeated and comma names are the cases of ``test_unknown_object_name``
    (test_cli.py), ``test_repeated_object_name_is_a_parse_error`` and
    ``test_comma_in_a_name_is_a_parse_error``."""

    @pytest.mark.parametrize("doc, match", [
        (explicit_base_doc(["x"], homs={"x": {}}), "B: homs key 'x' names 1 objects, not 2"),
        (explicit_base_doc(["x"], homs={"x,z": {}}), "B: no object named 'z'"),
        (explicit_base_doc(["x"], tensor={"x,x": []}), "B: tensor key 'x,x' names 2 objects, not 3"),
        (explicit_base_doc(["x"], tensor={"x,x,z": []}), "B: no object named 'z'"),
        (explicit_base_doc(["x"], id={"x,x": 1}), "B: no object named 'x,x'"),
        (explicit_base_doc(["x"], id={"z": 1}), "B: no object named 'z'"),
        (explicit_base_doc(["x", "x"]), "B: name 'x' in objects is repeated"),
        (explicit_base_doc(["x,y"]), "B: object name 'x,y' has a comma"),
        (vcategory_doc(["a"], {"a": "1"}), "V: homs key 'a' names 1 objects, not 2"),
        (vcategory_doc(["a"], {"a,a,a": "1"}), "V: homs key 'a,a,a' names 3 objects, not 2"),
        (span_doc(["c"], {"c": IDENTITY_COMPONENT}), "T: components key 'c' names 1 objects, not 2"),
        (span_doc(["c"], {"c,z": IDENTITY_COMPONENT}), "T: no object named 'z'"),
        (span_doc(["c", "c"], {"c,c": IDENTITY_COMPONENT}), "T: name 'c' in carriers is repeated"),
        (span_doc(["c,d"], {"c,d,c,d": IDENTITY_COMPONENT}), "T: object name 'c,d' has a comma"),
        (explicit_base_doc(["x"], tensor={"x,x,x": [[0, 0], [0, 1.9]]}),
         "B: tensor 'x,x,x' entry 1.9 is not an element index in 0..1"),
        (explicit_base_doc(["x"], tensor={"x,x,x": [[0, 0], [0, "1"]]}),
         "B: tensor 'x,x,x' entry '1' is not an element index in 0..1"),
        (explicit_base_doc(["x"], id={"x": "1"}), "B: id 'x' entry '1' is not an element index in 0..1"),
        (explicit_base_doc(["x"], homs={"x,x": {"elements": ["0", "1"], "leq": [[0, 0], [1, 1], [0, 5]]}}),
         "B: homs 'x,x' leq entry [0, 5] is not a pair of element indices in 0..1"),
        (explicit_base_doc(["x", "y"], homs={"x,x": {"elements": ["0", "1"], "leq": [[0, 0], [0, 1], [1, 1]]}}),
         "B: homs misses the key 'x,y'"),
        (fincat_doc(identities=[-1]), "C: identities entry -1 is not a morphism index in 0..0"),
        (fincat_doc(compose=[[-1, -1, -1]], identities=[-1]),
         "C: compose entry [-1, -1, -1] is not a triple of morphism indices in 0..0"),
        (fincat_doc(morphisms=[{"name": "id", "src": "0", "tgt": 0}]),
         "C: morphism 'id' entry ['0', 0] is not a src, tgt pair of object indices in 0..0"),
        (fincat_doc(pullbacks=[[0, 0, 0, True]]),
         "C: pullbacks entry [0, 0, 0, True] is not a quadruple of morphism indices in 0..0"),
        (explicit_base_doc(["x"], tensor={"x,x,x": [[0, 0, 1], [0, 1, 0], [1, 1]]}),
         "B: tensor 'x,x,x' is not 2 rows of 2 entries"),
        (explicit_base_doc(["x"], tensor={"x,x,x": [[0]]}), "B: tensor 'x,x,x' is not 2 rows of 2 entries"),
        (explicit_base_doc(["x"], tensor={}), "B: tensor misses the key 'x,x,x'"),
        (fincat_doc(objects=["x", "x"], identities=[0, 1],
                    morphisms=[{"name": "id", "src": 0, "tgt": 0}, {"name": "id1", "src": 1, "tgt": 1}],
                    compose=[[0, 0, 0], [1, 1, 1]]), "C: name 'x' in objects is repeated"),
        (fincat_doc(objects=["x", "y"], identities=[0, 1],
                    morphisms=[{"name": "id", "src": 0, "tgt": 0}, {"name": "id", "src": 1, "tgt": 1}],
                    compose=[[0, 0, 0], [1, 1, 1]]), "C: name 'id' in morphisms is repeated"),
        (explicit_base_doc(["x"], homs={"x,x": {"elements": ["e", "e"], "leq": [[0, 0], [0, 1], [1, 1]]}}),
         "B: name 'e' in homs 'x,x' elements is repeated"),
        (document("V", "vcategory", base="Q2", graph={"vertices": TWO_VERTICES, "edges": ""}),
         "V: graph edges is not a list"),
        (document("V", "vcategory", base="Q2", graph={"vertices": TWO_VERTICES, "edges": {}}),
         "V: graph edges is not a list"),
        (vcategory_doc(["a"], []), "V: homs is not an object"),
        (vcategory_doc(["a"], {"a,a": "1"}) | {"graph": {"vertices": TWO_VERTICES, "edges": []}},
         "V: an enrichment gives either a graph or objects and homs"),
        (document("L", "language", alphabet="ab", k=2),
         "L: malformed field (ValueError: the alphabet must be a list of letters, not 'ab')"),
        (document("R", "rel", sets="ab"), "R: sets is not a list"),
        (document("R", "rel", sets=["ab"]), "R: sets entry 'ab' is not a list of elements"),
        (document("R", "rel", sets={"a": 1}), "R: sets is not a list"),
        (document("M", "metric", grid=[0, 1, "inf"]), "M: grid entry 0 is not a string"),
        (document("M", "metric", grid="0"), "M: grid is not a list"),
        (fincat_doc(pullbacks={}), "C: pullbacks is not a list"),
        (fincat_doc(compose="000"), "C: compose is not a list"),
        (fincat_doc(identities={"0": 0}), "C: identities is not a list"),
        (POSET_DOC | {"leq": {}}, "P: leq is not a list"),
        (explicit_base_doc(["x"], tensor={"x,x,x": {"0": [0, 0], "1": [0, 1]}}),
         "B: tensor 'x,x,x' is not a list"),
        (explicit_base_doc(["x"], tensor={"x,x,x": [[0, 0], "01"]}),
         "B: tensor 'x,x,x' entry '01' is not a row of 2 entries"),
        (span_doc(["c"], {"c,c": {}}), "T: component 'c,c' is not a list"),
        (span_doc(["c"], {"c,c": ["00", "11"]}), "T: component 'c,c' entry '00' is not a pair of elements"),
        (span_doc(["c"], "c,c"), "T: components is not an object"),
        (document("V", "vcategory", base="Q2", graph={"vertices": TWO_VERTICES, "edges": ["ab"]}),
         "V: graph edges entry 'ab' is not an object"),
        (document("V", "vcategory", base="Q2", graph={"vertices": ["a"], "edges": []}),
         "V: graph vertices entry 'a' is not an object"),
        (document("V", "vcategory", base="Q2", graph="ab"), "V: graph 'ab' is not an object"),
        (document("V", "vcategory", base="Q2", graph=[]), "V: graph [] is not an object"),
        ([fincat_doc(), document("S", "ctsspec", category="C", vertices=[{"name": "v", "type": "x"}],
                                 edges=["ab"])], "S: edges entry 'ab' is not an object"),
        ([fincat_doc(), document("S", "ctsspec", category="C", vertices=[["v", "x"]], edges=[])],
         "S: vertices entry ['v', 'x'] is not an object"),
        ([fincat_doc(), document("S", "ctsspec", category="C", vertices=[{"name": "v", "type": "x"}],
                                 edges=[{"src": "v", "tgt": "v", "span": "x"}])],
         "S: edge span 'x' is not an object"),
        (fincat_doc(morphisms=["id"]), "C: morphisms entry 'id' is not an object"),
    ], ids=[
        "base-homs-arity", "base-homs-unknown", "base-tensor-arity", "base-tensor-unknown",
        "base-id-arity", "base-id-unknown", "base-repeated", "base-comma",
        "vcategory-homs-short", "vcategory-homs-long",
        "span-arity", "span-unknown", "span-carrier-repeated", "span-carrier-comma",
        "base-tensor-fraction", "base-tensor-string", "base-id-string", "base-leq-range",
        "base-homs-missing", "fincat-identity-negative", "fincat-compose-negative",
        "fincat-src-string", "fincat-pullback-boolean",
        "base-tensor-extra-row", "base-tensor-short", "base-tensor-missing",
        "fincat-object-repeated", "fincat-morphism-repeated", "base-element-repeated",
        "graph-edges-string", "graph-edges-object", "vcategory-homs-list", "vcategory-graph-and-homs",
        "language-alphabet-string", "rel-sets-string", "rel-set-string", "rel-sets-object",
        "metric-grid-number", "metric-grid-string", "fincat-pullbacks-object", "fincat-compose-string",
        "fincat-identities-object", "poset-leq-object", "base-tensor-object", "base-tensor-row-string",
        "span-component-object", "span-component-entry-string", "span-components-string",
        "graph-edge-string", "graph-vertex-string", "graph-string", "graph-list",
        "ctsspec-edge-string", "ctsspec-vertex-list", "ctsspec-span-string", "fincat-morphism-string",
    ])
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, doc, match):
        for each in [Q2_DOC, *(doc if isinstance(doc, list) else [doc])]:
            write_doc(tmp_path, each)
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": f"ParseError: {match}"}
        assert "Traceback" not in err


    @pytest.mark.parametrize("shipped, docs, error", [
        (["Q2"], {"V": REPEATED_HOM}, "{dir}/V.json: key 'a,b' appears twice in one object"),
        (["Q2"], {"V": REPEATED_BASE}, "{dir}/V.json: key 'base' appears twice in one object"),
        ([], {"B": ONE_ELEMENT_BASE}, "B: id misses the key 'x'"),
        ([], {"B": explicit_base_doc(["x"], id={})}, "B: id misses the key 'x'"),
        (["P2", "T3"], {"INC": INC | {"objects": INC["objects"] | {"nonsense": "2"}}},
         "INC: objects key 'nonsense': no object named 'nonsense'"),
        (["P2", "T3"], {"INC": INC | {"morphisms": INC["morphisms"] | {"x<=y": "0<=2"}}},
         "INC: morphisms key 'x<=y': no morphism named 'x<=y'"),
        (["P2", "T3"], {"INC": INC | {"objects": {"0": "0"}}}, "INC: objects misses the key '1'"),
        ([], LANGUAGES | {"M": renaming(["a", "b", "zzz"])}, "M: map key 'zzz': no letter named 'zzz'"),
        ([], LANGUAGES | {"M": renaming(["a"])}, "M: map misses the key 'b'"),
        (["Q2", "P01", "POINT"], {"F": F | {"map": F["map"] | {"zz": "p"}}},
         "F: map key 'zz': no object named 'zz'"),
        (["Q2", "P01", "POINT"], {"F": F | {"map": {"a0": "p"}}}, "F: map misses the key 'a1'"),
        (["Q2", "P01"], {"R": document("R", "relation", left="P01", right="P01",
                                       pairs=["pq", "qp", "pp", "qq"])},
         "R: pairs entry 'pq' is not a pair of names"),
        (["Q2", "P01"], {"R": document("R", "relation", left="P01", right="P01", pairs={"a0": "a1"})},
         "R: pairs is not a list"),
        (["P2"], {"S": document("S", "ctsspec", category="P2", vertices=[{"name": "v", "type": "0"}],
                                edges={})}, "S: edges is not a list"),
        ([], LANGUAGES | {"C": document("C", "tse", construction="monoid-congruence", source="QLn",
                                        target="QLn", pairs={})}, "C: pairs is not a list"),
        ([], LANGUAGES | {"C": document("C", "tse", construction="monoid-congruence", source="QLn",
                                        target="QLn", pairs=[[[], []], "nn"])},
         "C: pairs entry 'nn' is not a pair of words"),
    ], ids=[
        "vcategory-homs-repeated", "document-field-repeated", "base-id-missing-one-element",
        "base-id-missing-chain", "catfunctor-objects-unknown", "catfunctor-morphisms-unknown",
        "catfunctor-objects-missing", "monoid-morphism-unknown", "monoid-morphism-missing",
        "vfunctor-unknown", "vfunctor-missing", "relation-pairs-strings", "relation-pairs-object",
        "ctsspec-edges-object", "monoid-congruence-pairs-object", "monoid-congruence-pair-string",
    ])
    def test_keyed_maps_load_as_written(self, tmp_path, capsys, shipped, docs, error):
        """A key given twice in one JSON object, a key naming nothing and a
        key missing from a map that must list them all are each a
        ``ParseError`` naming the document (or its file), field and key.
        So is a list (``jsondocs._listed``) given as a string, an object or
        another JSON value, never iterated: ``"pq"`` is not the pair
        ``(p, q)``, nor ``{}`` no entries."""
        for name in shipped:
            write_doc(tmp_path, shipped_doc(name))
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": "ParseError: " + error.replace("{dir}", str(tmp_path))}
        assert "Traceback" not in err

    @pytest.mark.parametrize("docs, error", [
        ([vcategory_doc([5], {})], "ParseError: V: name 5 in objects is not a string"),
        ([document("V", "vcategory", base="Q2", graph={"vertices": [{"name": ["x"], "extent": "*"}], "edges": []})],
         "ParseError: V: name ['x'] in graph vertices is not a string"),
        ([vcategory_doc(["a"], {}) | {"name": 5}], "ParseError: {dir}/5.json: name 5 is not a string"),
        ([POSET_DOC | {"elements": ["0", 1]}], "ParseError: P: name 1 in elements is not a string"),
        ([fincat_doc(objects=[None])], "ParseError: C: name None in objects is not a string"),
        ([fincat_doc(), document("S", "ctsspec", category="C", vertices=[{"name": 2, "type": "x"}], edges=[])],
         "ParseError: S: name 2 in vertices is not a string"),
        ([span_doc([3], {})], "ParseError: T: name 3 in carriers is not a string"),
        ([vcategory_doc(["a"], {}) | {"objects": [{"name": "a", "extent": 0}]}],
         "UnknownObject: no object named 0"),
        ([POSET_DOC, document("G", "catfunctor", source="P", target="P", objects={"0": "0", "1": 1},
                         morphisms={m: m for m in ("0<=0", "0<=1", "1<=1")})],
         "UnknownObject: no object named 1"),
        ([fincat_doc(morphisms=[{"name": "7", "src": 0, "tgt": 0}]), document("PB", "powerset", category="C"),
          document("V", "vcategory", base="PB", objects=[{"name": "a", "extent": "x"}], homs={"a,a": [7]})],
         "UnknownObject: no morphism named 7"),
        ([vcategory_doc(["1", "2"], {"1,1": "1", "2,2": "1"}),
          document("R", "relation", left="V", right="V", pairs=[[1, 2]])],
         "UnknownObject: no object named 1"),
        ([vcategory_doc(["a"], {}) | {"base": ["Q2"]}],
         "DanglingReference: V: no object named ['Q2'] in the bundle"),
        ([document("V", "vcategory", base="Q2", graph={"vertices": [{"name": "0", "extent": "*"}],
                                                  "edges": [{"src": 0, "tgt": "0", "label": "1"}]})],
         "ParseError: V: no object named 0"),
    ], ids=[
        "vcategory-object", "graph-vertex", "document-name", "poset-element", "fincat-object",
        "ctsspec-vertex", "span-carrier", "extent", "catfunctor-map-value", "powerset-member",
        "relation-pair", "base-reference", "graph-edge-source",
    ])
    def test_names_are_strings_read_as_given(self, tmp_path, capsys, docs, error):
        """A defined name that is not a JSON string is a ``ParseError`` naming
        document, field and value; a reference that is not one is looked up
        as given, and its lookup's error names it."""
        write_doc(tmp_path, Q2_DOC)
        for d in docs:
            write_doc(tmp_path, d)
        assert main(["--paths", str(tmp_path), "validate"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["details"] == {"error": error.replace("{dir}", str(tmp_path))}
        assert "Traceback" not in err


class TestCheckedOnce:
    """A base's codec only decodes; the object a hom element enters checks
    it, once: the ``VCategory`` constructor each non-bottom hom it is given,
    ``free_vcategory`` each edge label (the free rows, joins and composites
    of checked labels, are not checked again), and a span's
    ``MonotoneMap.check`` each component key and value."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """The number of ``has_element`` calls on table and powerset lattices so far."""
        count = [0]
        for cls in (TableLattice, PowersetLattice):
            def counted(lat, x, original=cls.has_element):
                count[0] += 1
                return original(lat, x)

            monkeypatch.setattr(cls, "has_element", counted)
        return lambda: count[0]

    @staticmethod
    def load(tmp_path, calls, *docs):
        for doc in docs:
            write_doc(tmp_path, doc)
        before = calls()
        bundle = load_bundle([tmp_path])
        return bundle, calls() - before

    @staticmethod
    def counted(calls, check, *args) -> int:
        before = calls()
        check(*args)
        return calls() - before

    def test_explicit_homs(self, tmp_path, calls):
        names = ["a", "b", "c"]
        # top by index and by name: the codec resolves a name, and checks neither
        doc = vcategory_doc(names, {f"{u},{v}": 1 if u <= v else "1" for u in names for v in names})
        bundle, loaded = self.load(tmp_path, calls, Q2_DOC, doc)
        cat = bundle.get("V", VCategory)
        assert sum(map(len, cat.row_maps)) == 9
        assert loaded == 9 + self.counted(calls, validate_vcategory, cat)

    def test_edge_labels(self, tmp_path, calls):
        base = {"schema": SCHEMA, "name": "QLm", "kind": "language", "alphabet": ["m"], "k": 2}
        edges = [("s", "t"), ("t", "u"), ("u", "s"), ("s", "s")]
        doc = {"schema": SCHEMA, "name": "G", "kind": "vcategory", "base": "QLm",
               "graph": {"vertices": [{"name": name, "extent": "*"} for name in "stu"],
                         "edges": [{"src": s, "tgt": t, "label": [["m"]]} for s, t in edges]}}
        bundle, loaded = self.load(tmp_path, calls, base, doc)
        cat = bundle.get("G", VCategory)
        assert sum(map(len, cat.row_maps)) == 9
        assert loaded == len(edges) + self.counted(calls, validate_vcategory, cat)

    def test_automaton_labels(self, tmp_path, calls):
        (tmp_path / "G.aut").write_text('des (0, 4, 3)\n(0, "m", 1)\n(1, "m", 2)\n(2, "m", 0)\n(0, "m", 0)\n')
        before = calls()
        bundle = load_bundle([tmp_path], aut_alphabet=["m"], aut_k=2)
        cat = bundle.get("G", VCategory)
        assert sum(map(len, cat.row_maps)) == 9
        assert calls() - before == 4 + self.counted(calls, validate_vcategory, cat)

    def test_span_components(self, tmp_path, calls):
        doc = span_doc(["c", "d"], {f"{x},{y}": IDENTITY_COMPONENT for x in "cd" for y in "cd"})
        bundle, loaded = self.load(tmp_path, calls, Q2_DOC, doc)
        tse = bundle.get("T", TwoSidedEnrichment)
        assert loaded == self.counted(calls, validate_tse, tse)
        for comp in tse.components.values():
            assert self.counted(calls, comp.check) == 2 * len(comp.mapping)
