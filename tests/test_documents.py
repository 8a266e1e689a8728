import json
import re
from pathlib import Path

import pytest

from enrbisim.bisim import SimRelation
from enrbisim.cli import default_fixture_paths, main
from enrbisim.cts import FiniteCategory, Morphism, PowersetCatQuantaloid
from enrbisim.documents import (
    SCHEMA,
    aut_to_doc,
    import_aut,
    load_bundle,
    parse_aut,
    serialize,
)
from enrbisim.cob import TwoSidedEnrichment
from enrbisim.errors import (
    DanglingReference,
    NotACongruence,
    ParseError,
    UnknownLabel,
    ValidationError,
)
from enrbisim.fixtures import aut1, loop1
from enrbisim.quantaloid import Quantaloid, build_language_quantale
from enrbisim.vcat import VCategory, validate_vcategory


FIXTURES = default_fixture_paths()
GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"


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

    @pytest.mark.parametrize("body", [
        {"kind": "vcategory", "base": "Q2", "homs": {"x,y": "1"},
         "objects": [{"name": name, "extent": "*"} for name in ("x", "y", "x")]},
        {"kind": "vcategory", "base": "Q2",
         "graph": {"vertices": [{"name": name, "extent": "*"} for name in ("x", "y", "x")],
                   "edges": [{"src": "y", "tgt": "x", "label": "1"}]}},
        {"kind": "ctsspec", "category": "P2", "edges": [],
         "vertices": [{"name": name, "type": "0"} for name in ("x", "y", "x")]},
    ], ids=["table", "graph", "cts-graph"])
    def test_repeated_object_name_is_a_parse_error(self, tmp_path, capsys, body):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "BAD", **body})
        with pytest.raises(ParseError, match="BAD: object name 'x' is repeated"):
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
    ], ids=["tse-component", "fincat-compose", "fincat-pullbacks"])
    def test_repeated_entry_is_a_parse_error(self, tmp_path, capsys, body, match):
        write_doc(tmp_path, {"schema": SCHEMA, "name": "BAD", **body})
        with pytest.raises(ParseError, match=re.escape(match)):
            load_bundle([*FIXTURES, tmp_path])
        assert main(["--paths", *FIXTURES, "--paths", str(tmp_path), "validate"]) == 2
        assert "ParseError" in json.loads(capsys.readouterr().out)["details"]["error"]

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
                    decode = base.element_decoder(u, v)
                    for x in base.hom(u, v).elements():
                        doc = base.element_to_doc(u, v, x)
                        assert decode(json.loads(json.dumps(doc))) == x
                        if isinstance(doc, list):  # a set reads back in any order
                            assert decode(doc[::-1]) == x

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
