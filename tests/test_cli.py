import json
import random
import time
from pathlib import Path

import pytest

from enrbisim.cli import Report, build_parser, default_fixture_paths, main, run
from enrbisim.documents import SCHEMA, load_bundle

FIXTURES = default_fixture_paths()


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def copy_fixtures(tmp_path, names):
    for name in names:
        src = Path(FIXTURES[0]) / f"{name}.json"
        (tmp_path / src.name).write_text(src.read_text())


class TestExitCodes:
    def test_bisimilar_no(self, capsys):
        code, out = invoke(capsys, "bisimilar", "--a", "AUT1", "--b", "LOOP1")
        assert code == 1
        body = json.loads(out)
        assert body["verdict"] == "no"
        assert body["details"]["trace"]  # pair removals are reported

    def test_bisimilar_yes(self, capsys):
        code, out = invoke(capsys, "bisimilar", "--a", "P01", "--b", "POINT")
        assert code == 0
        assert json.loads(out)["verdict"] == "yes"

    def test_simulates(self, capsys):
        code, _ = invoke(capsys, "simulates", "--a", "AUT1", "--b", "LOOP1")
        assert code == 0

    def test_error_exit(self, capsys):
        code, out = invoke(capsys, "bisimilar", "--a", "AUT1", "--b", "MISSING")
        assert code == 2
        assert "DanglingReference" in json.loads(out)["details"]["error"]

    def test_validate_all_fixtures(self, capsys):
        code, out = invoke(capsys, "validate")
        assert code == 0
        assert json.loads(out)["verdict"] == "valid"


class TestDeterminism:
    def test_reports_byte_identical(self, capsys):
        _, first = invoke(capsys, "axioms", "--base", "Q2", "--seed", "7", "--cases", "5")
        _, second = invoke(capsys, "axioms", "--base", "Q2", "--seed", "7", "--cases", "5")
        assert first == second

    def test_timing_flag_adds_field(self, capsys):
        _, out = invoke(capsys, "--timing", "validate", "Q2")
        assert "timing_seconds" in json.loads(out)

    def test_timing_covers_load_errors(self, capsys, tmp_path):
        (tmp_path / "BAD.json").write_text("{")
        code, out = invoke(capsys, "--timing", "--paths", str(tmp_path), "validate")
        body = json.loads(out)
        assert code == 2 and body["verdict"] == "error"
        assert body["timing_seconds"] >= 0
        _, plain = invoke(capsys, "--paths", str(tmp_path), "validate")
        assert "timing_seconds" not in json.loads(plain)


class TestCommands:
    def test_axioms_counts(self, capsys):
        code, out = invoke(
            capsys, "axioms", "--suite", "A1..A6", "--base", "Q2",
            "--seed", "7", "--cases", "5",
        )
        assert code == 0
        body = json.loads(out)
        assert body["details"]["passed"] == {f"A{i}": 5 for i in range(1, 7)}

    def test_axioms_subset(self, capsys):
        code, out = invoke(
            capsys, "axioms", "--suite", "A1,A4", "--base", "QL_m_2",
            "--seed", "3", "--cases", "4",
        )
        assert code == 0
        assert set(json.loads(out)["details"]["passed"]) == {"A1", "A4"}

    def test_bisim_largest_sim_flag(self, capsys):
        code, out = invoke(capsys, "bisim-largest", "--a", "AUT1", "--b", "LOOP1", "--sim")
        assert code == 0
        body = json.loads(out)
        assert body["details"]["pairs"] == [["a0", "b0"], ["a1", "b0"]]

    def test_bisim_check_and_od_check(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["Q2", "P01", "POINT"])
        (tmp_path / "R.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "R", "kind": "relation",
            "left": "P01", "right": "POINT",
            "pairs": [["a0", "p"], ["a1", "p"]],
        }))
        (tmp_path / "F.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "F", "kind": "vfunctor",
            "source": "P01", "target": "POINT",
            "map": {"a0": "p", "a1": "p"},
        }))
        code, _ = invoke(capsys, "--paths", str(tmp_path), "bisim-check", "--rel", "R")
        assert code == 0
        code, _ = invoke(capsys, "--paths", str(tmp_path), "od-check", "--functor", "F")
        assert code == 0

    def test_quotient_cospan_span(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["Q2", "P01", "POINT"])
        (tmp_path / "E.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "E", "kind": "relation",
            "left": "P01", "right": "P01",
            "pairs": [["a0", "a0"], ["a0", "a1"], ["a1", "a0"], ["a1", "a1"]],
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "quotient", "--a", "P01", "--rel", "E")
        assert code == 0
        body = json.loads(out)
        assert body["details"]["map_in_class"] is True
        assert body["details"]["blocks"] == [["a0", "a1"]]
        code, out = invoke(capsys, "--paths", str(tmp_path), "cospan", "--a", "P01", "--b", "POINT")
        assert code == 0
        body = json.loads(out)
        assert body["details"]["left_in_class"] and body["details"]["right_in_class"]
        code, out = invoke(capsys, "--paths", str(tmp_path), "span", "--a", "P01", "--b", "POINT")
        assert code == 0

    @pytest.mark.parametrize(
        "left, right, pairs, want",
        [
            # class-closed, not a bisimulation: the witness rejects it
            ("AUT1", "LOOP1", [["a0", "b0"], ["a1", "b0"]], "NotABisimulation"),
            # a bisimulation that is not class-closed is accepted
            ("P01", "P01", [["a0", "a0"], ["a0", "a1"], ["a1", "a1"]], None),
        ],
    )
    def test_cospan_with_given_relation(self, capsys, tmp_path, left, right, pairs, want):
        copy_fixtures(tmp_path, ["Q2", "QL_m_2", "P01", "AUT1", "LOOP1"])
        (tmp_path / "R.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "R", "kind": "relation",
            "left": left, "right": right, "pairs": pairs,
        }))
        code, out = invoke(
            capsys, "--paths", str(tmp_path), "cospan", "--a", left, "--b", right, "--rel", "R"
        )
        body = json.loads(out)
        if want is None:
            assert code == 0 and body["details"]["left_in_class"]
        else:
            assert code == 2 and want in body["details"]["error"]

    def test_span_rejected_on_nonbisimilar(self, capsys):
        code, out = invoke(capsys, "span", "--a", "AUT1", "--b", "LOOP1")
        assert code == 2
        assert "NotBisimilar" in json.loads(out)["details"]["error"]

    def test_cob_apply_and_radjoint(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["QL_m_2", "AUT1", "LOOP1"])
        (tmp_path / "QLn.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "QLn", "kind": "quantaloid",
            "construction": "language", "alphabet": ["n"], "k": 2,
        }))
        (tmp_path / "REN.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "REN", "kind": "tse",
            "construction": "monoid-morphism",
            "source": "QL_m_2", "target": "QLn", "map": {"m": ["n"]},
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "cob-apply", "--tse", "REN", "--a", "AUT1")
        assert code == 0
        homs = json.loads(out)["details"]["result"]["homs"]
        assert homs["(a0|*),(a1|*)"] == [["n"]]
        code, out = invoke(capsys, "--paths", str(tmp_path), "cob-radjoint", "--tse", "REN", "--b", "AUT1")
        assert code == 2  # AUT1 lives over the source, not the target
        (tmp_path / "LOOPN.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "LOOPN", "kind": "vcategory", "base": "QLn",
            "graph": {"vertices": [{"name": "b0", "extent": "*"}],
                      "edges": [{"src": "b0", "tgt": "b0", "label": [["n"]]}]},
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "cob-radjoint", "--tse", "REN", "--b", "LOOPN")
        assert code == 0
        assert json.loads(out)["details"]["coherent"] is True

    def test_aut_ingestion_end_to_end(self, capsys, tmp_path):
        (tmp_path / "left.aut").write_text('des (0, 2, 2)\n(0, "a", 1)\n(1, "a", 0)\n')
        (tmp_path / "right.aut").write_text('des (0, 1, 1)\n(0, "a", 0)\n')
        code, _ = invoke(
            capsys,
            "--paths", str(tmp_path), "--aut-alphabet", "a", "--aut-k", "4",
            "bisimilar", "--a", "left", "--b", "right",
        )
        assert code == 0


class TestFixtureRoot:
    def test_env_var_overrides_fixture_root(self, tmp_path, monkeypatch, capsys):
        copy_fixtures(tmp_path, ["Q2", "POINT"])
        monkeypatch.setenv("ENRBISIM_FIXTURES", str(tmp_path))
        code, out = invoke(capsys, "validate")
        assert code == 0
        assert json.loads(out)["details"]["checked"] == ["POINT", "Q2"]


class TestQuantaloidWorkBound:
    def test_oversized_base_is_refused_quickly(self, capsys, tmp_path):
        # one hom of 2^9 relations: the exhaustive law checks would make
        # about 8e8 compositions
        (tmp_path / "R.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "R", "kind": "quantaloid", "construction": "rel",
            "sets": [["a", "b", "c"]],
        }))
        start = time.perf_counter()
        code, out = invoke(capsys, "--paths", str(tmp_path), "validate")
        assert time.perf_counter() - start < 20
        assert code == 1
        (violation,) = json.loads(out)["details"]["violations"]["R"]
        assert violation.startswith("too large to validate")


STRING_CHARS = "ab z09_-" + '"\\/\b\f\n\r\t\x00\x1f\x7f' + "é漢\u2028\U0001f600"
SCALARS = [0, -1, 7, 2**70, -(2**64), True, False, None, 0.0, -0.0, 0.1, 1e300, 3.0,
           float("inf"), float("-inf"), float("nan")]


def random_string(rng):
    return "".join(rng.choice(STRING_CHARS) for _ in range(rng.randrange(6)))


def random_report_value(rng, depth):
    """A nested report shape: str-keyed and int-keyed dicts, lists and
    tuples (empty ones among them), strings with escapes and non-ASCII
    characters, ints, bools, None and floats."""
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return random_string(rng) if rng.random() < 0.5 else rng.choice(SCALARS)
    items = [random_report_value(rng, depth - 1) for _ in range(rng.choice([0, 1, 2, 4]))]
    if roll < 0.55:
        return items
    if roll < 0.65:
        return tuple(items)
    if roll < 0.9:
        return {random_string(rng): item for item in items}
    return {rng.randrange(-5, 50): item for item in items}


def random_reports(seed, count):
    """Seeded reports around random details, a third of them timed."""
    rng = random.Random(seed)
    reports = []
    for _ in range(count):
        report = Report("cmd", rng.choice(["yes", "no"]), random_report_value(rng, rng.randint(1, 5)))
        if rng.random() < 0.3:
            report.timing = rng.random()
        reports.append(report)
    return reports


class TestReportEncoder:
    REPORTS = random_reports("report-encoder", 400)

    def test_matches_json_dumps_on_random_shapes(self):
        for case, report in enumerate(self.REPORTS):
            body = {"schema": SCHEMA, "command": report.command, "verdict": report.verdict,
                    "details": report.details}
            if report.timing is not None:
                body["timing_seconds"] = round(report.timing, 6)
            expected = json.dumps(body, sort_keys=True, indent=2)
            assert report.to_json(include_timing=True) == expected, case

    def test_shapes_cover_every_kind(self):
        seen = set()

        def walk(x):
            if isinstance(x, (dict, list, tuple)):
                if isinstance(x, dict):
                    seen.add("dict" if all(type(k) is str for k in x) else "int-keyed dict")
                else:
                    seen.add(type(x).__name__)
                if not x:
                    seen.add("empty " + type(x).__name__)
                for v in x.values() if isinstance(x, dict) else x:
                    walk(v)
            elif isinstance(x, str):
                seen.update(k for k, chars in [("escape", '"\\\n\x00'), ("non-ascii", "é漢\U0001f600")]
                            if any(c in x for c in chars))
            else:
                seen.add(repr(x))

        for report in self.REPORTS:
            walk(report.details)
        kinds = {"dict", "int-keyed dict", "list", "tuple", "escape", "non-ascii",
                 "empty dict", "empty list", "empty tuple"}
        assert kinds | {repr(x) for x in SCALARS} <= seen, kinds - seen
        assert any(r.timing is not None for r in self.REPORTS)


class TestParser:
    def test_suite_range_parse(self):
        parser = build_parser()
        args = parser.parse_args(["axioms", "--base", "Q2"])
        assert args.suite == "A1..A6"

    def test_run_wraps_errors(self):
        bundle = load_bundle(FIXTURES)
        parser = build_parser()
        args = parser.parse_args(["bisimilar", "--a", "AUT1", "--b", "NOPE"])
        report = run("bisimilar", bundle, args)
        assert report.verdict == "error"
        assert report.exit_code == 2


class TestExitCodeContract:
    """Malformed input exits 2 (error), never 1, which reads as "no"."""

    def assert_error(self, code, out):
        assert code == 2
        assert json.loads(out)["verdict"] == "error"

    @pytest.mark.parametrize("suite", ["A1..A9", "A1,A9", "A3..A1", "A1..A2..A3", ""])
    def test_bad_axiom_suite(self, capsys, suite):
        code, out = invoke(capsys, "axioms", "--suite", suite, "--base", "Q2")
        self.assert_error(code, out)
        assert "ParseError" in json.loads(out)["details"]["error"]

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_axiom_cases_below_one(self, capsys, cases):
        code, out = invoke(capsys, "axioms", "--base", "Q2", "--cases", cases)
        self.assert_error(code, out)
        assert "ParseError" in json.loads(out)["details"]["error"]

    def test_missing_cts_spec(self, capsys):
        code, out = invoke(capsys, "cts-build", "--spec", "NOPE")
        self.assert_error(code, out)
        assert "DanglingReference" in json.loads(out)["details"]["error"]

    def test_cts_spec_of_wrong_kind(self, capsys):
        code, out = invoke(capsys, "cts-build", "--spec", "Q2")
        self.assert_error(code, out)

    @pytest.mark.parametrize("hom, error", [
        ("2", "UnknownElement: no element named '2'"),
        (2, "UnknownElement: 2 is not an element of TableLattice(2 elements)"),
        (True, "ParseError: table element True is neither a name nor an index"),
    ])
    def test_table_hom_outside_its_lattice(self, capsys, tmp_path, hom, error):
        copy_fixtures(tmp_path, ["Q2"])
        (tmp_path / "BAD.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "BAD", "kind": "vcategory", "base": "Q2",
            "objects": [{"name": "a", "extent": "*"}, {"name": "b", "extent": "*"}],
            "homs": {"a,a": "1", "a,b": 0, "b,b": "1", "b,a": hom},
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "validate")
        self.assert_error(code, out)
        assert json.loads(out)["details"]["error"] == error

    def test_table_hom_written_as_list(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["Q2"])
        (tmp_path / "BAD.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "BAD", "kind": "vcategory", "base": "Q2",
            "objects": [{"name": "a", "extent": "*"}], "homs": {"a,a": ["1"]},
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "validate")
        self.assert_error(code, out)
        assert "ParseError" in json.loads(out)["details"]["error"]

    @pytest.mark.parametrize("fixture, body", [
        ("Q2", {"kind": "vcategory", "base": "Q2",
                "objects": [{"name": "a", "extent": "*"}], "homs": {"a,b": "1"}}),
        ("Q2", {"kind": "vcategory", "base": "Q2",
                "graph": {"vertices": [{"name": "a", "extent": "*"}],
                          "edges": [{"src": "a", "tgt": "b", "label": "1"}]}}),
        ("P2", {"kind": "ctsspec", "category": "P2",
                "vertices": [{"name": "a", "type": "0"}],
                "edges": [{"src": "a", "tgt": "b",
                           "span": {"apex": "0", "left": "0<=0", "right": "0<=0"}}]}),
    ], ids=["table", "graph", "cts-graph"])
    def test_unknown_object_name(self, capsys, tmp_path, fixture, body):
        copy_fixtures(tmp_path, [fixture])
        (tmp_path / "BAD.json").write_text(json.dumps({"schema": SCHEMA, "name": "BAD", **body}))
        self.assert_parse_error(
            capsys, "--paths", str(tmp_path), "validate", match="BAD: no object named 'b'"
        )

    def assert_parse_error(self, capsys, *argv, match):
        code, out = invoke(capsys, *argv)
        self.assert_error(code, out)
        details = json.loads(out)["details"]
        assert "kind" not in details
        assert details["error"].startswith("ParseError") and match in details["error"]

    @pytest.mark.parametrize("name", ["nope.json", "nope.aut"])
    def test_missing_path(self, capsys, tmp_path, name):
        self.assert_parse_error(
            capsys, "--paths", str(tmp_path / name), "--aut-alphabet", "a", "--aut-k", "1",
            "validate", match="cannot read",
        )

    def test_undecodable_file(self, capsys, tmp_path):
        (tmp_path / "BAD.json").write_bytes(b'{"name": "\xff"}')
        self.assert_parse_error(capsys, "--paths", str(tmp_path), "validate", match="can't decode")

    @pytest.mark.parametrize(
        "alphabet, k, match", [("a,a", "2", "duplicates"), ("a", "-1", "k must be")]
    )
    def test_bad_aut_base_flags(self, capsys, tmp_path, alphabet, k, match):
        (tmp_path / "A.aut").write_text('des (0, 1, 1)\n(0, "a", 0)\n')
        self.assert_parse_error(
            capsys, "--paths", str(tmp_path), "--aut-alphabet", alphabet, "--aut-k", k,
            "validate", match=match,
        )

    @pytest.mark.parametrize(
        "alphabet, k, match", [(["a", "a"], 2, "duplicates"), (["a"], -1, "k must be")]
    )
    def test_bad_language_document(self, capsys, tmp_path, alphabet, k, match):
        (tmp_path / "L.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "L", "kind": "language", "alphabet": alphabet, "k": k,
        }))
        self.assert_parse_error(capsys, "--paths", str(tmp_path), "validate", match=match)

    def test_bad_metric_grid_entry(self, capsys, tmp_path):
        (tmp_path / "M.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "M", "kind": "metric", "grid": ["0", "x", "inf"],
        }))
        self.assert_parse_error(capsys, "--paths", str(tmp_path), "validate", match="'x'")

    def test_aut_initial_state_out_of_range(self, capsys, tmp_path):
        (tmp_path / "A.aut").write_text('des (5, 1, 2)\n(0, "a", 1)\n')
        self.assert_parse_error(
            capsys, "--paths", str(tmp_path), "--aut-alphabet", "a", "--aut-k", "2",
            "validate", match="initial state 5",
        )

    def test_cts_spec_naming_a_functor(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["P2"])
        (tmp_path / "G.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "G", "kind": "catfunctor", "source": "P2", "target": "P2",
            "objects": {"0": "0", "1": "1"},
            "morphisms": {m: m for m in ("0<=0", "0<=1", "1<=1")},
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "cts-build", "--spec", "G")
        self.assert_error(code, out)
        assert "ValidationError" in json.loads(out)["details"]["error"]

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        from enrbisim import bisim

        def broken(a, b):
            raise RuntimeError("boom")

        monkeypatch.setattr(bisim, "largest_bisimulation", broken)
        code = main(["bisimilar", "--a", "P01", "--b", "POINT"])
        captured = capsys.readouterr()
        self.assert_error(code, captured.out)
        details = json.loads(captured.out)["details"]
        assert details["kind"] == "internal"
        assert details["error"] == "RuntimeError: boom"
        assert "Traceback" in captured.err


class TestCtsCommands:
    def test_cts_build_from_spec(self, capsys, tmp_path):
        copy_fixtures(tmp_path, ["P2"])
        (tmp_path / "SPEC.json").write_text(json.dumps({
            "schema": SCHEMA, "name": "SPEC", "kind": "ctsspec", "category": "P2",
            "vertices": [{"name": "v0", "type": "0"}, {"name": "v1", "type": "1"}],
            "edges": [{"src": "v0", "tgt": "v1",
                       "span": {"apex": "0", "left": "0<=0", "right": "0<=1"}}],
        }))
        code, out = invoke(capsys, "--paths", str(tmp_path), "cts-build", "--spec", "SPEC")
        assert code == 0
        result = json.loads(out)["details"]["result"]
        assert result["base"] == "S(P2)"
        assert [o["name"] for o in result["objects"]] == ["v0", "v1"]
