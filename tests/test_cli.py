import contextlib
import gc
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import enrbisim.__main__
from enrbisim import cli, generators
from enrbisim.cli import Report, build_parser, default_fixture_paths, main, parse_args, run
from enrbisim.documents import SCHEMA, load_bundle
from enrbisim.generators import MAX_CASES

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

    def test_validate_checks_each_vcategory_once(self, capsys, monkeypatch):
        # load_bundle checked every vcategory; ``validate`` does not check it again
        from enrbisim import vcat

        expected = len(load_bundle(FIXTURES).names("vcategory"))
        original, calls = vcat.validate_vcategory, []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("enrbisim") and getattr(module, "validate_vcategory", None) is original:
                monkeypatch.setattr(module, "validate_vcategory", counting)
        code, _ = invoke(capsys, "validate")
        assert code == 0
        assert expected > 0 and len(calls) == expected == len({id(cat) for cat in calls})

    def test_validate_checks_each_base_once(self, capsys, monkeypatch, tmp_path):
        # an explicit table base is checked as it loads, a named construction by ``validate``
        from enrbisim import jsondocs, laws

        copy_fixtures(tmp_path, ["Q2", "QL_m_2"])
        (tmp_path / "Q2X.json").write_text(json.dumps(
            jsondocs.serialize(load_bundle([tmp_path]), "Q2") | {"name": "Q2X"}
        ))
        original, calls = laws.validate_quantaloid, []

        def counting(q):
            calls.append(q)
            return original(q)

        for name, module in list(sys.modules.items()):
            if name.startswith("enrbisim") and getattr(module, "validate_quantaloid", None) is original:
                monkeypatch.setattr(module, "validate_quantaloid", counting)
        code, out = invoke(capsys, "--paths", str(tmp_path), "validate")
        assert code == 0 and json.loads(out)["details"]["checked"] == ["Q2", "Q2X", "QL_m_2"]
        # Q2X as it loads, then Q2 (a boolean construction) and QL_m_2 in ``validate``
        assert [type(q).__name__ for q in calls] == [
            "TableQuantaloid", "TableQuantaloid", "LanguageQuantale"
        ]
        assert len({id(q) for q in calls}) == 3


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


GOLDEN_DOCS = Path(__file__).parent / "golden" / "docs"
# storing commands whose --out names a loaded object
OUT_HELD = [
    ["quotient", "--a", "P01", "--rel", "E", "--out", "P01"],
    ["cob-apply", "--tse", "ID", "--a", "P01", "--out", "Q2"],
    ["cob-radjoint", "--tse", "ID", "--b", "POINT", "--out", "E"],
    ["cts-build", "--spec", "SPEC", "--out", "P2"],
    ["cts-refine", "--spec", "SPEC", "--functor", "INC", "--out", "SPEC"],
]


def out_case_id(argv):
    return f"{argv[0]}-{argv[-1]}"


class TestOutNames:
    """A storing command's ``--out`` may not name what the bundle holds."""

    @pytest.mark.parametrize("argv", [
        *OUT_HELD[:4],
        ["cts-build", "--spec", "SPEC", "--out", "S(P2)"],  # the sieve base it builds
        *OUT_HELD[4:],
    ], ids=out_case_id)
    def test_out_naming_a_held_object_is_refused(self, capsys, argv):
        paths = ["--paths", FIXTURES[0], "--paths", str(GOLDEN_DOCS)]
        code, out = invoke(capsys, *paths, *argv)
        assert code == 2
        assert json.loads(out)["details"]["error"].startswith(f"ValidationError: --out {argv[-1]!r}")
        bundle, flags = load_bundle([FIXTURES[0], GOLDEN_DOCS]), parse_args(argv)
        held, vcategories = dict(bundle.objects), bundle.names("vcategory")
        assert run(flags.command, bundle, flags).exit_code == 2
        # nothing was replaced or stored
        assert all(bundle.objects[name] is obj for name, obj in held.items())
        assert bundle.names("vcategory") == vcategories

    @pytest.mark.parametrize("argv", OUT_HELD, ids=out_case_id)
    def test_loaded_name_is_refused_before_the_handler_runs(self, monkeypatch, argv):
        # cts-build would otherwise build the sieve base, check its laws and
        # build the enrichment before refusing the name
        flags = parse_args(argv)
        module = importlib.import_module(f"enrbisim.{cli.COMMANDS[flags.command][0]}")
        calls = []
        monkeypatch.setattr(module, f"cmd_{flags.command.replace('-', '_')}",
                            lambda *args: calls.append(args) or ("valid", {}))
        report = run(flags.command, load_bundle([FIXTURES[0], GOLDEN_DOCS]), flags)
        assert report.exit_code == 2 and calls == []
        assert report.details["error"].startswith(f"ValidationError: --out {argv[-1]!r}")


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

    def test_a_shared_list_is_written_at_each_place_as_json_does(self):
        """One list object at two depths and many times at one depth (an
        enrichment document gives one list to every cell with the same
        hom) is written at each place as ``json.dumps`` writes it."""
        hom = [{"apex": "0", "left": "0<=1", "right": "0<=0"}, ["a", ["b"]], (1, "x")]
        words = [["a", "b"], []]
        cells = {f"x{i},x{j}": hom if (i + j) % 3 else words for i in range(5) for j in range(5)}
        shapes = [
            {"hom": hom, "homs": cells, "deeper": {"again": [hom, [hom, words]]}, "pair": ["p", "q"]},
            [hom] * 40,
            [words, [words, [words]], {"w": words}],
        ]
        shapes += [{"a": d, "b": [d, {"c": d}], "d": [d] * 3} for d in (r.details for r in self.REPORTS)]
        for case, details in enumerate(shapes):
            expected = json.dumps({"schema": SCHEMA, "command": "c", "verdict": "yes",
                                   "details": details}, sort_keys=True, indent=2)
            assert Report("c", "yes", details).to_json() == expected, case

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


VALID_ARGV = {
    "validate": ["validate", "Q2"],
    "bisim-largest": ["bisim-largest", "--a", "X", "--b", "Y", "--sim"],
    "simulates": ["simulates", "--a", "X", "--b", "Y"],
    "bisimilar": ["--format", "text", "--timing", "bisimilar", "--a", "X", "--b", "Y"],
    "bisim-check": ["bisim-check", "--rel", "R", "--sim"],
    "od-check": ["od-check", "--functor", "F"],
    "quotient": ["quotient", "--a", "X", "--rel", "R"],
    "cospan": ["cospan", "--a", "X", "--b", "Y", "--rel", "R"],
    "span": ["--aut-alphabet", "a,b", "--aut-k", "3", "span", "--a", "X", "--b", "Y"],
    "cob-apply": ["cob-apply", "--tse", "T", "--a", "X", "--out", "O"],
    "cob-radjoint": ["cob-radjoint", "--tse", "T", "--b", "Y"],
    "axioms": ["axioms", "--base", "Q2", "--seed", "3", "--cases", "5"],
    "cts-build": ["cts-build", "--spec", "S"],
    "cts-refine": ["--paths", "d1", "--paths", "d2", "cts-refine", "--spec", "S", "--functor", "G"],
}
# each argv with its outcome: None if it parses, else the exit code
PARSER_CASES = [
    *((argv, None) for argv in VALID_ARGV.values()),
    (["-h"], 0),
    (["--help", "validate"], 0),
    (["bisimilar", "-h"], 0),
    (["nope", "--a", "X"], 2),
    ([], 2),
    (["--aut-k", "many", "bisimilar", "--a", "X", "--b", "Y"], 2),
    (["--format", "yaml", "validate"], 2),
    (["bisimilar", "--b", "Y"], 2),
    (["span", "--a", "X", "--b", "Y", "extra"], 2),
    (["--paths", "span", "bisimilar", "--a", "X", "--b", "Y"], None),
    (["--paths=DIR", "validate"], None),
]


# the tokens the parser tests draw argvs from: values (ints, choices, junk), and
# junk in place of an option (help, "--", abbreviations, misplaced options)
INTS = ["3", "0", "-3", "1_0", " 7", "x"]
WORDS = ["X", "Y", "", "a,b", "x y", "-x y", "-1.5", "=x", "-", "validate"]
JUNK = ["-h", "--help", "--", "-", "--fo", "--ti", "--su", "--fun", "-a", "nope", "--a", "--timing",
        "--paths", "--aut-k=2"]


@st.composite
def argvs(draw):
    """A well-formed argv, or one a token away from it: the global options,
    a command and its options, each option in any order, given 0-2 times
    (a required one at least once) as ``--flag value`` or ``--flag=value``;
    then maybe one token inserted from the junk or dropped."""

    def options(declared) -> list[str]:
        pieces = []
        for flag, o in declared:
            for _ in range(draw(st.integers(1 if o.get("required") else 0, 2))):
                if o.get("action") == "store_true":
                    pieces.append([flag])
                    continue
                value = draw(st.sampled_from(
                    [*o["choices"], "yaml"] if "choices" in o else INTS if "type" in o else WORDS
                ))
                pieces.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
        return sum(draw(st.permutations(pieces)), [])

    command = draw(st.sampled_from([*cli.COMMANDS, "nope"]))
    arguments = cli.COMMANDS.get(command, (None, None, ()))[2]
    argv = options(cli.OPTIONS.items()) + [command] + options(
        [(flag, o) for flag, o in arguments if flag[0] == "-"]
    )
    if command == "validate":
        argv += draw(st.lists(st.sampled_from(WORDS), max_size=2))
    where = draw(st.integers(0, len(argv)))
    change = draw(st.sampled_from(["none", "none", "insert", "drop"]))
    if change == "insert":
        argv.insert(where, draw(st.sampled_from(JUNK + WORDS + INTS)))
    elif change == "drop" and where < len(argv):
        del argv[where]
    return argv


class TestOneCommandParser:
    """``cli.parse_args`` reads a well-formed argv alone, and answers as the
    full parser does."""

    @staticmethod
    def outcome(parse, argv):
        """The parsed arguments, or the exit code and output of help or an error."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return vars(parse(argv))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()

    def test_every_command_is_covered(self):
        assert list(VALID_ARGV) == list(cli.COMMANDS)

    def test_scan_knows_which_global_options_take_a_value(self):
        actions = build_parser()._actions
        valued = {a.option_strings[0] for a in actions if a.option_strings and a.nargs is None}
        assert valued == {flag for flag, o in cli.OPTIONS.items() if o.get("action") != "store_true"}

    @pytest.mark.parametrize(
        "argv, code", PARSER_CASES, ids=[" ".join(argv) or "no-args" for argv, _ in PARSER_CASES]
    )
    def test_same_as_full_parser(self, argv, code):
        lean = self.outcome(cli.parse_args, argv)
        full = self.outcome(build_parser().parse_args, argv)
        assert lean == full
        if code is None:
            assert isinstance(lean, dict)
        else:
            assert lean[0] == code and ("usage:" in lean[1] if code == 0 else "error:" in lean[2])

    @settings(max_examples=400, deadline=None)
    @given(argvs())
    def test_drawn_argv_same_as_full_parser(self, argv):
        assert self.outcome(cli.parse_args, argv) == self.outcome(build_parser().parse_args, argv)

    def test_valid_argv_builds_no_parser(self, monkeypatch):
        full = {name: vars(build_parser().parse_args(argv)) for name, argv in VALID_ARGV.items()}
        monkeypatch.setattr(cli, "build_parser", None)  # calling it would raise
        for name, argv in VALID_ARGV.items():
            flags = cli.parse_args(argv)
            assert type(flags) is SimpleNamespace and vars(flags) == full[name]

    def test_usage_error_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.parse_args(["bisimilar", "--a", "X", "--b", "Y", "extra"])
        assert stop.value.code == 2
        assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().err


def enrbisim_child(args, env=(), **kwargs):
    """``python -m enrbisim ARGS`` in a fresh interpreter, with ``env`` set."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)), **dict(env))
    return subprocess.run([sys.executable, "-m", "enrbisim", *args], env=env, **kwargs)


def big_cts_spec(tmp_path, n=23) -> list[str]:
    """A cts-refine request over a cycle of ``n`` vertices; its report is
    over 64 KiB, more than a pipe holds."""
    copy_fixtures(tmp_path, ["P2"])
    types = [str(i % 2) for i in range(n)]
    edges = [
        {"src": f"v{i}", "tgt": f"v{(i + 1) % n}",
         "span": {"apex": "0", "left": f"0<={types[i]}", "right": f"0<={types[(i + 1) % n]}"}}
        for i in range(n)
    ]
    (tmp_path / "SPEC.json").write_text(json.dumps({
        "schema": SCHEMA, "name": "SPEC", "kind": "ctsspec", "category": "P2",
        "vertices": [{"name": f"v{i}", "type": t} for i, t in enumerate(types)], "edges": edges,
    }))
    (tmp_path / "G.json").write_text(json.dumps({
        "schema": SCHEMA, "name": "G", "kind": "catfunctor", "source": "P2", "target": "P2",
        "objects": {"0": "0", "1": "1"}, "morphisms": {m: m for m in ("0<=0", "0<=1", "1<=1")},
    }))
    return ["--paths", str(tmp_path), "cts-refine", "--spec", "SPEC", "--functor", "G"]


class TestProcessEntry:
    def test_in_process_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert main(["validate", "Q2"]) == 0
        assert gc.get_freeze_count() == before

    def test_entry_freezes_the_import_heap(self):
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count()}'))\n"
            "sys.argv[1:] = ['validate', 'Q2']\n"
            "runpy.run_module('enrbisim', run_name='__main__', alter_sys=True)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, sys.path)))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["verdict"] == "valid"
        frozen = int(child.stderr.rpartition("frozen=")[2])
        assert frozen > 1000

    def test_script_target_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["enrbisim"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is enrbisim.__main__.entry

    @pytest.mark.parametrize("size", ["small", "big"])
    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_2(self, size, buffered, tmp_path):
        """Buffered, a small report fails at the flush; unbuffered, at the write."""
        args = ["validate", "Q2"] if size == "small" else big_cts_spec(tmp_path)
        env = {"PYTHONUNBUFFERED": "" if buffered else "1"}
        if size == "big":
            assert len(enrbisim_child(args, env, capture_output=True, check=True).stdout) > 65536
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts: its first write fails
        try:
            child = enrbisim_child(args, env, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert child.returncode == 2
        assert child.stderr == ""


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

    @pytest.mark.parametrize("cases", [str(MAX_CASES + 1), "100000000000"])
    def test_axiom_cases_over_the_cap(self, capsys, monkeypatch, cases):
        # refused before any case runs: an axiom that runs is a failure here
        monkeypatch.setattr(generators, "AXIOMS", dict.fromkeys(generators.AXIOMS, pytest.fail))
        code, out = invoke(capsys, "axioms", "--base", "Q2", "--cases", cases)
        self.assert_error(code, out)
        assert json.loads(out)["details"]["error"] == (
            f"SizeLimit: --cases {cases} is more than the cap {MAX_CASES}")

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
        # the engine as the module serving ``bisimilar`` reads it, wherever that is
        serving = importlib.import_module(f"enrbisim.{cli.COMMANDS['bisimilar'][0]}")

        def broken(a, b):
            raise RuntimeError("boom")

        monkeypatch.setattr(serving, "largest_bisimulation", broken)
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
