"""Seeded fuzzing of the input boundary.

Each case mutates one document (a shipped fixture or one of a few extra
documents of the other kinds) or one generated ``.aut`` file, then runs
a command in-process through ``cli.main``.  Whatever the input, the exit
code is 0, 1 or 2, the report parses, 0 and 1 come with a yes/no or
valid/invalid verdict, and no error is reported as an internal one.
Inflated inputs, a deeply nested document, an ``.aut`` header that
announces 10^8 states, a 20,000-state automaton compared with itself and
lists of one name more than ``documents.MAX_OBJECTS``, are held to the
same rule in a child process with a capped address space.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from enrbisim.cli import default_fixture_paths, main
from enrbisim.documents import MAX_OBJECTS, SCHEMA, load_bundle, serialize

FIXTURES = Path(default_fixture_paths()[0])
SRC = Path(__file__).resolve().parent.parent / "src"
VERDICTS = {0: {"yes", "valid"}, 1: {"no", "invalid"}, 2: {"error"}}
JUNK = [None, True, -1, 0, 7, 10**6, 1.5, "", "x", "0", "inf", "1/0", [], [[]], ["x"], {}, {"x": 1}]


def doc(name, kind, **fields):
    return {"schema": SCHEMA, "name": name, "kind": kind, **fields}


def seed_documents() -> dict[str, dict]:
    """The shipped fixtures plus one document of every other kind."""
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
    bundle = load_bundle([str(FIXTURES)])
    # explicit spellings of a table base and of a category
    docs["Q2X"] = serialize(bundle, "Q2") | {"name": "Q2X"}
    docs["P2X"] = serialize(bundle, "P2") | {"name": "P2X"}
    docs["PX"] = doc(
        "PX", "vcategory", base="Q2X",
        objects=[{"name": "a0", "extent": "*"}, {"name": "a1", "extent": "*"}],
        homs={"a0,a0": "1", "a0,a1": "1", "a1,a1": "1"},
    )
    docs["E"] = doc(
        "E", "relation", left="P01", right="P01",
        pairs=[["a0", "a0"], ["a0", "a1"], ["a1", "a0"], ["a1", "a1"]],
    )
    docs["R"] = doc("R", "relation", left="P01", right="POINT", pairs=[["a0", "p"], ["a1", "p"]])
    docs["F"] = doc("F", "vfunctor", source="P01", target="POINT", map={"a0": "p", "a1": "p"})
    docs["ID"] = doc("ID", "tse", construction="identity", base="Q2")
    docs["SPEC"] = doc(
        "SPEC", "ctsspec", category="P2",
        vertices=[{"name": "v0", "type": "0"}, {"name": "v1", "type": "1"}],
        edges=[{"src": "v0", "tgt": "v1", "span": {"apex": "0", "left": "0<=0", "right": "0<=1"}}],
    )
    docs["G"] = doc(
        "G", "catfunctor", source="P2", target="P2",
        objects={"0": "0", "1": "1"},
        morphisms={m: m for m in ("0<=0", "0<=1", "1<=1")},
    )
    docs["SIEVES"] = doc("SIEVES", "sieves", category="P2X")
    return docs


COMMANDS = [
    ["bisimilar", "--a", "P01", "--b", "POINT"],
    ["simulates", "--a", "AUT1", "--b", "LOOP1"],
    ["bisim-largest", "--a", "PX", "--b", "PX"],
    ["span", "--a", "AUT1", "--b", "LOOP1"],
    ["cospan", "--a", "P01", "--b", "POINT", "--rel", "R"],
    ["quotient", "--a", "P01", "--rel", "E"],
    ["bisim-check", "--rel", "E"],
    ["od-check", "--functor", "F"],
    ["cob-apply", "--tse", "ID", "--a", "P01"],
    ["cts-build", "--spec", "SPEC"],
    ["cts-refine", "--spec", "SPEC", "--functor", "G"],
]


def nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, path + (i,))


def mutate_doc(original: dict, names: list[str], rng: random.Random) -> tuple[dict, str]:
    """One random change at one random place of the document tree."""
    d = copy.deepcopy(original)
    path = rng.choice([p for p, _ in nodes(d) if p])
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    op = rng.choice(["drop", "type", "index", "duplicate", "name"])
    if op == "drop":
        del parent[key]
    elif op == "type":
        parent[key] = rng.choice(JUNK)
    elif op == "index" and isinstance(value, int) and not isinstance(value, bool):
        parent[key] = value + rng.choice([-2, -1, 1, 2, 50])
    elif op == "index" and isinstance(value, str):
        parent[key] = rng.choice(names + ["nope", "*", "0<=0"])
    elif op == "duplicate" and isinstance(value, list) and value:
        value.append(copy.deepcopy(rng.choice(value)))
    elif op == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(value))
    elif op == "name":
        d["name"] = rng.choice(names)
    else:
        parent[key] = rng.choice(JUNK)
        op = "type"
    return d, f"{op} at {list(path)}"


def random_aut(rng: random.Random, labels: str = "ab") -> str:
    n = rng.randint(1, 5)
    trans = [(rng.randrange(n), rng.choice(labels), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
    lines = [f"des (0, {len(trans)}, {n})"] + [f'({s}, "{x}", {t})' for s, x, t in trans]
    return "\n".join(lines) + "\n"


def mutate_aut(text: str, rng: random.Random) -> tuple[str, str]:
    lines = text.splitlines()
    op = rng.choice(["truncate", "drop", "duplicate", "number", "label", "garbage"])
    i = rng.randrange(len(lines))
    if op == "truncate":
        return text[: rng.randrange(len(text))], op
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "number":
        digits = [j for j, ch in enumerate(lines[i]) if ch.isdigit()]
        if digits:
            j = rng.choice(digits)
            lines[i] = lines[i][:j] + rng.choice(["9", "-1", "99", "x", ""]) + lines[i][j + 1 :]
    elif op == "label":
        lines[i] = lines[i].replace('"a"', rng.choice(['"z"', '""', "a", '"a""']))
    else:
        lines.insert(i, rng.choice(["des", "(0, a, 1)", "\ufeff", "()", "des (0, 0, 0)"]))
    return "\n".join(lines) + "\n", op


def run_case(capsys, argv, what):
    code = main(argv)
    out = capsys.readouterr().out
    context = f"{what}: {' '.join(argv)}"
    assert code in VERDICTS, context
    body = json.loads(out)
    assert body["verdict"] in VERDICTS[code], context
    assert body["details"].get("kind") != "internal", f"{context}: {body['details']}"


@pytest.fixture(scope="module")
def seeds():
    return seed_documents()


@pytest.mark.parametrize("chunk", range(4))
def test_mutated_documents(capsys, tmp_path, seeds, chunk):
    rng = random.Random(f"fuzz-docs:{chunk}")
    names = sorted(seeds)
    for case in range(60):
        target = rng.choice(names)
        case_dir = tmp_path / f"{case:03d}"
        case_dir.mkdir()
        for name, d in seeds.items():
            if name != target:
                (case_dir / f"{name}.json").write_text(json.dumps(d))
        if rng.random() < 0.1:
            text = json.dumps(seeds[target])
            what = f"{target} truncated"
            (case_dir / f"{target}.json").write_text(text[: rng.randrange(len(text))])
        else:
            mutated, what = mutate_doc(seeds[target], names, rng)
            what = f"{target}: {what}"
            (case_dir / f"{target}.json").write_text(json.dumps(mutated))
        for command in (rng.choice(COMMANDS), ["validate", target]):
            run_case(capsys, ["--paths", str(case_dir), *command], what)


@pytest.mark.parametrize("chunk", range(2))
def test_mutated_automata(capsys, tmp_path, chunk):
    rng = random.Random(f"fuzz-aut:{chunk}")
    for case in range(60):
        case_dir = tmp_path / f"{case:03d}"
        case_dir.mkdir()
        (case_dir / "left.aut").write_text(random_aut(rng))
        text, what = mutate_aut(random_aut(rng), rng)
        (case_dir / "right.aut").write_text(text)
        alphabet, k = rng.choice([("a,b", "2")] * 6 + [("a,a", "2"), ("a,b", "-1"), ("a", "0")])
        command = rng.choice([
            ["bisimilar", "--a", "left", "--b", "right"],
            ["simulates", "--a", "right", "--b", "left"],
            ["validate", "right"],
        ])
        argv = ["--paths", str(case_dir), "--aut-alphabet", alphabet, "--aut-k", k, *command]
        run_case(capsys, argv, f"{what} on {text!r}")


# runs the command line under a 1.5 GB address-space cap, so that an input
# that slips past a size check ends in a MemoryError instead of filling memory
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
from enrbisim.cli import main
sys.exit(main(sys.argv[1:]))
"""


# 20,000 states, each with an a-loop: 4e8 extent-matching pairs against itself
LOOPS_AUT = "des (0, 20000, 20000)\n" + "".join(f'({i}, "a", {i})\n' for i in range(20_000))


# the identity span over the automata's base: changing base along it maps
# every pair of the 20,000 objects, 4e8 homs
IDENTITY_TSE = json.dumps({"schema": "enrbisim/1", "name": "ID", "kind": "tse", "construction": "identity",
                           "base": "QL(a,2)"})


# one name more than the cap: an enrichment's objects and a specification's vertices
MANY = [f"x{i}" for i in range(MAX_OBJECTS + 1)]
MANY_OBJECTS = json.dumps(doc("V", "vcategory", base="Q2", homs={},
                              objects=[{"name": name, "extent": "*"} for name in MANY]))
MANY_VERTICES = json.dumps(doc("S", "ctsspec", category="P2", edges=[],
                               vertices=[{"name": name, "type": "0"} for name in MANY]))


@pytest.mark.parametrize("files, argv, error", [
    ({"deep.json": "[" * 200_000 + "]" * 200_000}, ["validate"], "ParseError"),
    ({"big.aut": 'des (0, 1, 100000000)\n(0, "a", 1)\n'},
     ["--aut-alphabet", "a", "--aut-k", "2", "validate", "big"], "SizeLimit"),
    ({"big.aut": LOOPS_AUT}, ["--aut-alphabet", "a", "--aut-k", "2", "bisimilar", "--a", "big", "--b", "big"],
     "SizeLimit"),
    ({"big.aut": LOOPS_AUT}, ["--aut-alphabet", "a", "--aut-k", "2", "simulates", "--a", "big", "--b", "big"],
     "SizeLimit"),
    ({"big.aut": LOOPS_AUT, "ID.json": IDENTITY_TSE},
     ["--aut-alphabet", "a", "--aut-k", "2", "cob-apply", "--tse", "ID", "--a", "big"], "SizeLimit"),
    ({"Q2.json": json.dumps(doc("Q2", "boolean")), "V.json": MANY_OBJECTS}, ["validate"],
     "SizeLimit: V"),
    ({"P2.json": (FIXTURES / "P2.json").read_text(), "S.json": MANY_VERTICES}, ["validate"],
     "SizeLimit: S"),
], ids=["nested-200000-deep", "aut-header-announces-1e8-states", "bisimilar-4e8-pairs", "simulates-4e8-pairs",
        "cob-apply-4e8-homs", "enrichment-of-2^17+1-objects", "ctsspec-of-2^17+1-vertices"])
def test_inflated_input_is_an_error(tmp_path, files, argv, error):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    run = subprocess.run(
        [sys.executable, "-c", CAPPED, "--paths", str(tmp_path), *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
    )
    assert run.returncode == 2, run.stderr
    details = json.loads(run.stdout)["details"]
    assert details["error"].startswith(f"{error}: "), details
    assert details.get("kind") != "internal" and "Traceback" not in run.stderr
