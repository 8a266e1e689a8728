"""Seeded input generators for the enrbisim benchmark.

Every workload is a fixed, repeating schedule of request slots; each
slot fixes a size and a command, and the seed only draws the random
structure that fills it.  Keeping the mix fixed across seeds keeps the
median and the tail percentile inside the same size class from run to
run.  Each generated case carries the files the program reads, the
command line it runs, and the facts the independent reference in
``reference.py`` derived from the generator's own data.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import reference

SCHEMA = "enrbisim/1"
AUT_ALPHABET = ("a", "b")


@dataclass
class Case:
    """One request: input files, the program's arguments, the expected answer."""

    slot: str
    command: str
    files: dict[str, str]  # file name -> text, written into the case directory
    argv: list[str]  # arguments after ``python -m enrbisim``; {dir} is the case directory
    expect: dict = field(default_factory=dict)


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# aut-bisim: random 2-out automata and bisimilar, possibly perturbed, copies


def random_lts(rng: random.Random, n: int) -> list[tuple[int, str, int]]:
    """A 2-out automaton over {a,b}: two random transitions per state."""
    return [
        (s, rng.choice(AUT_ALPHABET), rng.randrange(n)) for s in range(n) for _ in range(2)
    ]


def bisimilar_copy(
    rng: random.Random, n: int, trans: list[tuple[int, str, int]]
) -> tuple[int, list[tuple[int, str, int]]]:
    """Clone about a tenth of the states, split their incoming transitions
    between original and clone, then renumber every state at random."""
    cloned = rng.sample(range(n), max(1, round(n / 10)))
    clone_of = {c: n + i for i, c in enumerate(cloned)}
    out = []
    for s, label, t in trans:
        if t in clone_of and rng.random() < 0.5:
            t = clone_of[t]
        out.append((s, label, t))
    out += [(clone_of[s], label, t) for s, label, t in out if s in clone_of]
    m = n + len(cloned)
    perm = list(range(m))
    rng.shuffle(perm)
    return m, sorted((perm[s], label, perm[t]) for s, label, t in out)


def flip_one_label(
    rng: random.Random, trans: list[tuple[int, str, int]]
) -> list[tuple[int, str, int]]:
    i = rng.randrange(len(trans))
    s, label, t = trans[i]
    flipped = AUT_ALPHABET[1 - AUT_ALPHABET.index(label)]
    return trans[:i] + [(s, flipped, t)] + trans[i + 1 :]


def aut_text(n: int, trans: list[tuple[int, str, int]]) -> str:
    lines = [f"des (0, {len(trans)}, {n})"]
    lines += [f'({s}, "{label}", {t})' for s, label, t in trans]
    return "\n".join(lines) + "\n"


# Sizes mix 1:2:1 (small, middle, large), so that the median request is
# the middle of the middle class and the tail percentile lands inside the
# large class at the request counts one run reaches.
# (states of A, word cutoff k, one label of B flipped, command)
AUT_SLOTS = [
    (12, 2, False, "bisimilar"),
    (24, 4, True, "simulates"),
    (24, 2, False, "cospan"),
    (36, 4, False, "span"),
    (12, 4, True, "simulates"),
    (24, 2, True, "bisimilar"),
    (24, 4, False, "bisimilar"),
    (36, 2, True, "bisimilar"),
]


def aut_case(rng: random.Random, slot) -> Case:
    n, k, flip, command = slot
    a = random_lts(rng, n)
    # a flip that happens to keep B bisimilar is drawn again, so that the
    # verdict mix is the same for every seed
    while True:
        m, b = bisimilar_copy(rng, n, a)
        if flip:
            b = flip_one_label(rng, b)
        bis = reference.lts_largest(n, a, m, b, both=True)
        bisimilar = reference.total(bis, n, m)
        if bisimilar != flip:
            break
        if not flip:
            raise RuntimeError("a copy with cloned states must be bisimilar")
    if not bisimilar and command in ("cospan", "span"):
        raise ValueError("cospan and span slots need a bisimilar pair")
    sim = reference.lts_largest(n, a, m, b, both=False)
    expect = {
        "verdict": "yes",
        "pairs": reference.named_pairs(bis if command != "simulates" else sim),
    }
    if command == "bisimilar":
        expect["verdict"] = "yes" if bisimilar else "no"
    elif command == "simulates":
        expect["verdict"] = "yes" if reference.total(sim, n, None) else "no"
    else:
        expect["classes"], expect["apex"] = reference.class_sizes(bis, n, m)
    return Case(
        f"n{n}-k{k}-{'flip' if flip else 'copy'}-{command}",
        command,
        {"A.aut": aut_text(n, a), "B.aut": aut_text(m, b)},
        [
            "--paths", "{dir}/A.aut", "--paths", "{dir}/B.aut",
            "--aut-alphabet", ",".join(AUT_ALPHABET), "--aut-k", str(k),
            command, "--a", "A", "--b", "B",
        ],
        expect,
    )


# ---------------------------------------------------------------------------
# table-sim: explicit hom tables over Q2 and M3, closed by the generator

BASE_DOCS = {
    "Q2": {"schema": SCHEMA, "name": "Q2", "kind": "quantaloid", "construction": "boolean"},
    "M3": {
        "schema": SCHEMA,
        "name": "M3",
        "kind": "quantaloid",
        "construction": "metric",
        "grid": ["0", "1", "2", "inf"],
    },
}


def random_weighted_graph(rng: random.Random, n: int, out_degree: int, base: str):
    weights = (1,) if base == "Q2" else (1, 1, 2)
    return [
        (s, rng.randrange(n), rng.choice(weights)) for s in range(n) for _ in range(out_degree)
    ]


def extend_graph(rng, n, edges, base):
    """B contains A's graph plus new objects and edges: B simulates A."""
    extra = max(1, n // 5)
    m = n + extra
    more = random_weighted_graph(rng, m, 1, base)
    return m, edges + [e for e in more if e[0] >= n or rng.random() < 0.1]


def perturb_graph(rng, n, edges, base):
    """B is A's graph with a few edges dropped and a few redirected."""
    out = list(edges)
    for _ in range(max(1, n // 10)):
        out.pop(rng.randrange(len(out)))
    for _ in range(max(1, n // 10)):
        i = rng.randrange(len(out))
        s, _, w = out[i]
        out[i] = (s, rng.randrange(n), w)
    return n, out


def table_doc(name: str, prefix: str, base: str, perm: list[int], closed) -> dict:
    """Document of a closed table whose object i is named ``prefix + perm[i]``."""
    n = len(perm)
    names = [f"{prefix}{perm[i]}" for i in range(n)]
    return {
        "schema": SCHEMA,
        "name": name,
        "kind": "vcategory",
        "base": base,
        "objects": [{"name": names[i], "extent": "*"} for i in sorted(range(n), key=perm.__getitem__)],
        "homs": {
            f"{names[i]},{names[j]}": reference.TABLE_NAMES[base][closed[i][j]]
            for i in range(n)
            for j in range(n)
        },
    }


# (objects of A, base, how B derives from A, command)
TABLE_SLOTS = [
    (12, "Q2", "extend", "simulates"),
    (24, "M3", "perturb", "bisim-largest"),
    (24, "Q2", "perturb", "simulates"),
    (36, "M3", "extend", "simulates"),
    (12, "M3", "perturb", "simulates"),
    (24, "Q2", "extend", "bisim-largest"),
    (24, "M3", "extend", "simulates"),
    (36, "Q2", "perturb", "bisim-largest"),
]


def table_case(rng: random.Random, slot) -> Case:
    n, base, derive, command = slot
    a_edges = random_weighted_graph(rng, n, 2, base)
    m, b_edges = (extend_graph if derive == "extend" else perturb_graph)(rng, n, a_edges, base)
    a_closed = reference.table_closure(base, n, a_edges)
    b_closed = reference.table_closure(base, m, b_edges)
    b_perm = list(range(m))
    rng.shuffle(b_perm)
    rel = reference.table_largest(base, a_closed, b_closed, both=command == "bisim-largest")
    expect = {
        "verdict": "valid",
        "pairs": sorted([f"a{x}", f"b{b_perm[y]}"] for x, y in rel),
    }
    if command == "simulates":
        expect["verdict"] = "yes" if reference.total(rel, n, None) else "no"
    return Case(
        f"n{n}-{base}-{derive}-{command}",
        command,
        {
            f"{base}.json": _dump(BASE_DOCS[base]),
            "A.json": _dump(table_doc("A", "a", base, list(range(n)), a_closed)),
            "B.json": _dump(table_doc("B", "b", base, b_perm, b_closed)),
        },
        ["--paths", "{dir}", command, "--a", "A", "--b", "B"],
        expect,
    )


# ---------------------------------------------------------------------------
# sieve-cts: span-labelled specifications over the chain T2, refined into T3


def chain_doc(name: str, length: int) -> dict:
    return {
        "schema": SCHEMA,
        "name": name,
        "kind": "fincat",
        "construction": "poset",
        "elements": [str(i) for i in range(length)],
        "leq": [[i, j] for i in range(length) for j in range(i, length)],
    }


def inclusion_doc(source: int, target: int) -> dict:
    mors = [f"{i}<={j}" for i in range(source) for j in range(i, source)]
    return {
        "schema": SCHEMA,
        "name": "INCL",
        "kind": "catfunctor",
        "source": f"T{source}",
        "target": f"T{target}",
        "objects": {str(i): str(i) for i in range(source)},
        "morphisms": {m: m for m in mors},
    }


def spec_doc(rng: random.Random, n: int, types: list[int], out_degree: int):
    edges = []
    for s in range(n):
        for _ in range(out_degree):
            t = rng.randrange(n)
            edges.append((s, t, rng.randint(0, min(types[s], types[t]))))
    doc = {
        "schema": SCHEMA,
        "name": "SPEC",
        "kind": "ctsspec",
        "category": "T2",
        "vertices": [{"name": f"v{i}", "type": str(types[i])} for i in range(n)],
        "edges": [
            {
                "src": f"v{s}",
                "tgt": f"v{t}",
                "span": {"apex": str(m), "left": f"{m}<={types[s]}", "right": f"{m}<={types[t]}"},
            }
            for s, t, m in edges
        ],
    }
    return doc, edges


# (vertices, command)
SIEVE_SLOTS = [
    (8, "cts-build"),
    (16, "cts-refine"),
    (16, "cts-build"),
    (24, "cts-build"),
    (8, "cts-refine"),
    (16, "cts-build"),
    (16, "cts-refine"),
    (24, "cts-refine"),
]


def sieve_case(rng: random.Random, slot) -> Case:
    n, command = slot
    types = [rng.randrange(2) for _ in range(n)]
    doc, edges = spec_doc(rng, n, types, 2)
    widest = reference.widest_paths(n, types, edges)
    files = {"T2.json": _dump(chain_doc("T2", 2)), "SPEC.json": _dump(doc)}
    argv = ["--paths", "{dir}", command, "--spec", "SPEC"]
    if command == "cts-refine":
        files["T3.json"] = _dump(chain_doc("T3", 3))
        files["INCL.json"] = _dump(inclusion_doc(2, 3))
        argv += ["--functor", "INCL"]
    return Case(
        f"n{n}-{command}",
        command,
        files,
        argv,
        {"verdict": "valid", "types": types, "widest": widest},
    )


WORKLOADS = {
    "aut-bisim": (AUT_SLOTS, aut_case),
    "table-sim": (TABLE_SLOTS, table_case),
    "sieve-cts": (SIEVE_SLOTS, sieve_case),
}


def generate(workload: str, seed: int, rounds: int, slots=None) -> list[Case]:
    """``rounds`` passes over the workload's slots, drawn from one seeded stream."""
    default_slots, make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, slot) for _ in range(rounds) for slot in (slots or default_slots)]
