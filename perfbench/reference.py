"""Independent reference answers and the judge that compares reports to them.

Nothing here imports enrbisim: each answer is computed from the
generator's own data by the classical textbook method, so a wrong
answer from the program cannot also be the reference's answer.
"""

from __future__ import annotations

import json

# ---------------------------------------------------------------------------
# labelled transition systems: naive greatest fixpoints


def _successors(n: int, trans) -> list[dict[str, set[int]]]:
    succ: list[dict[str, set[int]]] = [{} for _ in range(n)]
    for s, label, t in trans:
        succ[s].setdefault(label, set()).add(t)
    return succ


def _matched(succ_p, succ_q, rel, flip: bool) -> bool:
    """Every move of p is answered by an equally labelled move of q into rel."""
    for label, targets in succ_p.items():
        answers = succ_q.get(label, ())
        for p2 in targets:
            if not any(((q2, p2) if flip else (p2, q2)) in rel for q2 in answers):
                return False
    return True


def lts_largest(n, trans_a, m, trans_b, both: bool) -> set[tuple[int, int]]:
    """Largest strong bisimulation (``both``) or simulation of A by B."""
    sa, sb = _successors(n, trans_a), _successors(m, trans_b)
    rel = {(p, q) for p in range(n) for q in range(m)}
    while True:
        bad = {
            (p, q)
            for p, q in rel
            if not _matched(sa[p], sb[q], rel, False)
            or (both and not _matched(sb[q], sa[p], rel, True))
        }
        if not bad:
            return rel
        rel -= bad


def total(rel, n: int, m: int | None) -> bool:
    """Every left object related; with ``m``, every right object too."""
    if {p for p, _ in rel} != set(range(n)):
        return False
    return m is None or {q for _, q in rel} == set(range(m))


def named_pairs(rel) -> list[list[str]]:
    return sorted([f"s{p}", f"s{q}"] for p, q in rel)


def class_sizes(rel, n: int, m: int) -> tuple[int, int]:
    """Classes of the equivalence that ``rel`` generates on A+B, and the
    number of same-class pairs across the two sides."""
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in rel:
        parent[find(p)] = find(n + q)
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    for x in range(n + m):
        side = left if x < n else right
        side[find(x)] = side.get(find(x), 0) + 1
    roots = set(left) | set(right)
    return len(roots), sum(left.get(r, 0) * right.get(r, 0) for r in roots)


# ---------------------------------------------------------------------------
# explicit tables over Q2 and M3

# element names as the documents spell them; M3 stores a capped distance
# (3 stands for infinity), Q2 a truth value
TABLE_NAMES = {"Q2": ["0", "1"], "M3": ["0", "1", "2", "inf"]}
M3_INF = 3


def table_closure(base: str, n: int, edges) -> list[list[int]]:
    """Reachability (Q2) or shortest distance capped at infinity (M3)."""
    if base == "Q2":
        d = [[int(i == j) for j in range(n)] for i in range(n)]
        for s, t, _ in edges:
            d[s][t] = 1
        for k in range(n):
            for i in range(n):
                if d[i][k]:
                    for j in range(n):
                        if d[k][j]:
                            d[i][j] = 1
        return d
    d = [[0 if i == j else M3_INF for j in range(n)] for i in range(n)]
    for s, t, w in edges:
        d[s][t] = min(d[s][t], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j], M3_INF)
    return d


def _strength(base: str, table) -> list[list[int]]:
    """Lattice order as integers: larger is higher, join is max, bottom 0."""
    if base == "Q2":
        return table
    return [[M3_INF - x for x in row] for row in table]


def table_largest(base: str, table_a, table_b, both: bool) -> set[tuple[int, int]]:
    """Largest simulation of A by B (or bisimulation) by naive refinement."""
    sa, sb = _strength(base, table_a), _strength(base, table_b)
    n, m = len(sa), len(sb)
    rel = {(x, y) for x in range(n) for y in range(m)}
    while True:
        right_of = [[y for (x2, y) in rel if x2 == x] for x in range(n)]
        left_of = [[x for (x, y2) in rel if y2 == y] for y in range(m)]
        # best[y][x2]: join of hom_B(y, y2) over the partners y2 of x2
        best = [[max((sb[y][y2] for y2 in right_of[x2]), default=0) for x2 in range(n)] for y in range(m)]
        co_best = [[max((sa[x][x2] for x2 in left_of[y2]), default=0) for y2 in range(m)] for x in range(n)]
        bad = {
            (x, y)
            for x, y in rel
            if any(sa[x][x2] > best[y][x2] for x2 in range(n))
            or (both and any(sb[y][y2] > co_best[x][y2] for y2 in range(m)))
        }
        if not bad:
            return rel
        rel -= bad


# ---------------------------------------------------------------------------
# span-labelled specifications over a chain poset


def widest_paths(n: int, types: list[int], edges) -> list[list[int]]:
    """Max-min closure of the apex labels; -1 where no path exists.

    Over a chain every sieve between two objects is the set of spans with
    apex at most some m, and composing two sieves takes the smaller m, so
    the free enrichment is the widest-path closure, with the identity
    sieve of a vertex reaching up to its own type.
    """
    w = [[types[i] if i == j else -1 for j in range(n)] for i in range(n)]
    for s, t, apex in edges:
        w[s][t] = max(w[s][t], apex)
    for k in range(n):
        for i in range(n):
            if w[i][k] < 0:
                continue
            for j in range(n):
                via = min(w[i][k], w[k][j])
                if via > w[i][j]:
                    w[i][j] = via
    return w


def sieve_doc(top: int, src_type: int, tgt_type: int) -> list[dict]:
    """The sieve of spans with apex at most ``top``, as reports spell it."""
    return [
        {"apex": str(m), "left": f"{m}<={src_type}", "right": f"{m}<={tgt_type}"}
        for m in range(top + 1)
    ]


# ---------------------------------------------------------------------------
# judging one report

EXIT_FOR = {"yes": 0, "valid": 0, "no": 1, "invalid": 1}


def judge(expect: dict, command: str, exit_code: int, stdout: str) -> str:
    """``ok``, ``wrong`` (a well-formed report that disagrees with the
    reference) or ``failed`` (error exit, crash or unreadable report)."""
    if exit_code not in (0, 1):
        return "failed"
    try:
        report = json.loads(stdout)
        verdict = report["verdict"]
        details = report["details"]
    except (ValueError, KeyError, TypeError):
        return "failed"
    if EXIT_FOR.get(verdict) != exit_code or verdict != expect["verdict"]:
        return "wrong"
    try:
        return "ok" if _payload_ok(expect, command, details) else "wrong"
    except (KeyError, TypeError, ValueError, IndexError, AttributeError):
        return "wrong"


def _payload_ok(expect: dict, command: str, details: dict) -> bool:
    if command in ("bisimilar", "simulates", "bisim-largest"):
        return sorted(details["pairs"]) == expect["pairs"]
    if command == "cospan":
        return (
            len(details["target_objects"]) == expect["classes"]
            and details["left_in_class"] is True
            and details["right_in_class"] is True
        )
    if command == "span":
        return (
            len(details["apex_objects"]) == expect["apex"]
            and details["left_in_class"] is True
            and details["right_in_class"] is True
        )
    if command in ("cts-build", "cts-refine"):
        return _sieve_result_ok(expect, details["result"]["homs"])
    raise ValueError(f"no reference for {command!r}")


def _sieve_result_ok(expect: dict, homs: dict) -> bool:
    types, widest = expect["types"], expect["widest"]
    n = len(types)
    if len(homs) != n * n:
        return False
    for key, value in homs.items():
        i, j = (int(part.split("|")[0].strip("(v")) for part in key.split(","))
        if value != sieve_doc(widest[i][j], types[i], types[j]):
            return False
    return True
