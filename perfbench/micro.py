"""Per-call cost of lattice join, leq and meet on a workload's own elements.

Usage: python perfbench/micro.py WORKLOAD CASE_DIR SEED AUT_K

Loads the case's documents with enrbisim, takes the hom elements of the
enrichment the request works on, and times each operation on seeded
random pairs of elements that share a hom lattice.  Prints one JSON
object mapping ``lattice.<Class>.<op>.ns`` to the median per-call time
over several repeats.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

PAIRS = 2000
REPEATS = 7


def hom_groups(workload: str, case_dir: str, aut_k: int) -> dict:
    """Hom lattice -> the hom elements of the workload's enrichment in it."""
    from enrbisim import cts, documents

    if workload == "aut-bisim":
        cat = documents.import_aut(f"{case_dir}/A.aut", ["a", "b"], aut_k)
    else:
        bundle = documents.load_bundle([case_dir])
        if workload == "table-sim":
            cat = bundle.get("A")
        else:
            _, spec = bundle.get("SPEC")
            cat = cts.cts_to_vcat(bundle.sieve_base("T2"), spec)
    groups: dict = {}
    for i in range(cat.n_objects):
        for j in range(cat.n_objects):
            groups.setdefault(id(cat.hom_lattice(i, j)), (cat.hom_lattice(i, j), []))[1].append(
                cat.hom(i, j)
            )
    return groups


def per_call_ns(op: str, triples) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        if op == "join":
            for lat, x, y in triples:
                lat.join((x, y))
        elif op == "meet":
            for lat, x, y in triples:
                lat.meet((x, y))
        else:
            for lat, x, y in triples:
                lat.leq(x, y)
        samples.append((time.perf_counter_ns() - start) / len(triples))
    return statistics.median(samples)


def main(argv: list[str]) -> int:
    workload, case_dir, seed, aut_k = argv[0], argv[1], int(argv[2]), int(argv[3])
    rng = random.Random(seed)
    groups = [g for g in hom_groups(workload, case_dir, aut_k).values() if len(g[1]) > 1]
    lat_class = type(groups[0][0]).__name__
    triples = []
    for _ in range(PAIRS):
        lat, elems = rng.choice(groups)
        triples.append((lat, rng.choice(elems), rng.choice(elems)))
    out = {
        f"lattice.{lat_class}.{op}.ns": per_call_ns(op, triples)
        for op in ("join", "leq", "meet")
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
