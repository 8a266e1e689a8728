"""Layer timings of enrbisim on growing automata and hom tables, in one process,
and the wall time of a whole ``enrbisim`` request on the automata.

Usage (from the root of a checkout):

    python3 bench/scale.py --label change --out bench/BENCH_scale_14.json
    python3 bench/scale.py --src OTHER/src --label parent --out bench/BENCH_scale_14.json
    python3 bench/scale.py --sizes 100 --cap 1 --out /tmp/scale.json   # smoke run
    python3 bench/scale.py --sizes --load-sizes 10000 20000 40000 --out bench/BENCH_scale_31.json
    python3 bench/scale.py --sizes --fan-atoms 6 7 8 9 10 --cob-sizes 800 1600 --out bench/BENCH_scale_33.json

Three input families, each grown over the sizes in the order given:

- automata: seeded 2-out automata over {a,b}, read as free enrichments
  over the truncated language quantale QL({a,b},k) for k = 2 and k = 4,
  with the layers
  - ``import_aut``: parse an Aldebaran file, build and validate its free
    enrichment (``language.import_aut``);
  - ``path_homs``: the free construction's hom rows alone;
  - ``vcategory``: the ``VCategory`` constructor on those rows;
  - the witness layers, each on the enrichment against itself with
    ``largest_bisimulation``'s relation: ``quotient`` builds the
    ``BisimEquivalence`` of the relation's classes (read off its pairs)
    and its quotient; ``cospan_witness`` builds the cospan from the
    relation; ``span_witness`` computes its own relation and pulls the
    cospan back.  The harness exits with status 1 unless both legs of
    each cospan and span are surjective functional bisimulations
    (``is_od``);
  - ``report``: what the ``bisimilar`` command makes of
    ``largest_bisimulation``'s relation, its details (the related pairs
    and the refinement trace, ``_relation_details``) written as the JSON
    report (``Report.to_json``);

  Since the partition form of ``largest_bisimulation``'s relation, that
  layer times the refinement rounds alone: the relation keeps every
  round's block ids and builds its pairs and trace when first read.  So
  each layer that reads the relation gets a fresh shallow copy of it,
  and the digest reads another: ``report`` pays for the pairs and the
  trace on every run, as a request does, and ``quotient`` for the
  pairs.  A relation with eager pairs copies the same way;
  - ``bisimilar_cli``: the end-to-end layer, one whole request
    ``python -m enrbisim bisimilar`` in a new process, on the automaton's
    ``.aut`` file and a copy whose states other than the initial one are
    shuffled, so the answer is "yes".  It times the wall clock from
    start to exit of the child, which imports the package from
    ``--src``, and covers what every request pays whatever its input
    (interpreter start, imports, argument parsing, exit) beside the
    work.  The harness exits with status 1 unless every run exits 0 with
    the verdict ``yes``;
- tables: seeded 2-out graphs closed into explicit hom tables over Q2
  (reachability) and M3 (shortest distance over edge weights 1, 1, 2,
  where a sum above 2 is infinity, the grid's bottom).  The closure is
  computed here by a search from each source, and it is the input of the
  other layers.  Only sizes up to ``TABLE_MAX_N`` run, since a table
  holds n² homs.  The layer
  - ``free_vcategory`` builds the same table from the graph's labelled
    edges through the generic closure; the harness exits with status 1
    if the two tables differ;

and, on these two families, ``validate_vcategory``, ``largest_bisimulation``
and ``largest_simulation`` (the input against itself);
- sieves: seeded specifications over the chain T2 = {0 <= 1}, each
  vertex typed 0 or 1 and given two out-edges, each labelled with the
  span whose apex is drawn up to both end types, as the ``sieve-cts``
  benchmark draws them.  The layer ``free_vcategory`` builds their free
  enrichment over the sieve quantaloid S(T2).  Over a chain a sieve is
  the set of spans with apex up to some m, and composition takes the
  smaller m, so the enrichment is the widest-path closure of the apexes.
  A search from each source computes that closure here, and the harness
  exits with status 1 if a hom's largest apex differs from it.  Sizes
  stop at ``TABLE_MAX_N`` here too.

and, with ``--load-sizes``, one more layer on larger automata (k = 2):

- ``load``: ``import_aut`` on a seeded 2-out automaton, its wall time
  (one run, scaled by the probe as below) and, in a second run, its
  ``tracemalloc`` peak, with the peak's growth from each size to the
  next, and the memory still held once it returns, with its enrichment
  kept.  An empty ``--sizes`` runs this layer alone, and so the two
  below.

With ``--fan-atoms``, one layer over fan posets (a bottom, the given
number of atoms, a top):

- ``cts_refine``: what ``cts-refine`` computes on a 12-vertex ring
  typed at the top whose i-th edge runs through atom i (mod the atom
  count), refined along the identity functor: the sieve bases, the
  specification's free enrichment (``cts_to_vcat``) and ``refine``.
  The sieves from the top to itself are the 2^atoms + 2 down-sets of
  the fan, so the local adjoint search dominates.  The harness exits
  with status 1 unless the refinement gives the free enrichment's homs
  back.

With ``--cob-sizes``, one layer on the seeded 2-out automata over
QL({a,b},2):

- ``apply_cob``: change of base along the identity span
  (``identity_tse``) of the automaton's free enrichment, built untimed;
  its components keep bottom at bottom, so only non-bottom homs need
  mapping.  The harness exits with status 1 unless the result has the
  input's homs.

Each layer runs ``REPEATS`` times per size, each run after
``gc.collect()`` with the previous run's result dropped, and the median
is recorded with every run, so that a figure depends neither on what ran
before it nor on when the cyclic collector last fired.  The speed of a
shared host drifts by a third and more over minutes, so a fixed
pure-Python loop (the probe of ``perfbench/run.py``) is timed before each
run and again after it.  Each run is scaled by ``NOMINAL_PROBE_S`` over
the mean of its two probes, so that drift during a run counts as well as
drift between runs, and a layer's figure at a size is the median of its
scaled runs: it reads as if the host ran at nominal speed.  The raw
median and the probe pairs are kept beside it.  A layer stops
growing n after the first size at which its figure passes ``--cap``
seconds, and a layer stops with the layer whose output it needs.  The
JSON records every time, where and why each layer stopped, a digest of
each result (so two checkouts can be seen to agree), the seeds, the
machine and the Python version.  Results are merged into ``--out`` under
``--label``, so the same file can hold two checkouts.

Standard library only; nothing here is part of the test suite.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ALPHABET = ("a", "b")
SEED = 7
CUTOFFS = (2, 4)
TABLE_BASES = ("Q2", "M3")
TABLE_MAX_N = 800
REPEATS = 3
M3_GRID = [0, 1, 2, float("inf")]  # element i is the distance M3_GRID[i]
PROBE_ITERATIONS = 100_000
NOMINAL_PROBE_S = 0.007  # the probe's median on perfbench's baseline machine
RELATION_LAYERS = ("validate_vcategory", "largest_bisimulation", "largest_simulation")
WITNESS_LAYERS = ("quotient", "cospan_witness", "span_witness")
AUTOMATON_LAYERS = (
    ("import_aut", "path_homs", "vcategory") + RELATION_LAYERS + WITNESS_LAYERS
    + ("report", "bisimilar_cli")
)
TABLE_LAYERS = ("free_vcategory",) + RELATION_LAYERS
SIEVE_LAYERS = ("free_vcategory",)
FAN_LAYERS = ("cts_refine",)
COB_LAYERS = ("apply_cob",)
FAN_VERTICES = 12
# the layer whose output each layer consumes; table layers read the input
NEEDS = {
    "vcategory": "path_homs",
    "validate_vcategory": "vcategory",
    "largest_bisimulation": "vcategory",
    "largest_simulation": "vcategory",
    "quotient": "largest_bisimulation",
    "cospan_witness": "largest_bisimulation",
    "span_witness": "vcategory",
    "report": "largest_bisimulation",
}


def random_automaton(rng: random.Random, n: int) -> list[tuple[int, str, int]]:
    """Two transitions per state, each with a random letter and target."""
    return [(s, rng.choice(ALPHABET), rng.randrange(n)) for s in range(n) for _ in range(2)]


def shuffled(rng: random.Random, n: int, trans: list[tuple[int, str, int]]) -> list:
    """The automaton with its states other than 0, the initial one, renumbered at random."""
    perm = [0] + rng.sample(range(1, n), n - 1)
    return [(perm[s], label, perm[t]) for s, label, t in trans]


def aut_text(n: int, trans: list[tuple[int, str, int]]) -> str:
    lines = [f"des (0, {len(trans)}, {n})"]
    lines += [f'({s}, "{label}", {t})' for s, label, t in trans]
    return "\n".join(lines) + "\n"


def random_graph(base_name: str, rng: random.Random, n: int) -> list[list[tuple[int, int]]]:
    """Two out-edges per vertex, as (target, weight); every weight is 1
    over Q2, and 1, 1 or 2 over M3, where it is also the edge's label."""
    weights = (1,) if base_name == "Q2" else (1, 1, 2)
    return [[(rng.randrange(n), rng.choice(weights)) for _ in range(2)] for _ in range(n)]


def closed_table(base_name: str, out: list[list[tuple[int, int]]]) -> list[list[int]]:
    """A 2-out graph closed into its hom table, as element indices.

    Q2: 1 where the target is reachable, else 0 (bottom).  M3: the index
    of the least distance, 3 (infinity) beyond distance 2; every edge
    weight is at least 1, so two steps reach everything within 2.
    """
    n = len(out)
    table = []
    for s in range(n):
        if base_name == "Q2":
            seen, stack = {s}, [s]
            while stack:
                for t, _ in out[stack.pop()]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            table.append([int(t in seen) for t in range(n)])
            continue
        dist = {s: 0}
        for t, w in out[s]:
            dist[t] = min(dist.get(t, 3), w)
        for t, w in [(t2, w2) for t, d in list(dist.items()) if d == 1 for t2, w2 in out[t]]:
            dist[t] = min(dist.get(t, 3), 1 + w)
        table.append([dist.get(t, 3) for t in range(n)])
    return table


def random_spec(rng: random.Random, n: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Types in T2 and two out-edges per vertex, as (target, apex) with
    the apex drawn up to both end types."""
    types = [rng.randrange(2) for _ in range(n)]
    out = []
    for s in range(n):
        row = []
        for _ in range(2):
            t = rng.randrange(n)
            row.append((t, rng.randint(0, min(types[s], types[t]))))
        out.append(row)
    return types, out


def widest_table(types: list[int], out: list[list[tuple[int, int]]]) -> list[list[int]]:
    """The widest-path closure of the apexes, -1 where no path exists.

    ``table[s][t]`` is the largest m such that some path of at least one
    edge leads from s to t through edges of apex at least m, found by a
    search from s for each m, largest first; the diagonal is at least
    the vertex's own type, its identity sieve.
    """
    n = len(out)
    table = []
    for s in range(n):
        row = [-1] * n
        for m in range(max(types, default=0), -1, -1):
            seen, stack = set(), [s]
            while stack:
                for t, apex in out[stack.pop()]:
                    if apex >= m and t not in seen:
                        seen.add(t)
                        stack.append(t)
            for t in seen:
                row[t] = max(row[t], m)
        row[s] = max(row[s], types[s])
        table.append(row)
    return table


def speed_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def run_layers(layers, sizes: list[int], cap: float, prepare) -> dict:
    """Time ``layers`` at each size.  ``prepare(n)`` returns each layer's
    step, as a function of the outputs so far; the untimed inputs those
    outputs start from; a label; and what to call, if anything, after
    the size is done."""
    out = {
        name: {"seconds": {}, "raw_seconds": {}, "runs": {}, "probes": {}, "digest": {},
               "stopped": None}
        for name in layers
    }
    for n in sizes:
        if all(layer["stopped"] for layer in out.values()):
            break
        steps, outputs, label, cleanup = prepare(n)
        for name in layers:
            layer = out[name]
            if layer["stopped"] is not None:
                continue
            need = NEEDS.get(name)
            if need is not None and need not in outputs:
                layer["stopped"] = {"n": n, "why": f"needs {need}, which stopped"}
                continue
            runs, probes, scaled = [], [], []
            for _ in range(REPEATS):
                result = None  # drop the previous run's result before collecting
                gc.collect()
                before = speed_probe()
                start = time.perf_counter()
                result = steps[name](outputs)
                runs.append(time.perf_counter() - start)
                probes.append([before, speed_probe()])
                scaled.append(runs[-1] * NOMINAL_PROBE_S / statistics.mean(probes[-1]))
            raw = statistics.median(runs)
            seconds = statistics.median(scaled)
            outputs[name] = result
            layer["seconds"][str(n)] = round(seconds, 6)
            layer["raw_seconds"][str(n)] = round(raw, 6)
            layer["runs"][str(n)] = [round(r, 6) for r in runs]
            layer["probes"][str(n)] = [[round(p, 6) for p in pair] for pair in probes]
            # on a copy, so that no pairs or trace built lazily stay on the output
            layer["digest"][str(n)] = digest(name, copy.copy(result))
            if seconds > cap:
                layer["stopped"] = {"n": n, "why": f"median {seconds:.3f} s, over the cap"}
            print(f"{label} n={n} {name}: {seconds:.4f} s (raw {raw:.4f} s)", file=sys.stderr,
                  flush=True)
        if cleanup is not None:
            cleanup()
        del outputs  # drop this size's tables before drawing the next
    for layer in out.values():
        if layer["stopped"] is None:
            layer["stopped"] = {"n": None, "why": "ran every size"}
    return out


def relation_steps() -> dict:
    """The layers both families share, on the enrichment ``vcategory``."""
    from enrbisim.bisim import largest_bisimulation
    from enrbisim.simulation import largest_simulation
    from enrbisim.vcat import validate_vcategory

    return {
        "validate_vcategory": lambda o: validate_vcategory(o["vcategory"]),
        "largest_bisimulation": lambda o: largest_bisimulation(o["vcategory"], o["vcategory"]),
        "largest_simulation": lambda o: largest_simulation(o["vcategory"], o["vcategory"]),
    }


def measure_automata(k: int, sizes: list[int], cap: float, workdir: Path, src: Path) -> dict:
    from enrbisim.bisim import _relation_details
    from enrbisim.cli import Report
    from enrbisim.language import build_language_quantale, import_aut
    from enrbisim.vcat import VCategory
    from enrbisim.witness import BisimEquivalence, cospan_witness, is_od, quotient, span_witness

    base = build_language_quantale(ALPHABET, k)

    def fresh(o):
        """The relation, without what an earlier reader built lazily on it."""
        return copy.copy(o["largest_bisimulation"])
    env = dict(os.environ, PYTHONPATH=str(src))

    def prepare(n):
        rng = random.Random(f"{SEED}:{k}:{n}")
        trans = random_automaton(rng, n)
        path, twin = workdir / f"a{n}.aut", workdir / f"b{n}.aut"
        path.write_text(aut_text(n, trans))
        twin.write_text(aut_text(n, shuffled(rng, n, trans)))
        request = [
            sys.executable, "-m", "enrbisim", "--paths", str(path), "--paths", str(twin),
            "--aut-alphabet", ",".join(ALPHABET), "--aut-k", str(k),
            "bisimilar", "--a", path.stem, "--b", twin.stem,
        ]
        children: list[subprocess.CompletedProcess] = []

        def bisimilar_cli(o):
            children.append(subprocess.run(request, env=env, capture_output=True, text=True))
            return children[-1]

        edges = [(s, t, frozenset({(label,)})) for s, label, t in trans]
        names = [f"s{i}" for i in range(n)]
        steps = {
            "import_aut": lambda o: import_aut(path, ALPHABET, k),
            "path_homs": lambda o: base.path_homs(n, edges),
            "vcategory": lambda o: VCategory(base, names, [0] * n, o["path_homs"]),
            **relation_steps(),
            "quotient": lambda o: quotient(
                o["vcategory"], BisimEquivalence(o["vcategory"], classes(fresh(o)))
            ),
            "cospan_witness": lambda o: cospan_witness(o["vcategory"], o["vcategory"], fresh(o)),
            "span_witness": lambda o: span_witness(o["vcategory"], o["vcategory"]),
            "report": lambda o: Report("bisimilar", "yes", _relation_details(fresh(o))).to_json(),
            "bisimilar_cli": bisimilar_cli,
        }
        outputs: dict = {}

        def check():
            path.unlink()
            twin.unlink()
            for child in children:
                if child.returncode != 0 or json.loads(child.stdout)["verdict"] != "yes":
                    raise SystemExit(f"k={k} n={n}: bisimilar exited {child.returncode}, not 0 "
                                     f"with verdict yes: {child.stderr[-500:]}")
            for name in ("cospan_witness", "span_witness"):
                if not all(map(is_od, outputs.get(name, ()))):
                    raise SystemExit(f"k={k} n={n}: a {name} leg is not is_od")

        return steps, outputs, f"k={k}", check

    return run_layers(AUTOMATON_LAYERS, sizes, cap, prepare)


def measure_tables(base_name: str, sizes: list[int], cap: float) -> dict:
    from enrbisim.tables import build_boolean_quantale, build_metric_quantale
    from enrbisim.vcat import EnrichedGraph, VCategory, free_vcategory

    base = build_boolean_quantale() if base_name == "Q2" else build_metric_quantale(M3_GRID)

    def prepare(n):
        out = random_graph(base_name, random.Random(f"{SEED}:{base_name}:{n}"), n)
        names = [f"x{i}" for i in range(n)]
        # the input, built untimed, stands where the automata's constructor output does
        table = closed_table(base_name, out)
        cat = VCategory(base, names, [0] * n, [dict(enumerate(row)) for row in table])
        # a weight is its M3 element's index, and Q2's top is 1
        graph = EnrichedGraph(
            [(x, 0) for x in names], [(s, t, w) for s, row in enumerate(out) for t, w in row]
        )
        outputs = {"vcategory": cat}
        steps = {
            "free_vcategory": lambda o: free_vcategory(base, graph),
            **relation_steps(),
        }

        def check():
            free = outputs.get("free_vcategory")
            if free is not None and cells(free) != table:
                raise SystemExit(f"{base_name} n={n}: free_vcategory differs from the closed table")

        return steps, outputs, base_name, check

    return run_layers(TABLE_LAYERS, [n for n in sizes if n <= TABLE_MAX_N], cap, prepare)


def measure_sieves(sizes: list[int], cap: float) -> dict:
    from enrbisim.cts import FiniteCategory, Span, build_S_quantaloid
    from enrbisim.vcat import EnrichedGraph, free_vcategory

    cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
    base = build_S_quantaloid(cat)

    def sieve(s_type, t_type, apex):
        (left,) = cat.hom_morphisms(apex, s_type)
        (right,) = cat.hom_morphisms(apex, t_type)
        return base.down_close(s_type, t_type, [Span(apex, left, right)])

    def prepare(n):
        types, out = random_spec(random.Random(f"{SEED}:S(T2):{n}"), n)
        graph = EnrichedGraph(
            [(f"v{i}", types[i]) for i in range(n)],
            [(s, t, sieve(types[s], types[t], apex)) for s, row in enumerate(out) for t, apex in row],
        )
        outputs: dict = {}

        def check():
            free = outputs.get("free_vcategory")
            if free is None:
                return
            apexes = [[max((span.apex for span in hom), default=-1) for hom in row] for row in cells(free)]
            if apexes != widest_table(types, out):
                raise SystemExit(f"S(T2) n={n}: free_vcategory differs from the widest-path closure")

        return {"free_vcategory": lambda o: free_vcategory(base, graph)}, outputs, "S(T2)", check

    return run_layers(SIEVE_LAYERS, [n for n in sizes if n <= TABLE_MAX_N], cap, prepare)


def fan_poset(atoms: int):
    """The fan poset on a bottom ``b``, ``atoms`` atoms ``a<i>`` and a top ``t``."""
    from enrbisim.cts import FiniteCategory

    names = ["b"] + [f"a{i}" for i in range(atoms)] + ["t"]
    top = len(names) - 1
    leq = [(i, i) for i in range(len(names))] + [(0, i) for i in range(1, len(names))]
    return FiniteCategory.poset(names, leq + [(i, top) for i in range(1, top)])


def measure_fans(atom_counts: list[int], cap: float) -> dict:
    from enrbisim import cts
    from enrbisim.ctsrefine import CatFunctor, refine

    def prepare(atoms):
        cat = fan_poset(atoms)
        top = cat.n_objects - 1
        fun = CatFunctor(cat, cat, list(range(cat.n_objects)), list(range(len(cat.morphisms))))

        def span(i):
            apex = 1 + i % atoms
            (up,) = cat.hom_morphisms(apex, top)
            return cts.Span(apex, up, up)

        spec = cts.CtsSpec([(f"v{i}", top) for i in range(FAN_VERTICES)],
                           [(i, (i + 1) % FAN_VERTICES, span(i)) for i in range(FAN_VERTICES)])

        def cts_refine(o):
            source, target = cts.build_S_quantaloid(cat), cts.build_S_quantaloid(cat)
            built = cts.cts_to_vcat(source, spec)
            return built, refine(fun, built, source, target)

        outputs: dict = {}

        def check():
            if "cts_refine" in outputs:
                built, refined = outputs["cts_refine"]
                if cells(built) != cells(refined):
                    raise SystemExit(f"fan of {atoms} atoms: refining along the identity "
                                     "changed a hom")

        return {"cts_refine": cts_refine}, outputs, f"fan({atoms})", check

    return run_layers(FAN_LAYERS, atom_counts, cap, prepare)


def measure_cob(sizes: list[int], cap: float) -> dict:
    from enrbisim import cob
    from enrbisim.cobdocs import identity_tse
    from enrbisim.language import build_language_quantale
    from enrbisim.vcat import VCategory

    base = build_language_quantale(ALPHABET, 2)
    span = identity_tse(base)

    def prepare(n):
        trans = random_automaton(random.Random(f"{SEED}:cob:{n}"), n)
        edges = [(s, t, frozenset({(label,)})) for s, label, t in trans]
        a = VCategory(base, [f"s{i}" for i in range(n)], [0] * n, base.path_homs(n, edges))
        outputs: dict = {}

        def check():
            out = outputs.get("apply_cob")
            if out is not None and [dict(m) for m in out.row_maps] != [dict(m) for m in a.row_maps]:
                raise SystemExit(f"n={n}: changing base along the identity changed a hom")

        return {"apply_cob": lambda o: cob.apply_cob(span, a)}, outputs, "QL(a,b,2)", check

    return run_layers(COB_LAYERS, sizes, cap, prepare)


def measure_load(sizes: list[int], workdir: Path) -> dict:
    """The ``load`` layer: ``import_aut`` timed, then run again under ``tracemalloc``,
    which reads its peak and, with the enrichment still referenced, what it holds."""
    from enrbisim.language import import_aut

    out: dict = {"k": 2, "seconds": {}, "raw_seconds": {}, "probes": {}, "peak_mb": {},
                 "peak_growth": {}, "held_mb": {}, "digest": {}}
    for n in sizes:
        path = workdir / f"load{n}.aut"
        path.write_text(aut_text(n, random_automaton(random.Random(f"{SEED}:load:{n}"), n)))
        gc.collect()
        before = speed_probe()
        start = time.perf_counter()
        cat = import_aut(path, ALPHABET, 2)
        raw = time.perf_counter() - start
        probes = [before, speed_probe()]
        out["digest"][str(n)] = digest("import_aut", cat)
        cat = None
        gc.collect()
        tracemalloc.start()
        cat = import_aut(path, ALPHABET, 2)
        held, peak = (size / 2**20 for size in tracemalloc.get_traced_memory())
        tracemalloc.stop()
        cat = None
        path.unlink()
        out["seconds"][str(n)] = round(raw * NOMINAL_PROBE_S / statistics.mean(probes), 4)
        out["raw_seconds"][str(n)] = round(raw, 4)
        out["probes"][str(n)] = [round(p, 6) for p in probes]
        out["peak_mb"][str(n)] = round(peak, 1)
        out["held_mb"][str(n)] = round(held, 1)
        print(f"load n={n}: {raw:.2f} s, tracemalloc peak {peak:.1f} MB, held {held:.1f} MB",
              file=sys.stderr, flush=True)
    for smaller, larger in zip(sizes, sizes[1:]):
        growth = out["peak_mb"][str(larger)] / out["peak_mb"][str(smaller)]
        out["peak_growth"][f"{smaller}->{larger}"] = round(growth, 2)
    return out


def classes(r) -> list[list[int]]:
    """The classes of an equivalence relation, from its pairs: each
    object joins the class of its least partner."""
    least: dict = {}
    for x, y in sorted(r.pairs):
        least.setdefault(x, y)
    groups: dict = {}
    for x, y in least.items():
        groups.setdefault(y, []).append(x)
    return list(groups.values())


def cells(cat) -> list[list]:
    """An enrichment's hom table, read cell by cell through ``hom``."""
    return [[cat.hom(i, j) for j in range(cat.n_objects)] for i in range(cat.n_objects)]


def digest(name: str, result):
    """What two correct checkouts must agree on: the number of words in
    an automaton's hom table; the number of non-bottom homs of a free
    enrichment and a hash of its table, each sieve sorted so that equal
    sets hash alike; the number of objects of a quotient and a hash of
    its rows and map; the number of objects of a cospan's middle or a
    span's apex and a hash of the legs' maps; and a hash of the
    violations or of the related pairs and refinement trace; and a whole
    request's exit code and a hash of its report; and the length and a
    hash of a report's text."""
    if name == "path_homs":
        return sum(len(x) for row in result for x in row.values())
    if name in ("import_aut", "vcategory"):
        return sum(len(x) for row in result.row_maps for x in row.values())
    if name == "free_vcategory":
        table = [[sorted(x) if isinstance(x, frozenset) else x for x in row] for row in cells(result)]
        size, text = sum(map(len, result.row_maps)), repr(table)
    elif name == "quotient":
        quo, q = result
        rows = [[(j, sorted(x)) for j, x in row.items()] for row in quo.row_maps]
        size, text = quo.n_objects, repr((rows, q.mapping))
    elif name in ("cospan_witness", "span_witness"):
        f, g = result
        middle = f.target if name == "cospan_witness" else f.source
        size, text = middle.n_objects, repr((f.mapping, g.mapping))
    elif name == "validate_vcategory":
        size, text = len(result), repr(result)
    elif name == "bisimilar_cli":
        size, text = result.returncode, result.stdout
    elif name == "report":
        size, text = len(result), result
    elif name == "cts_refine":
        refined = result[1]
        table = [[sorted(x) for x in row] for row in cells(refined)]
        size, text = sum(map(len, refined.row_maps)), repr(table)
    elif name == "apply_cob":
        rows = [sorted((j, sorted(x)) for j, x in row.items()) for row in result.row_maps]
        size, text = sum(map(len, result.row_maps)), repr(rows)
    else:
        size, text = len(result), repr((sorted(result.pairs), result.refinement_trace))
    return f"{size}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "system": f"{platform.system()} {platform.machine()}",
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the enrbisim package to measure")
    parser.add_argument("--label", default="change", help="key of this run in --out")
    parser.add_argument("--out", required=True, help="JSON file to merge the run into")
    parser.add_argument("--sizes", type=int, nargs="*", default=[100, 200, 400, 800, 1600],
                        help="sizes of the automata, table and sieve layers (none: skip them)")
    parser.add_argument("--load-sizes", type=int, nargs="*", default=[],
                        help="sizes of the load layer (default: none)")
    parser.add_argument("--fan-atoms", type=int, nargs="*", default=[],
                        help="atom counts of the fan posets of the cts_refine layer (default: none)")
    parser.add_argument("--cob-sizes", type=int, nargs="*", default=[],
                        help="automaton sizes of the apply_cob layer (default: none)")
    parser.add_argument("--cap", type=float, default=2.0,
                        help="seconds after which a layer stops growing n")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    run = {
        "machine": machine(),
        "seed": SEED,
        "seed_rule": "each input draws from random.Random('<seed>:<k>:<n>') "
        "(automata), random.Random('<seed>:<base>:<n>') (tables), "
        "random.Random('<seed>:S(T2):<n>') (sieves), random.Random('<seed>:load:<n>') (load) "
        "or random.Random('<seed>:cob:<n>') (apply_cob); the fan posets draw nothing",
        "sizes": args.sizes,
        "cap_s": args.cap,
        "repeats": REPEATS,
        "table_max_n": TABLE_MAX_N,
        "speed_probe": {
            "iterations": PROBE_ITERATIONS,
            "nominal_s": NOMINAL_PROBE_S,
            "rule": "seconds = median over the runs of run * nominal_s / mean of the "
            "probes before and after it",
        },
        "k": {},
        "tables": {},
        "sieves": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for k in CUTOFFS if args.sizes else ():
            run["k"][str(k)] = measure_automata(k, args.sizes, args.cap, Path(tmp), src)
        if args.load_sizes:
            run["load_sizes"] = args.load_sizes
            run["load"] = measure_load(args.load_sizes, Path(tmp))
    for base_name in TABLE_BASES if args.sizes else ():
        run["tables"][base_name] = measure_tables(base_name, args.sizes, args.cap)
    if args.sizes:
        run["sieves"]["S(T2)"] = measure_sieves(args.sizes, args.cap)
    if args.fan_atoms:
        run["fan_atoms"] = args.fan_atoms
        run["fans"] = measure_fans(args.fan_atoms, args.cap)
    if args.cob_sizes:
        run["cob_sizes"] = args.cob_sizes
        run["cob"] = measure_cob(args.cob_sizes, args.cap)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("harness", "bench/scale.py")
    doc["inputs"] = (
        "seeded 2-out automata over {a,b}, free enrichments over QL({a,b},k), and larger ones "
        "over QL({a,b},2) for the load layer; "
        "seeded 2-out graphs closed into Q2 and M3 hom tables, and their free enrichments; "
        "seeded 2-out span specifications over T2 and their free enrichments over S(T2); "
        "12-vertex rings over fan posets, refined along the identity; "
        "free enrichments of seeded 2-out automata over QL({a,b},2), changed along the identity span"
    )
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
