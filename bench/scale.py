"""Layer timings of enrbisim on growing automata, in one process.

Usage (from the root of a checkout):

    python3 bench/scale.py --label change --out bench/BENCH_scale_7.json
    python3 bench/scale.py --src OTHER/src --label parent --out bench/BENCH_scale_7.json
    python3 bench/scale.py --sizes 100 --cap 1 --out /tmp/scale.json   # smoke run

Inputs are seeded 2-out automata over {a,b}, read as free enrichments
over the truncated language quantale QL({a,b},k) for k = 2 and k = 4.
For each k the sizes grow in the order given, and each layer is timed
once per size:

- ``import_aut``: parse an Aldebaran file, build and validate its free
  enrichment (``documents.import_aut``);
- ``path_homs``: the free construction's hom table alone;
- ``vcategory``: the ``VCategory`` constructor on that table;
- ``validate_vcategory``: the unit and composition laws;
- ``largest_bisimulation`` and ``largest_simulation``: the automaton
  against itself.

A layer stops growing n after the first size at which it takes longer
than ``--cap`` seconds, and a layer stops with the layer whose output it
needs.  The JSON records every time, where and why each layer stopped,
a digest of each result (so two checkouts can be seen to agree), the
seeds, the machine and the Python version.  Results are merged into
``--out`` under ``--label``, so the same file can hold two checkouts.

Standard library only; nothing here is part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

ALPHABET = ("a", "b")
SEED = 7
CUTOFFS = (2, 4)
LAYERS = (
    "import_aut",
    "path_homs",
    "vcategory",
    "validate_vcategory",
    "largest_bisimulation",
    "largest_simulation",
)
# the layer whose output each layer consumes
NEEDS = {
    "vcategory": "path_homs",
    "validate_vcategory": "vcategory",
    "largest_bisimulation": "vcategory",
    "largest_simulation": "vcategory",
}


def random_automaton(rng: random.Random, n: int) -> list[tuple[int, str, int]]:
    """Two transitions per state, each with a random letter and target."""
    return [(s, rng.choice(ALPHABET), rng.randrange(n)) for s in range(n) for _ in range(2)]


def aut_text(n: int, trans: list[tuple[int, str, int]]) -> str:
    lines = [f"des (0, {len(trans)}, {n})"]
    lines += [f'({s}, "{label}", {t})' for s, label, t in trans]
    return "\n".join(lines) + "\n"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def measure(k: int, sizes: list[int], cap: float, workdir: Path) -> dict:
    from enrbisim import bisim, documents
    from enrbisim.quantaloid import build_language_quantale
    from enrbisim.vcat import VCategory, validate_vcategory

    base = build_language_quantale(ALPHABET, k)
    layers = {name: {"seconds": {}, "digest": {}, "stopped": None} for name in LAYERS}
    for n in sizes:
        if all(layer["stopped"] for layer in layers.values()):
            break
        trans = random_automaton(random.Random(f"{SEED}:{k}:{n}"), n)
        path = workdir / f"a{n}.aut"
        path.write_text(aut_text(n, trans))
        edges = [(s, t, frozenset({(label,)})) for s, label, t in trans]
        names = [f"s{i}" for i in range(n)]
        outputs = {}
        steps = {
            "import_aut": lambda: documents.import_aut(path, ALPHABET, k),
            "path_homs": lambda: base.path_homs(n, edges),
            "vcategory": lambda: VCategory(base, names, [0] * n, outputs["path_homs"]),
            "validate_vcategory": lambda: validate_vcategory(outputs["vcategory"]),
            "largest_bisimulation": lambda: bisim.largest_bisimulation(
                outputs["vcategory"], outputs["vcategory"]
            ),
            "largest_simulation": lambda: bisim.largest_simulation(
                outputs["vcategory"], outputs["vcategory"]
            ),
        }
        for name in LAYERS:
            layer = layers[name]
            if layer["stopped"] is not None:
                continue
            need = NEEDS.get(name)
            if need is not None and need not in outputs:
                layer["stopped"] = {"n": n, "why": f"needs {need}, which stopped"}
                continue
            seconds, result = timed(steps[name])
            outputs[name] = result
            layer["seconds"][str(n)] = round(seconds, 6)
            layer["digest"][str(n)] = digest(name, result)
            if seconds > cap:
                layer["stopped"] = {"n": n, "why": f"took {seconds:.3f} s, over the cap"}
            print(f"k={k} n={n} {name}: {seconds:.4f} s", file=sys.stderr, flush=True)
        path.unlink()
        del outputs  # drop this size's tables before drawing the next
    for layer in layers.values():
        if layer["stopped"] is None:
            layer["stopped"] = {"n": None, "why": "ran every size"}
    return layers


def digest(name: str, result):
    """What two correct checkouts must agree on: the number of words in
    the hom table, of violations, or of related pairs."""
    if name == "path_homs":
        return sum(len(x) for row in result for x in row)
    if name in ("import_aut", "vcategory"):
        return sum(len(x) for row in result.homs for x in row)
    return len(result)


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
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400, 800, 1600])
    parser.add_argument("--cap", type=float, default=2.0,
                        help="seconds after which a layer stops growing n")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    run = {
        "machine": machine(),
        "seed": SEED,
        "seed_rule": "each automaton draws from random.Random('<seed>:<k>:<n>')",
        "sizes": args.sizes,
        "cap_s": args.cap,
        "k": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for k in CUTOFFS:
            run["k"][str(k)] = measure(k, args.sizes, args.cap, Path(tmp))

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("harness", "bench/scale.py")
    doc.setdefault("inputs", "seeded 2-out automata over {a,b}, free enrichments over QL({a,b},k)")
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
