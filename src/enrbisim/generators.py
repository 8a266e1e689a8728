"""Seeded random generators for enrichments, functors and axiom suites.

Everything here drives the randomized law checks: random free
enrichments, random surjective functional bisimulations (built as
covers and quotients, which are such maps by construction), and one
case runner per axiom of the surjective-functional-bisimulation class.
All sampling goes through an explicit ``random.Random`` so runs are
reproducible from the seed.  The terminal enrichment and coproducts,
which the fold and sum axioms build on, live here too.
"""

from __future__ import annotations

import random
from typing import Callable

from .bisim import SimRelation, largest_bisimulation
from .errors import BaseMismatch, ParseError, SizeLimit
from .quantaloid import Quantaloid
from .vcat import EnrichedGraph, VCategory, free_vcategory
from .checks import equivalence_closure, is_bisimulation
from .witness import BisimEquivalence, VFunctor, is_od, pullback, quotient


def terminal(base: Quantaloid) -> VCategory:
    """One point per base object, with the top element as every hom."""
    n = base.n_objects
    names = [f"*{base.objects[u]}" for u in range(n)]
    homs = [{v: base.hom(u, v).top for v in range(n)} for u in range(n)]
    return VCategory(base, names, list(range(n)), homs)


def to_terminal(a: VCategory, one: VCategory) -> VFunctor:
    """The unique extent-determined map into the terminal enrichment."""
    return VFunctor(a, one, [a.extents[i] for i in range(a.n_objects)])


def coproduct(parts: list[VCategory]) -> tuple[VCategory, list[VFunctor]]:
    """Disjoint union; homs across different summands are bottom."""
    if not parts:
        raise ValueError("coproduct needs at least one summand (may be empty)")
    base = parts[0].base
    for p in parts[1:]:
        if p.base is not base:
            raise BaseMismatch("summands live over different bases")
    names, extents, homs = [], [], []
    for idx, p in enumerate(parts):
        offset = len(names)
        for i in range(p.n_objects):
            names.append(f"{p.objects[i]}#{idx}")
            extents.append(p.extents[i])
            homs.append({offset + j: x for j, x in p.row_maps[i].items()})
    total = VCategory(base, names, extents, homs)
    injections = []
    offset = 0
    for p in parts:
        injections.append(
            VFunctor(p, total, list(range(offset, offset + p.n_objects)))
        )
        offset += p.n_objects
    return total, injections


def random_vcategory(
    base: Quantaloid,
    rng: random.Random,
    max_objects: int = 3,
    density: float = 0.6,
    prefix: str = "x",
) -> VCategory:
    """A free enrichment on a random labelled graph (always valid)."""
    n = rng.randint(1, max_objects)
    extents = [rng.randrange(base.n_objects) for _ in range(n)]
    vertices = [(f"{prefix}{i}", extents[i]) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                edges.append((i, j, base.hom(extents[i], extents[j]).sample(rng)))
    return free_vcategory(base, EnrichedGraph(vertices, edges))


def random_sub_bisimulation(a: VCategory, rng: random.Random) -> SimRelation:
    """A bisimulation on ``a`` containing the diagonal (diagonal fallback)."""
    diag = set(SimRelation.diagonal(a).pairs)
    pool = sorted(largest_bisimulation(a, a).pairs)
    for _ in range(8):
        chosen = {p for p in pool if rng.random() < 0.5} | diag
        rel = SimRelation(a, a, chosen)
        if is_bisimulation(rel):
            return rel
    return SimRelation(a, a, diag)


def random_bisim_equivalence(a: VCategory, rng: random.Random) -> BisimEquivalence:
    return equivalence_closure(random_sub_bisimulation(a, rng))


def random_quotient_od(base: Quantaloid, rng: random.Random) -> VFunctor:
    """A quotient map, surjective functional bisimulation by construction."""
    a = random_vcategory(base, rng)
    _, q = quotient(a, random_bisim_equivalence(a, rng))
    return q


def cover_od(c: VCategory, multiplicities: list[int]) -> VFunctor:
    """Replicate each object; all homs copy the base category's.

    The projection is a surjective functional bisimulation: the join of
    identical copies of a hom is that hom.
    """
    names, extents, mapping = [], [], []
    copies: list[list[int]] = [[] for _ in range(c.n_objects)]
    for i in range(c.n_objects):
        for copy in range(multiplicities[i]):
            copies[i].append(len(names))
            names.append(f"{c.objects[i]}~{copy}")
            extents.append(c.extents[i])
            mapping.append(i)
    homs = [{y: h for j, h in c.row_maps[i].items() for y in copies[j]} for i in mapping]
    a = VCategory(c.base, names, extents, homs)
    return VFunctor(a, c, mapping)


def random_cover_od(base: Quantaloid, rng: random.Random) -> VFunctor:
    c = random_vcategory(base, rng)
    return cover_od(c, [rng.randint(1, 2) for _ in range(c.n_objects)])


def random_od_map(base: Quantaloid, rng: random.Random) -> VFunctor:
    if rng.random() < 0.5:
        return random_cover_od(base, rng)
    return random_quotient_od(base, rng)


def random_functor_into(c: VCategory, rng: random.Random) -> VFunctor:
    """A random functor into ``c`` from one to three objects ``y0``, ``y1``,
    ...: free on labels bounded by c's homs."""
    base = c.base
    n = rng.randint(1, 3)
    m = [rng.randrange(c.n_objects) for _ in range(n)]
    vertices = [(f"y{i}", c.extents[m[i]]) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.5:
                lat = base.hom(c.extents[m[i]], c.extents[m[j]])
                label = lat.meet([lat.sample(rng), c.hom(m[i], m[j])])
                edges.append((i, j, label))
    a = free_vcategory(base, EnrichedGraph(vertices, edges))
    return VFunctor(a, c, m)


def coproduct_of_functors(fs: list[VFunctor]) -> VFunctor:
    """The sum of a family of functors between the summed enrichments."""
    total_a, _ = coproduct([f.source for f in fs])
    total_b, _ = coproduct([f.target for f in fs])
    mapping = []
    offset = 0
    for f in fs:
        mapping.extend(offset + f(i) for i in range(f.source.n_objects))
        offset += f.target.n_objects
    return VFunctor(total_a, total_b, mapping)


def _check(condition: bool, message: str) -> str | None:
    return None if condition else message


def axiom_a1(base: Quantaloid, rng: random.Random) -> str | None:
    """Isomorphisms are in the class and the class composes."""
    f = random_od_map(base, rng)
    perm = list(range(f.target.n_objects))
    rng.shuffle(perm)
    iso_target = VCategory(
        base,
        [f.target.objects[perm.index(i)] + "'" for i in range(len(perm))],
        [f.target.extents[perm.index(i)] for i in range(len(perm))],
        [
            {perm[j]: h for j, h in f.target.row_maps[perm.index(i)].items()}
            for i in range(len(perm))
        ],
    )
    iso = VFunctor(f.target, iso_target, perm)
    if not is_od(iso):
        return "an isomorphism is not in the class"
    return _check(is_od(f.then(iso)), "a composite of class members left the class")


def axiom_a2(base: Quantaloid, rng: random.Random) -> str | None:
    """Pulling back a class member along any functor stays in the class."""
    g = random_od_map(base, rng)
    f = random_functor_into(g.target, rng)
    _, to_a, _ = pullback(f, g)
    return _check(is_od(to_a), "a pullback of a class member left the class")


def axiom_a3(base: Quantaloid, rng: random.Random) -> str | None:
    """Descent along surjections whose homs are jointly covering."""
    f = random_od_map(base, rng)  # surjective, and its homs jointly cover
    c = f.target
    if rng.random() < 0.5:
        g = cover_od(c, [rng.randint(1, 2) for _ in range(c.n_objects)])
    else:
        g = random_functor_into(c, rng)
    _, to_a, _ = pullback(f, g)
    if is_od(to_a) and not is_od(g):
        return "descent failed: pulled-back member in the class, original not"
    return None


def axiom_a4(base: Quantaloid, rng: random.Random) -> str | None:
    """The fold of finitely many terminals onto the terminal is in the class."""
    one = terminal(base)
    n = rng.randint(1, 4)
    total, _ = coproduct([one] * n)
    fold = to_terminal(total, one)
    return _check(is_od(fold), "the fold of terminals is not in the class")


def axiom_a5(base: Quantaloid, rng: random.Random) -> str | None:
    """Finite sums of class members are in the class."""
    fs = [random_od_map(base, rng) for _ in range(rng.randint(1, 3))]
    return _check(is_od(coproduct_of_functors(fs)), "a sum of class members left the class")


def axiom_a6(base: Quantaloid, rng: random.Random) -> str | None:
    """If a composite through a surjection is in the class, so is the tail."""
    a = random_vcategory(base, rng)
    r1 = random_sub_bisimulation(a, rng)
    r2 = random_sub_bisimulation(a, rng)
    e1 = equivalence_closure(r1)
    e2 = equivalence_closure(r1.union(r2))
    q1_cat, p = quotient(a, e1)
    q2_cat, g = quotient(a, e2)
    f = VFunctor(q1_cat, q2_cat, [e2.block_of[block[0]] for block in e1.blocks])
    if g.mapping != p.then(f).mapping:
        return "factorisation through the finer quotient went wrong"
    if not p.is_surjective() or not is_od(g):
        return "case construction failed its own hypotheses"
    return _check(is_od(f), "the induced tail map is not in the class")


# Most cases of each axiom one ``axioms`` run may ask for
MAX_CASES = 1 << 13

AXIOMS: dict[str, Callable[[Quantaloid, random.Random], str | None]] = {
    "A1": axiom_a1,
    "A2": axiom_a2,
    "A3": axiom_a3,
    "A4": axiom_a4,
    "A5": axiom_a5,
    "A6": axiom_a6,
}


def parse_suite(spec: str) -> list[str]:
    """The axioms a ``--suite`` spec names: a range ``A1..A6`` or a comma list."""
    names = sorted(AXIOMS)
    ends = [part.strip() for part in spec.split("..")]
    if len(ends) == 2 and set(ends) <= set(names):
        suite = names[names.index(ends[0]) : names.index(ends[1]) + 1]
    else:
        suite = [part.strip() for part in spec.split(",") if part.strip()]
    if not suite or len(ends) > 2 or not set(suite) <= set(names):
        raise ParseError(f"bad axiom suite {spec!r}; axioms are {', '.join(names)}")
    return suite


def run_axiom_suite(
    names: list[str], base: Quantaloid, seed: int, cases: int
) -> dict[str, list[str]]:
    """Run the named axiom checks; returns violations per axiom."""
    out: dict[str, list[str]] = {}
    for name in names:
        axiom = AXIOMS[name]
        rng = random.Random(f"{seed}:{name}")
        failures = []
        for case in range(cases):
            message = axiom(base, rng)
            if message is not None:
                failures.append(f"case {case}: {message}")
        out[name] = failures
    return out


def cmd_axioms(bundle, flags) -> tuple[str, dict]:
    """The ``axioms`` command: the suite's cases on a loaded base."""
    base = bundle.get(flags.base, Quantaloid)
    suite = parse_suite(flags.suite)
    if flags.cases < 1:
        raise ParseError(f"--cases must be at least 1, not {flags.cases}")
    if flags.cases > MAX_CASES:
        raise SizeLimit(f"--cases {flags.cases} is more than the cap {MAX_CASES}")
    outcome = run_axiom_suite(suite, base, flags.seed, flags.cases)
    failures = {name: msgs for name, msgs in outcome.items() if msgs}
    return "yes" if not failures else "no", {
        "base": flags.base,
        "cases_per_axiom": flags.cases,
        "seed": flags.seed,
        "passed": {name: flags.cases - len(msgs) for name, msgs in outcome.items()},
        "failures": failures,
    }
