"""Acceptance suite: one test per criterion, each printing a verdict line.

Every criterion is oracle- or property-based and exact; there are no
tolerances to tune.  Randomness is always drawn from seeded generators
so the whole suite is reproducible.
"""

import itertools
import random

import pytest

from enrbisim.bisim import (
    SimRelation,
    bisimilar,
    cospan_witness,
    is_od,
    is_simulation,
    largest_bisimulation,
    largest_simulation,
    quotient,
    span_witness,
)
from enrbisim.cob import (
    apply_cob,
    identity_tse,
    local_right_adjoints,
    monoid_congruence_tse,
    monoid_morphism_pairs,
    right_adjoint_cob,
)
from enrbisim.constructions import (
    apply_cob_vfunctor,
    decode_slice,
    encode_slice,
    enumerate_vfunctors,
    slice_change,
    slice_quantaloid,
    transpose_to_left,
    transpose_to_right,
)
from enrbisim.cts import (
    CatFunctor,
    CtsSpec,
    FiniteCategory,
    Span,
    build_S_quantaloid,
    crible_change_tse,
    cts_to_vcat,
    identity_span,
    refine,
)
from enrbisim.errors import NotLocallyDistributive
from enrbisim.fixtures import aut1, loop1, p01, penta, point, q2, ql
from enrbisim.generators import (
    cover_od,
    random_bisim_equivalence,
    random_od_map,
    random_vcategory,
    run_axiom_suite,
)
from enrbisim.quantaloid import build_language_quantale, build_metric_quantale, validate_quantaloid
from enrbisim.vcat import (
    EnrichedGraph,
    VCategory,
    VFunctor,
    free_vcategory,
    pullback,
    validate_vcategory,
)

INF = float("inf")


def verdict(number, ok, summary):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {number} failed: {summary}"


# ---------------------------------------------------------------------------
# shared random pair pool (criterion 1 builds it; 2 and 3 reuse it)


@pytest.fixture(scope="module")
def bases():
    return {"Q2": q2(), "QL": ql(), "M3": build_metric_quantale([0, 1, 2, INF])}


@pytest.fixture(scope="module")
def pair_pool(bases):
    rng = random.Random(2024)
    pool = []
    counts = {"Q2": 67, "QL": 67, "M3": 66}
    for key, count in counts.items():
        base = bases[key]
        for _ in range(count):
            a = random_vcategory(base, rng, max_objects=3, prefix="a")
            b = random_vcategory(base, rng, max_objects=3, prefix="b")
            pool.append((key, a, b))
    return pool


def exhaustive_largest(a, b):
    """Union of all subsets passing the direct checks (both flavours)."""
    full = sorted(SimRelation.full(a, b).pairs)
    best_sim, best_bis = set(), set()
    for r in range(len(full) + 1):
        for subset in itertools.combinations(full, r):
            rel = SimRelation(a, b, subset)
            if is_simulation(rel):
                best_sim |= set(subset)
                if is_simulation(rel.inverse()):
                    best_bis |= set(subset)
    return frozenset(best_sim), frozenset(best_bis)


def test_criterion_1_oracle_equivalence(pair_pool):
    bad = 0
    for _, a, b in pair_pool:
        want_sim, want_bis = exhaustive_largest(a, b)
        if largest_simulation(a, b).pairs != want_sim:
            bad += 1
        elif largest_bisimulation(a, b).pairs != want_bis:
            bad += 1
    verdict(1, bad == 0, f"gfp equals exhaustive union on {len(pair_pool)} pairs")


def test_criterion_2_bisimilarity_iff_cospan(pair_pool, bases):
    checked = 0
    ok = True
    for _, a, b in pair_pool:
        rel = largest_bisimulation(a, b)
        if not (rel.total_on_left() and rel.total_on_right()):
            continue
        checked += 1
        f, g = cospan_witness(a, b, rel)
        if not (is_od(f) and is_od(g) and f.target is g.target):
            ok = False
    rng = random.Random(77)
    for i in range(100):
        base = bases[("Q2", "QL", "M3")[i % 3]]
        c = random_vcategory(base, rng, max_objects=3, prefix="c")
        left = cover_od(c, [rng.randint(1, 2) for _ in range(c.n_objects)])
        right = cover_od(c, [rng.randint(1, 2) for _ in range(c.n_objects)])
        if not (is_od(left) and is_od(right) and bisimilar(left.source, right.source)):
            ok = False
    verdict(
        2,
        ok and checked > 0,
        f"cospans for {checked} bisimilar pairs; 100 cospans imply bisimilarity",
    )


def test_criterion_3_span_under_distributivity(pair_pool):
    checked = 0
    ok = True
    for key, a, b in pair_pool:
        if key not in ("Q2", "QL"):
            continue
        rel = largest_bisimulation(a, b)
        if not (rel.total_on_left() and rel.total_on_right()):
            continue
        checked += 1
        to_a, to_b = span_witness(a, b)
        if not (is_od(to_a) and is_od(to_b)):
            ok = False
    base = penta()
    one = VCategory(base, ["x"], [0], [{0: 1}])
    try:
        span_witness(one, one)
        gate = False
    except NotLocallyDistributive:
        gate = True
    verdict(
        3,
        ok and gate and checked > 0,
        f"spans for {checked} bisimilar pairs; pentagon base rejected",
    )


def test_criterion_4_axiom_suite(bases):
    failures = {}
    for key in ("Q2", "QL"):
        outcome = run_axiom_suite(
            ["A1", "A2", "A3", "A4", "A5", "A6"], bases[key], seed=7, cases=200
        )
        for axiom, msgs in outcome.items():
            if msgs:
                failures[f"{key}:{axiom}"] = msgs[:3]
    verdict(4, not failures, f"6 axioms x 2 bases x 200 cases; failures={failures}")


def test_criterion_5_quotient_soundness(bases):
    rng = random.Random(55)
    ok = True
    for i in range(100):
        base = bases[("Q2", "QL", "M3")[i % 3]]
        a = random_vcategory(base, rng, max_objects=3)
        e = random_bisim_equivalence(a, rng)
        quo, qmap = quotient(a, e)
        if not is_od(qmap) or validate_vcategory(quo):
            ok = False
        # re-verify representative independence explicitly
        for bi, block_i in enumerate(e.blocks):
            for bj, block_j in enumerate(e.blocks):
                lat = quo.hom_lattice(bi, bj)
                values = {
                    lat.join(a.hom(rep, b2) for b2 in block_j) for rep in block_i
                }
                if len(values) != 1:
                    ok = False
    verdict(5, ok, "100 random quotients are in the class and well defined")


# ---------------------------------------------------------------------------
# criterion 6: change-of-base adjunction on fixture spans


def _bijection_ok(tse, a, b):
    changed = apply_cob(tse, a)
    adjoint_side = right_adjoint_cob(tse, b)
    left = enumerate_vfunctors(changed, b)
    right = enumerate_vfunctors(a, adjoint_side)
    if len(left) != len(right):
        return False
    for g in left:
        mate = transpose_to_right(tse, a, changed, adjoint_side, g)
        if transpose_to_left(tse, changed, b, adjoint_side, mate).mapping != g.mapping:
            return False
    for h in right:
        mate = transpose_to_left(tse, changed, b, adjoint_side, h)
        if transpose_to_right(tse, a, changed, adjoint_side, mate).mapping != h.mapping:
            return False
    return True


def _small_vcats_over_ql(base, letter):
    """All enrichments over a one-letter language base with <= 2 objects."""
    hom = base.hom(0, 0)
    singles = [
        VCategory(base, ["x"], [0], [{0: value}])
        for value in hom.elements()
        if not validate_vcategory(VCategory(base, ["x"], [0], [{0: value}]))
    ]
    elements = list(hom.elements())
    doubles = []
    for diag1, diag2, off1, off2 in itertools.product(elements, repeat=4):
        cand = VCategory(base, ["x", "y"], [0, 0], [{0: diag1, 1: off1}, {0: off2, 1: diag2}])
        if not validate_vcategory(cand):
            doubles.append(cand)
    return singles, doubles


def test_criterion_6_change_of_base_adjunction():
    qlm = ql()
    qln = ql(("n",), 2)
    qlab = build_language_quantale(("a", "b"), 2)
    ok = True

    ident = identity_tse(qlm)
    for a in (aut1(qlm), loop1(qlm)):
        for b in (aut1(qlm), loop1(qlm)):
            ok = ok and _bijection_ok(ident, a, b)

    relabel = monoid_congruence_tse(
        qlm, qln, monoid_morphism_pairs({"m": ("n",)}, qlm, qln)
    )
    for a in (aut1(qlm), loop1(qlm)):
        for b in (aut1(qln, letter="n"), loop1(qln, letter="n")):
            ok = ok and _bijection_ok(relabel, a, b)

    collapse = monoid_congruence_tse(
        qlab, qln, monoid_morphism_pairs({"a": ("n",), "b": ("n",)}, qlab, qln)
    )
    two_up = free_vcategory(
        qlab,
        EnrichedGraph(
            [("x", 0), ("y", 0), ("z", 0)],
            [(0, 1, frozenset({("a",)})), (1, 2, frozenset({("b",)}))],
        ),
    )
    for a in (two_up, aut1(qlab, letter="a")):
        for b in (aut1(qln, letter="n"), loop1(qln, letter="n")):
            ok = ok and _bijection_ok(collapse, a, b)

    base2 = q2()
    a_pre, pt = p01(base2), point(base2)
    f = VFunctor(a_pre, pt, [0, 0])
    va, vb = slice_quantaloid(a_pre), slice_quantaloid(pt)
    slice_tse = slice_change(f, va, vb)
    slice_sources = [
        encode_slice(va, g)
        for x in (point(base2), p01(base2))
        for g in enumerate_vfunctors(x, a_pre)
    ]
    slice_targets = [
        encode_slice(vb, h)
        for y in (point(base2), p01(base2))
        for h in enumerate_vfunctors(y, pt)
    ]
    for a in slice_sources[:3]:
        for b in slice_targets[:3]:
            ok = ok and _bijection_ok(slice_tse, a, b)

    verdict(6, ok, "hom-set bijections and mutually inverse transpositions")


def test_criterion_7_od_preservation():
    qlm = ql()
    qln = ql(("n",), 2)
    base2 = q2()
    a_pre, pt = p01(base2), point(base2)
    va, vb = slice_quantaloid(a_pre), slice_quantaloid(pt)
    fixture_tses = [
        ("identity", identity_tse(qlm), qlm),
        (
            "relabel",
            monoid_congruence_tse(
                qlm, qln, monoid_morphism_pairs({"m": ("n",)}, qlm, qln)
            ),
            qlm,
        ),
        ("slice", slice_change(VFunctor(a_pre, pt, [0, 0]), va, vb), va),
        ("boolean-identity", identity_tse(base2), base2),
    ]
    rng = random.Random(99)
    ok = True
    for name, tse, source_base in fixture_tses:
        if not local_right_adjoints(tse).coherent:
            ok = False
            continue
        for _ in range(25):
            f = random_od_map(source_base, rng)
            new_src = apply_cob(tse, f.source)
            new_tgt = apply_cob(tse, f.target)
            moved = apply_cob_vfunctor(tse, f, new_src, new_tgt)
            if not is_od(moved):
                ok = False
    verdict(7, ok, "4 spans x 25 random class members stay in the class")


# ---------------------------------------------------------------------------
# criterion 8: classical automata cross-check


def random_automaton(rng, max_states=6, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    transitions = []
    for s in range(n):
        for letter in alphabet:
            if rng.random() < 0.5:
                transitions.append((s, letter, rng.randrange(n)))
            if rng.random() < 0.1:
                transitions.append((s, letter, rng.randrange(n)))
    return n, sorted(set(transitions))


def duplicate_automaton(auto, rng):
    """Split states into bisimilar copies (the full lift of transitions)."""
    n, transitions = auto
    mult = [rng.randint(1, 2) for _ in range(n)]
    index = {}
    for s in range(n):
        for j in range(mult[s]):
            index[(s, j)] = len(index)
    new_trans = []
    for s, letter, d in transitions:
        for j in range(mult[s]):
            for j2 in range(mult[d]):
                new_trans.append((index[(s, j)], letter, index[(d, j2)]))
    return len(index), sorted(set(new_trans))


def classical_strong_bisimilar(auto1, auto2, alphabet):
    """Partition refinement on the disjoint union, then totality both ways.

    Independent oracle: no enrichment machinery involved.
    """
    n1, t1 = auto1
    n2, t2 = auto2
    total = n1 + n2
    succ = {(s, letter): set() for s in range(total) for letter in alphabet}
    for s, letter, d in t1:
        succ[(s, letter)].add(d)
    for s, letter, d in t2:
        succ[(n1 + s, letter)].add(n1 + d)
    block_of = [0] * total
    while True:
        signatures = {}
        refined = []
        for s in range(total):
            sig = (
                block_of[s],
                frozenset(
                    (letter, block_of[d])
                    for letter in alphabet
                    for d in succ[(s, letter)]
                ),
            )
            refined.append(signatures.setdefault(sig, len(signatures)))
        if refined == block_of:
            break
        block_of = refined
    blocks1 = {block_of[s] for s in range(n1)}
    blocks2 = {block_of[n1 + s] for s in range(n2)}
    return blocks1 == blocks2


def automaton_to_enrichment(base, auto, prefix):
    n, transitions = auto
    return free_vcategory(
        base,
        EnrichedGraph(
            vertices=[(f"{prefix}{i}", 0) for i in range(n)],
            edges=[(s, t, frozenset({(letter,)})) for s, letter, t in transitions],
        ),
    )


def test_criterion_8_classical_cross_check():
    rng = random.Random(808)
    alphabet = ("a", "b")
    disagreements = 0
    agreements = 0
    for case in range(50):
        if case % 2 == 0:
            auto1 = random_automaton(rng)
            auto2 = random_automaton(rng)
        else:
            auto1 = random_automaton(rng, max_states=3)
            auto2 = duplicate_automaton(auto1, rng)
        k = 2 * max(auto1[0], auto2[0])
        base = build_language_quantale(alphabet, k)
        a = automaton_to_enrichment(base, auto1, "p")
        b = automaton_to_enrichment(base, auto2, "q")
        enriched = bisimilar(a, b)
        classical = classical_strong_bisimilar(auto1, auto2, alphabet)
        if enriched != classical:
            disagreements += 1
        elif classical:
            agreements += 1
    verdict(
        8,
        disagreements == 0 and agreements > 0,
        f"50 automaton pairs agree with partition refinement "
        f"({agreements} bisimilar cases)",
    )


def test_criterion_9_slice_correspondence():
    base2 = q2()
    qlm = ql()
    cases = []

    a_pre, pt = p01(base2), point(base2)
    q2_singles = [VCategory(base2, ["x"], [0], [{0: 1}])]
    q2_doubles = [
        VCategory(base2, ["x", "y"], [0, 0], [{0: 1, 1: off1}, {0: off2, 1: 1}])
        for off1 in (0, 1)
        for off2 in (0, 1)
    ]
    cases.append((a_pre, pt, VFunctor(a_pre, pt, [0, 0]), q2_singles + q2_doubles))

    a_aut = aut1(qlm)
    b_loop = loop1(qlm)
    singles, doubles = _small_vcats_over_ql(qlm, "m")
    cases.append(
        (a_aut, b_loop, VFunctor(a_aut, b_loop, [0, 0]), singles + doubles)
    )

    ok = True
    for a, b, f, stock in cases:
        va, vb = slice_quantaloid(a), slice_quantaloid(b)
        tse = slice_change(f, va, vb)
        for x in stock:
            for g in enumerate_vfunctors(x, a):
                s = encode_slice(va, g)
                back = decode_slice(va, s)
                if back.mapping != g.mapping or back.source.row_maps != x.row_maps:
                    ok = False
                moved = apply_cob(tse, s)
                direct = encode_slice(vb, g.then(f))
                if moved.extents != direct.extents or moved.row_maps != direct.row_maps:
                    ok = False
        for y in stock:
            for h in enumerate_vfunctors(y, b):
                t = encode_slice(vb, h)
                lifted = right_adjoint_cob(tse, t)
                _, _, to_a = pullback(h, f)
                encoded = encode_slice(va, to_a)
                if lifted.extents != encoded.extents or lifted.row_maps != encoded.row_maps:
                    ok = False
    verdict(9, ok, "round-trips, post-composition and pullback agree on slices")


def test_criterion_10_cts_refinement():
    t2 = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
    t3 = FiniteCategory.poset(
        ["0", "1", "2"], [(i, j) for i in range(3) for j in range(3) if i <= j]
    )
    sq2, sq3 = build_S_quantaloid(t2), build_S_quantaloid(t3)
    ok = validate_quantaloid(sq2).ok and validate_quantaloid(sq3).ok

    obj_map = [0, 1]
    mor_map = [
        t3.morphism_index(
            f"{t3.objects[obj_map[m.src]]}<={t3.objects[obj_map[m.tgt]]}"
        )
        for m in t2.morphisms
    ]
    incl = CatFunctor(t2, t3, obj_map, mor_map)
    ok = ok and incl.validate() == []

    up = t2.morphism_index("0<=1")
    edge = Span(0, t2.identities[0], up)
    big = cts_to_vcat(
        sq2,
        CtsSpec(
            vertices=[("s", 0), ("t", 1), ("t2", 1)],
            edges=[(0, 1, edge), (0, 2, edge), (1, 2, identity_span(t2, 1))],
        ),
    )
    small = cts_to_vcat(
        sq2, CtsSpec(vertices=[("s", 0), ("t", 1)], edges=[(0, 1, edge)])
    )
    f = VFunctor(big, small, [0, 1, 1])
    ok = ok and is_od(f)

    tse = crible_change_tse(incl, sq2, sq3)
    refined_big = refine(incl, big, sq2, sq3)
    refined_small = refine(incl, small, sq2, sq3)
    moved = apply_cob_vfunctor(tse, f, refined_big, refined_small)
    ok = ok and is_od(moved)
    ok = ok and validate_vcategory(refined_big) == []
    verdict(10, ok, "sieve bases validate; refinement keeps the map in the class")
