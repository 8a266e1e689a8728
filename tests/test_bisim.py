import itertools
import random

import pytest

from enrbisim.bisim import (
    BisimEquivalence,
    SimRelation,
    bisimilar,
    cospan_witness,
    equivalence_closure,
    is_bisimulation,
    is_functional_bisimulation,
    is_od,
    is_simulation,
    largest_bisimulation,
    largest_simulation,
    quotient,
    simulates,
    span_witness,
)
from enrbisim.errors import (
    ExtentMismatch,
    NotABisimulation,
    NotBisimilar,
    NotLocallyDistributive,
)
from enrbisim.fixtures import aut1, bp2, codisc2, loop1, m3, p01, penta, point, q2, ql, rel1
from enrbisim.generators import (
    cover_od,
    random_od_map,
    random_sub_bisimulation,
    random_vcategory,
    run_axiom_suite,
)
from enrbisim.constructions import isomorphic_by
from enrbisim.vcat import (
    EnrichedGraph,
    VCategory,
    VFunctor,
    free_vcategory,
    validate_vcategory,
    validate_vfunctor,
)


@pytest.fixture(scope="module")
def Q2():
    return q2()


@pytest.fixture(scope="module")
def QL():
    return ql()


def brute_force_largest(a, b, bisim=True):
    """Union of every subset of the full relation passing the direct check."""
    full = sorted(SimRelation.full(a, b).pairs)
    best = set()
    for r in range(len(full) + 1):
        for subset in itertools.combinations(full, r):
            rel = SimRelation(a, b, subset)
            ok = is_bisimulation(rel) if bisim else is_simulation(rel)
            if ok:
                best |= set(subset)
    return frozenset(best)


class TestSimulationChecks:
    def test_diagonal_is_bisimulation(self, QL):
        for a in (aut1(QL), loop1(QL)):
            assert is_bisimulation(SimRelation.diagonal(a))

    def test_aut1_into_loop1_forward(self, QL):
        r = SimRelation.from_names(aut1(QL), loop1(QL), [("a0", "b0"), ("a1", "b0")])
        assert is_simulation(r)

    def test_loop1_back_to_aut1_fails(self, QL):
        r = SimRelation.from_names(aut1(QL), loop1(QL), [("a0", "b0"), ("a1", "b0")])
        check = is_simulation(r.inverse())
        assert not check
        # the loop word mm cannot be matched from a0 or a1
        assert check.counterexample[0] == "b0"

    def test_bisimulation_needs_both_directions(self, QL):
        r = SimRelation.from_names(aut1(QL), loop1(QL), [("a0", "b0"), ("a1", "b0")])
        check = is_bisimulation(r)
        assert not check and check.direction == "backward"

    def test_p01_and_point_full_relation(self, Q2):
        a, p = p01(Q2), point(Q2)
        r = SimRelation.from_names(a, p, [("a0", "p"), ("a1", "p")])
        assert is_bisimulation(r)

    def test_extent_mismatch_rejected(self):
        base = penta()
        a = VCategory(base, ["x"], [0], [{0: 1}])
        b = VCategory(base, ["y"], [1], [{0: 1}])
        with pytest.raises(ExtentMismatch):
            SimRelation(a, b, [(0, 0)])


class TestLargestRelations:
    def test_single_point(self, Q2):
        p = point(Q2)
        assert largest_bisimulation(p, p).pairs == frozenset({(0, 0)})

    def test_aut1_loop1_empty(self, QL):
        a, b = aut1(QL), loop1(QL)
        got = largest_bisimulation(a, b)
        assert got.pairs == frozenset()
        assert got.pairs == brute_force_largest(a, b)

    def test_p01_point_full(self, Q2):
        a, p = p01(Q2), point(Q2)
        got = largest_bisimulation(a, p)
        assert got.pairs == frozenset({(0, 0), (1, 0)})
        assert got.pairs == brute_force_largest(a, p)

    def test_largest_simulation_oracle(self, QL):
        rng = random.Random(3)
        for _ in range(15):
            a = random_vcategory(QL, rng, max_objects=2)
            b = random_vcategory(QL, rng, max_objects=2)
            assert largest_simulation(a, b).pairs == brute_force_largest(
                a, b, bisim=False
            )

    def test_refinement_trace_records_rounds(self, QL):
        got = largest_bisimulation(aut1(QL), loop1(QL))
        assert {entry[0] for entry in got.refinement_trace} == {1}
        assert len(got.refinement_trace) == 2

    def test_post_fixpoint_soundness_and_maximality(self, Q2, QL):
        rng = random.Random(4)
        for base in (Q2, QL):
            for _ in range(10):
                a = random_vcategory(base, rng)
                b = random_vcategory(base, rng)
                best = largest_bisimulation(a, b)
                assert is_bisimulation(best)
                extra = set(SimRelation.full(a, b).pairs) - set(best.pairs)
                for pair in extra:
                    assert not is_bisimulation(
                        SimRelation(a, b, set(best.pairs) | {pair})
                    )


def random_table(base, rng, n, prefix):
    """An enrichment with random homs, most of them bottom.

    The engine and the oracle need no composition law, so the homs are
    drawn freely; that keeps large cases cheap to build.
    """
    extents = [rng.randrange(base.n_objects) for _ in range(n)]
    homs = []
    for u in extents:
        row = {}
        for j, v in enumerate(extents):
            lat = base.hom(u, v)
            row[j] = lat.bottom if rng.random() < 0.7 else lat.sample(rng)
        homs.append(row)
    return VCategory(base, [f"{prefix}{i}" for i in range(n)], extents, homs)


def covering_copy(a, rng, perturb):
    """One or two shuffled copies of each object, homs copied from ``a``;
    ``perturb`` redraws one hom, which may break bisimilarity."""
    origin = [i for i in range(a.n_objects) for _ in range(rng.randint(1, 2))]
    rng.shuffle(origin)
    homs = [{y: a.hom(i, j) for y, j in enumerate(origin)} for i in origin]
    if perturb:
        x, y = rng.randrange(len(origin)), rng.randrange(len(origin))
        homs[x][y] = a.hom_lattice(origin[x], origin[y]).sample(rng)
    names = [f"y{x}" for x in range(len(origin))]
    return VCategory(a.base, names, [a.extents[i] for i in origin], homs)


def aut_pair(rng, n, flip):
    """A random 2-out automaton over {a,b} and a copy with about a tenth
    of its states cloned (incoming transitions split between original and
    clone), renumbered; ``flip`` changes the label of one transition."""
    base = ql(("a", "b"), 2)
    trans = [(s, rng.choice("ab"), rng.randrange(n)) for s in range(n) for _ in range(2)]
    cloned = rng.sample(range(n), n // 10)
    clone_of = {c: n + i for i, c in enumerate(cloned)}
    copy = [
        (s, label, clone_of[t] if t in clone_of and rng.random() < 0.5 else t)
        for s, label, t in trans
    ]
    copy += [(clone_of[s], label, t) for s, label, t in copy if s in clone_of]
    if flip:
        i = rng.randrange(len(copy))
        s, label, t = copy[i]
        copy[i] = (s, "b" if label == "a" else "a", t)
    m = n + len(cloned)
    perm = list(range(m))
    rng.shuffle(perm)

    def free(size, edges, prefix):
        graph = EnrichedGraph(
            [(f"{prefix}{i}", 0) for i in range(size)],
            [(s, t, frozenset({(label,)})) for s, label, t in edges],
        )
        return free_vcategory(base, graph)

    return free(n, trans, "s"), free(m, [(perm[s], x, perm[t]) for s, x, t in copy], "t")


def sparse_violation(left, right, partners, a, b, joins):
    """``dense_violation`` on non-bottom homs alone: a bottom hom lies
    below any join and adds nothing to one."""
    map_b = right.row_maps[b]
    for ap, x, lat in left.rows[a]:
        if (ap, b) not in joins:
            joins[ap, b] = lat._join([map_b[bp] for bp in partners.get(ap, ()) if bp in map_b])
        if not lat._leq(x, joins[ap, b]):
            return ap
    return None


def _refine(left: VCategory, right: VCategory, bisim: bool, violation=sparse_violation):
    """Greatest fixed point of the refinement operator from the full
    extent-matching relation.  Relations passing the direct check are
    exactly the post-fixed points, so the result is their union.

    The test oracle for ``largest_simulation`` and, with ``bisim=True``,
    for ``largest_bisimulation``.  Each round drops every pair with a
    ``violation`` forward or, for a bisimulation, backward."""
    pairs = set(SimRelation.full(left, right).pairs)
    trace: list[tuple[int, str, str]] = []
    for round_no in itertools.count(1):
        partners, co_partners = {}, {}
        for a, b in pairs:
            partners.setdefault(a, []).append(b)
            co_partners.setdefault(b, []).append(a)
        joins, co_joins = {}, {}
        removed = [
            (a, b)
            for a, b in pairs
            if violation(left, right, partners, a, b, joins) is not None
            or bisim and violation(right, left, co_partners, b, a, co_joins) is not None
        ]
        if not removed:
            return SimRelation(left, right, pairs, trace=sorted(trace))
        pairs.difference_update(removed)
        trace += [(round_no, left.objects[a], right.objects[b]) for a, b in removed]


def assert_matches_oracle(a, b):
    got, want = largest_bisimulation(a, b), _refine(a, b, bisim=True)
    assert got.pairs == want.pairs
    assert got.refinement_trace == want.refinement_trace
    return got


ORACLE_BASES = {
    "Q2": q2, "M3": m3, "QL": lambda: ql(("a", "b"), 2), "REL1": rel1, "BP2": bp2, "PENTA": penta,
}


class TestSignatureRefinement:
    """The partition engine against the pairwise refinement it replaced."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_oracle_on_random_pairs(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"oracle:{name}")
        for n in (10, 20, 30, 40):
            a = random_table(base, rng, n, "x")
            assert_matches_oracle(a, covering_copy(a, rng, perturb=n % 20 == 0))
            assert_matches_oracle(a, random_table(base, rng, n // 2, "z"))
        a = random_table(base, rng, 25, "x")
        assert_matches_oracle(a, a)

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_oracle_on_automata(self, flip):
        a, b = aut_pair(random.Random(f"aut:{flip}"), 60, flip)
        got = assert_matches_oracle(a, b)
        assert got.refinement_trace
        assert (got.total_on_left() and got.total_on_right()) != flip

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_bisim_equivalence_accepts_engine_partitions(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"partition:{name}")
        merged = 0
        for _ in range(8):
            a = random_table(base, rng, rng.randint(5, 30), "x")
            pairs = largest_bisimulation(a, a).pairs
            blocks = {}  # least member -> block
            for i in range(a.n_objects):
                least = min(j for j in range(a.n_objects) if (i, j) in pairs)
                blocks.setdefault(least, []).append(i)
            e = BisimEquivalence(a, list(blocks.values()))
            assert is_bisimulation(e.as_relation())
            # merging two blocks of one extent joins non-bisimilar objects
            reps = sorted(blocks)
            for r1, r2 in itertools.combinations(reps, 2):
                if a.extents[r1] == a.extents[r2]:
                    rest = [blk for r, blk in blocks.items() if r not in (r1, r2)]
                    with pytest.raises(NotABisimulation):
                        BisimEquivalence(a, rest + [blocks[r1] + blocks[r2]])
                    merged += 1
                    break
        assert merged


def dense_violation(left, right, partners, a, b, joins):
    """Reference: the first left object a' whose hom from a is not below
    the join of b's homs into the partners of a', probing every a',
    bottom homs included.  ``joins`` caches those joins by (a', b)."""
    for ap in range(left.n_objects):
        lat = left.hom_lattice(a, ap)
        if (ap, b) not in joins:
            joins[ap, b] = lat._join([right.hom(b, bp) for bp in partners.get(ap, ())])
        if not lat._leq(left.hom(a, ap), joins[ap, b]):
            return ap
    return None


def dense_is_simulation(r):
    partners = {}
    for a, b in r.pairs:
        partners.setdefault(a, []).append(b)
    joins = {}
    for a, b in sorted(r.pairs):
        ap = dense_violation(r.left, r.right, partners, a, b, joins)
        if ap is not None:
            return r.left.objects[a], r.right.objects[b], r.left.objects[ap]
    return None


def assert_simulation_matches_dense(a, b, rng):
    """Compare the largest simulation, then ``is_simulation`` on it and on
    a random half of the full relation; return the relation and the
    number of counterexamples seen."""
    got, want = largest_simulation(a, b), _refine(a, b, False, dense_violation)
    assert (got.pairs, got.refinement_trace) == (want.pairs, want.refinement_trace)
    full = sorted(SimRelation.full(a, b).pairs)
    failed = 0
    for r in (got, SimRelation(a, b, rng.sample(full, len(full) // 2))):
        check = is_simulation(r)
        assert check.counterexample == dense_is_simulation(r)
        assert check.ok == (check.counterexample is None)
        failed += not check.ok
    return got, failed


def assert_simulation_matches_oracle(a, b):
    """Compare ``largest_simulation`` with the round-robin refinement,
    pairs and trace; return the last round that removed a pair."""
    got, want = largest_simulation(a, b), _refine(a, b, bisim=False)
    assert got.pairs == want.pairs
    assert got.refinement_trace == want.refinement_trace
    return max((r for r, _, _ in got.refinement_trace), default=0)


class TestSimulationEngine:
    """The round-synchronous engine against the round-robin refinement it
    replaced.  PENTA and BP2 have two base objects, so their tables mix
    extents."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_oracle_on_random_pairs(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"sim-oracle:{name}")
        rounds = []
        for n in (10, 20, 30, 40):
            a = random_table(base, rng, n, "x")
            for b in (covering_copy(a, rng, perturb=True), random_table(base, rng, n // 2, "z"), a):
                rounds.append(assert_simulation_matches_oracle(a, b))
        assert max(rounds) >= 3  # later rounds re-check only affected probes

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_oracle_on_automata(self, flip):
        a, b = aut_pair(random.Random(f"sim-aut:{flip}"), 60, flip)
        assert assert_simulation_matches_oracle(a, b) >= 1
        assert_simulation_matches_oracle(b, a)
        assert_simulation_matches_oracle(a, a)

    def test_extent_without_right_homs_fails_in_round_one(self):
        base = penta()
        n5 = base.hom(0, 1)
        # x0 has a hom into the v-object x1; y0 has none into extent v
        a = VCategory(base, ["x0", "x1"], [0, 1], [{0: 1, 1: n5.top}, {0: 0, 1: 1}])
        b = VCategory(base, ["y0", "y1"], [0, 1], [{0: 1, 1: n5.bottom}, {0: 0, 1: 1}])
        got = largest_simulation(a, b)
        assert got.pairs == {(1, 1)}
        assert got.refinement_trace == ((1, "x0", "y0"),)
        assert_simulation_matches_oracle(a, b)


class TestSimulationAgainstDenseProbes:
    """``is_simulation`` and ``largest_simulation`` probe only non-bottom
    homs; a reference that probes every object must give the same pairs,
    trace and counterexamples."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_matches_dense_reference_on_random_pairs(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"dense-sim:{name}")
        traced = failed = 0
        for n in (10, 20, 40):
            a = random_table(base, rng, n, "x")
            for b in (covering_copy(a, rng, perturb=n == 20), random_table(base, rng, n // 2, "z")):
                got, fails = assert_simulation_matches_dense(a, b, rng)
                traced += bool(got.refinement_trace)
                failed += fails
        assert traced and failed

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_dense_reference_on_automata(self, flip):
        rng = random.Random(f"dense-sim-aut:{flip}")
        a, b = aut_pair(rng, 60, flip)
        got, failed = assert_simulation_matches_dense(a, b, rng)
        assert got.refinement_trace and failed
        assert got.total_on_left() != flip


class TestSimilarity:
    def test_bisimilar_reflexive(self, QL):
        a = aut1(QL)
        assert bisimilar(a, a)

    def test_loop_simulates_aut_but_not_bisimilar(self, QL):
        a, b = aut1(QL), loop1(QL)
        assert simulates(a, b)
        assert not bisimilar(a, b)

    def test_p01_point_bisimilar(self, Q2):
        assert bisimilar(p01(Q2), point(Q2))


class TestFunctionalBisimulations:
    def test_identity(self, Q2):
        assert is_functional_bisimulation(VFunctor.identity(p01(Q2)))
        assert is_od(VFunctor.identity(p01(Q2)))

    def test_codiscrete_collapse(self, Q2):
        f = VFunctor(codisc2(Q2), point(Q2), [0, 0])
        assert is_functional_bisimulation(f)
        assert is_od(f)

    def test_embedding_is_functional_but_not_surjective(self, QL):
        a = aut1(QL)
        single = VCategory(QL, ["a1"], [0], [{0: frozenset({()})}])
        f = VFunctor(single, a, [1])
        assert is_functional_bisimulation(f)
        assert not is_od(f)

    def test_enlarged_target_hom_fails(self, QL):
        a = aut1(QL)
        bigger = VCategory(
            QL,
            ["a1"],
            [0],
            [{0: frozenset({(), ("m",)})}],
        )
        # map the single point to a1 whose self-hom in aut1 is only eps
        f = VFunctor(bigger, a, [1])
        assert not is_functional_bisimulation(f)

    def test_od_implies_bisimilar(self, Q2, QL):
        rng = random.Random(5)
        for base in (Q2, QL):
            for _ in range(10):
                f = random_od_map(base, rng)
                assert bisimilar(f.source, f.target)

    def test_split_epi_with_pointed_sections_is_od(self, Q2):
        c = p01(Q2)
        f = cover_od(c, [2, 1])
        a = f.source
        # every source object is hit by some hom-preserving section
        for i in range(a.n_objects):
            section = [
                s
                for s in itertools.product(range(a.n_objects), repeat=c.n_objects)
                if all(f(s[b]) == b for b in range(c.n_objects))
                and i in s
                and all(
                    c.hom(b1, b2) == a.hom(s[b1], s[b2])
                    for b1 in range(c.n_objects)
                    for b2 in range(c.n_objects)
                )
            ]
            assert section
        assert is_od(f)


class TestEquivalenceClosure:
    def test_diagonal_gives_discrete_partition(self, Q2):
        a = p01(Q2)
        e = equivalence_closure(SimRelation.diagonal(a))
        assert e.blocks == [[0], [1]]

    def test_single_symmetric_pair_merges_one_block(self, Q2):
        c = codisc2(Q2)
        r = SimRelation(c, c, {(0, 0), (1, 1), (0, 1), (1, 0)})
        e = equivalence_closure(r)
        assert e.blocks == [[0, 1]]

    def test_closure_of_full_codiscrete_is_bisimulation(self, Q2):
        c = codisc2(Q2)
        e = equivalence_closure(SimRelation.full(c, c))
        assert is_bisimulation(e.as_relation())

    def test_empty_block_rejected(self, Q2):
        with pytest.raises(ValueError, match="do not partition"):
            BisimEquivalence(p01(Q2), [[0, 1], []])

    def test_rejects_non_bisimulations(self, QL):
        a = aut1(QL)
        # the full relation on the two-state automaton is not a simulation
        with pytest.raises(NotABisimulation):
            equivalence_closure(SimRelation.full(a, a))


class TestQuotient:
    def test_discrete_quotient_is_isomorphism(self, QL):
        a = aut1(QL)
        e = equivalence_closure(SimRelation.diagonal(a))
        quo, qmap = quotient(a, e)
        assert isomorphic_by(a, quo, qmap.mapping)
        assert is_od(qmap)

    def test_codiscrete_collapses_to_point(self, Q2):
        c = codisc2(Q2)
        e = equivalence_closure(SimRelation.full(c, c))
        quo, qmap = quotient(c, e)
        assert quo.n_objects == 1
        assert quo.hom(0, 0) == 1
        assert is_od(qmap)

    def test_p01_full_quotient(self, Q2):
        a = p01(Q2)
        r = SimRelation.full(a, a)
        # the full relation on the preorder is a bisimulation here
        assert is_bisimulation(r)
        quo, qmap = quotient(a, equivalence_closure(r))
        assert quo.n_objects == 1
        assert quo.hom(0, 0) == 1
        assert is_od(qmap)

    def test_quotient_maps_always_od(self, Q2, QL):
        rng = random.Random(6)
        for base in (Q2, QL):
            for _ in range(10):
                a = random_vcategory(base, rng)
                rel = random_sub_bisimulation(a, rng)
                quo, qmap = quotient(a, equivalence_closure(rel))
                assert validate_vcategory(quo) == []
                assert is_od(qmap)


class TestCospan:
    def test_diagonal_gives_isomorphisms(self, QL):
        a = aut1(QL)
        f, g = cospan_witness(a, a, SimRelation.diagonal(a))
        assert isomorphic_by(a, f.target, f.mapping)
        assert f.mapping == g.mapping

    def test_p01_point_through_point(self, Q2):
        a, p = p01(Q2), point(Q2)
        r = SimRelation.full(a, p)
        f, g = cospan_witness(a, p, r)
        assert f.target.n_objects == 1
        assert is_od(f) and is_od(g)

    def test_two_copies_of_aut1(self, QL):
        a = aut1(QL)
        b = VCategory(QL, ["c0", "c1"], [0, 0], a.row_maps)
        r = SimRelation(a, b, {(0, 0), (1, 1)})
        f, g = cospan_witness(a, b, r)
        assert f.target.n_objects == 2
        assert is_od(f) and is_od(g)
        assert isomorphic_by(a, f.target, f.mapping)

    def test_requires_totality(self, QL):
        a = aut1(QL)
        partial = SimRelation(a, a, {(1, 1)})
        assert is_bisimulation(partial)
        with pytest.raises(NotBisimilar):
            cospan_witness(a, a, partial)

    def test_class_closed_non_bisimulation_rejected(self, QL):
        # both sides are single classes, so only the matched homs differ
        loop = loop1(QL)
        still = free_vcategory(QL, EnrichedGraph([("c0", 0)], []))
        r = SimRelation.full(loop, still)
        assert not is_bisimulation(r)
        with pytest.raises(NotABisimulation, match="different homs"):
            cospan_witness(loop, still, r)

    def test_class_closed_with_unstable_right_class_rejected(self, QL):
        # a's one class is stable; y0 loops and y1 is still, so b's leg fails
        loop = loop1(QL)
        b = free_vcategory(
            QL, EnrichedGraph([("y0", 0), ("y1", 0)], [(0, 0, frozenset({("m",)}))])
        )
        r = SimRelation.full(loop, b)
        assert not is_bisimulation(r)
        with pytest.raises(NotABisimulation, match="y1 and its linked class .* different homs"):
            cospan_witness(loop, b, r)

    def test_class_closed_with_non_bisimilar_class_rejected(self, QL):
        a, b = aut1(QL), loop1(QL)
        with pytest.raises(NotABisimulation):
            cospan_witness(a, b, SimRelation.full(a, b))

    def test_bisimulation_not_class_closed_accepted(self, Q2):
        a = VCategory(Q2, ["x0", "x1"], [0, 0], [{0: 1, 1: 0}, {0: 0, 1: 1}])
        b = VCategory(Q2, ["y0", "y1"], [0, 0], [{0: 1, 1: 0}, {0: 0, 1: 1}])
        r = SimRelation(a, b, {(0, 0), (0, 1), (1, 1)})
        assert is_bisimulation(r)
        f, g = cospan_witness(a, b, r)
        assert f.target.n_objects == 1
        assert is_od(f) and is_od(g)

    def test_non_bisimulation_not_class_closed_rejected(self, Q2):
        # its class closure, the full relation, is a bisimulation
        a = VCategory(Q2, ["x0", "x1"], [0, 0], [{0: 1, 1: 0}, {0: 0, 1: 1}])
        b = VCategory(Q2, ["y0", "y1"], [0, 0], [{0: 1, 1: 0}, {0: 1, 1: 1}])
        assert is_bisimulation(SimRelation.full(a, b))
        r = SimRelation(a, b, {(0, 0), (0, 1), (1, 1)})
        assert not is_bisimulation(r)
        with pytest.raises(NotABisimulation, match="relation fails at"):
            cospan_witness(a, b, r)

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_class_closed_verdicts_match_pairwise_check(self, name):
        """Merging two linked classes of the engine's relation keeps it
        class-closed; the witness must reject it exactly when the pairwise
        check does."""
        base = ORACLE_BASES[name]()
        rng = random.Random(f"cospan:{name}")
        rejected = 0
        for _ in range(12):
            a = random_table(base, rng, rng.randint(4, 16), "x")
            b = covering_copy(a, rng, perturb=False)
            r = largest_bisimulation(a, b)
            cospan_witness(a, b, r)
            classes = {}  # least left member -> (left block, right block)
            for x, y in sorted(r.pairs):
                lefts = {x2 for x2, y2 in r.pairs if y2 == y}
                rights = {y2 for x2, y2 in r.pairs if x2 == x}
                classes.setdefault(min(lefts), (lefts, rights))
            reps = [k for k in classes if a.extents[k] == a.extents[min(classes)]]
            if len(reps) < 2:
                continue
            (l1, r1), (l2, r2) = classes[reps[0]], classes[reps[1]]
            merged = SimRelation(
                a, b, set(r.pairs) | {(x, y) for x in l1 | l2 for y in r1 | r2}
            )
            if is_bisimulation(merged):
                cospan_witness(a, b, merged)
            else:
                with pytest.raises(NotABisimulation):
                    cospan_witness(a, b, merged)
                rejected += 1
        assert rejected


class TestSpan:
    def test_identity_case(self, Q2):
        a = p01(Q2)
        to_a, to_b = span_witness(a, a)
        assert is_od(to_a) and is_od(to_b)

    def test_p01_point(self, Q2):
        a, p = p01(Q2), point(Q2)
        to_a, to_b = span_witness(a, p)
        assert is_od(to_a) and is_od(to_b)
        assert validate_vfunctor(to_a) == [] and validate_vfunctor(to_b) == []

    def test_gate_rejects_pentagon_base(self):
        base = penta()
        a = VCategory(base, ["x"], [0], [{0: 1}])
        with pytest.raises(NotLocallyDistributive):
            span_witness(a, a)

    def test_not_bisimilar(self, QL):
        with pytest.raises(NotBisimilar):
            span_witness(aut1(QL), loop1(QL))


class TestRelationAlgebra:
    def test_compose_with_diagonal(self, QL):
        a, b = aut1(QL), loop1(QL)
        r = SimRelation.full(a, b)
        assert r.compose(SimRelation.diagonal(b)).pairs == r.pairs

    def test_double_inverse(self, QL):
        r = SimRelation.full(aut1(QL), loop1(QL))
        assert r.inverse().inverse().pairs == r.pairs

    def test_union_of_simulations_is_simulation(self, Q2, QL):
        rng = random.Random(8)
        for base in (Q2, QL):
            hits = 0
            while hits < 10:
                a = random_vcategory(base, rng)
                b = random_vcategory(base, rng)
                big = largest_simulation(a, b)
                r1 = SimRelation(a, b, {p for p in big.pairs if rng.random() < 0.6})
                r2 = SimRelation(a, b, {p for p in big.pairs if rng.random() < 0.6})
                if not (is_simulation(r1) and is_simulation(r2)):
                    continue
                hits += 1
                assert is_simulation(r1.union(r2))

    def test_composition_of_bisimulations(self, Q2):
        rng = random.Random(9)
        hits = 0
        while hits < 10:
            a = random_vcategory(Q2, rng)
            b = random_vcategory(Q2, rng)
            c = random_vcategory(Q2, rng)
            r = largest_bisimulation(a, b)
            s = largest_bisimulation(b, c)
            if not r.pairs or not s.pairs:
                continue
            hits += 1
            assert is_bisimulation(r.compose(s))

    def test_inverse_of_bisimulation_is_bisimulation(self, QL):
        rng = random.Random(10)
        for _ in range(10):
            a = random_vcategory(QL, rng)
            b = random_vcategory(QL, rng)
            r = largest_bisimulation(a, b)
            assert is_bisimulation(r.inverse())


class TestAxiomSuites:
    @pytest.mark.parametrize("axiom", ["A1", "A2", "A3", "A4", "A5", "A6"])
    def test_axiom_small_runs(self, axiom, Q2, QL):
        for base in (Q2, QL):
            failures = run_axiom_suite([axiom], base, seed=1, cases=25)[axiom]
            assert failures == []
