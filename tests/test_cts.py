import itertools

import pytest

from enrbisim.bisim import is_od
from enrbisim.cob import local_right_adjoints
from enrbisim.constructions import CatAdjunction, apply_cob_vfunctor, crible_left_adjoints
from enrbisim.cts import (
    CatFunctor,
    CribleQuantaloid,
    CtsSpec,
    FiniteCategory,
    Morphism,
    Span,
    all_spans,
    build_S_quantaloid,
    crible_change_tse,
    crible_preimage_map,
    cts_to_vcat,
    identity_span,
    preserves_chosen_pullbacks,
    refine,
    span_compose,
    span_leq,
    validate_fincat,
)
from enrbisim.errors import AmbientMismatch, NotExact, TypeMismatch
from enrbisim.quantaloid import validate_quantaloid
from enrbisim.vcat import VFunctor, validate_vcategory, validate_vfunctor


@pytest.fixture(scope="module")
def poset2():
    return FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])


@pytest.fixture(scope="module")
def poset3():
    names = ["0", "1", "2"]
    leq = [(i, j) for i in range(3) for j in range(3) if i <= j]
    return FiniteCategory.poset(names, leq)


class TestFiniteCategory:
    def test_poset_with_meets_valid(self, poset2, poset3):
        assert validate_fincat(poset2) == []
        assert validate_fincat(poset3) == []

    def test_missing_associativity_triple(self):
        # (f.f).f lands on the identity while f.(f.f) lands on f
        mors = [Morphism("id", 0, 0), Morphism("f", 0, 0), Morphism("g", 0, 0)]
        cat = FiniteCategory(
            ["x"],
            mors,
            {
                (0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
                (1, 1): 2, (2, 1): 0, (1, 2): 1, (2, 2): 2,
            },
            [0],
        )
        report = validate_fincat(cat)
        assert any("associativity" in v for v in report)

    def test_wrong_chosen_pullback(self, poset2):
        # claim the apex of 1 x_1 1 is 0: the square commutes but the cone
        # from 1 has no mediator
        f = poset2.morphism_index("1<=1")
        bad = FiniteCategory(
            poset2.objects,
            poset2.morphisms,
            poset2.compose_table,
            poset2.identities,
            {(f, f): (poset2.morphism_index("0<=1"), poset2.morphism_index("0<=1"))},
        )
        report = validate_fincat(bad)
        assert any("not universal" in v for v in report)


class TestSpans:
    def test_identity_span_compose(self, poset2):
        s = Span(0, poset2.identities[0], poset2.morphism_index("0<=1"))
        out = span_compose(poset2, identity_span(poset2, 0), s)
        assert out.ambient(poset2) == s.ambient(poset2)
        assert span_leq(poset2, out, s) and span_leq(poset2, s, out)

    def test_meet_apex(self, poset2):
        up = poset2.morphism_index("0<=1")
        one = poset2.identities[1]
        s = Span(0, up, up)  # 1 <- 0 -> 1
        t = Span(1, one, one)  # 1 <- 1 -> 1
        assert span_compose(poset2, s, t).apex == 0

    def test_span_leq(self, poset2):
        up = poset2.morphism_index("0<=1")
        one = poset2.identities[1]
        small = Span(0, up, up)
        big = Span(1, one, one)
        assert span_leq(poset2, small, big)
        assert not span_leq(poset2, big, small)
        assert span_leq(poset2, small, small)

    def test_ambient_mismatch(self, poset2):
        up = poset2.morphism_index("0<=1")
        with pytest.raises(AmbientMismatch):
            span_leq(poset2, Span(0, up, up), identity_span(poset2, 0))

    def test_composition_associative_up_to_domination(self, poset3):
        spans = all_spans(poset3, 1, 1)
        for s in spans:
            for t in spans:
                for u in spans:
                    left = span_compose(poset3, span_compose(poset3, s, t), u)
                    right = span_compose(poset3, s, span_compose(poset3, t, u))
                    assert span_leq(poset3, left, right)
                    assert span_leq(poset3, right, left)


class TestSieveQuantaloid:
    def test_one_object_category(self):
        cat = FiniteCategory.poset(["x"], [(0, 0)])
        sq = build_S_quantaloid(cat)
        assert sq.hom(0, 0).size == 2  # empty sieve and the identity sieve
        assert validate_quantaloid(sq).ok

    def test_poset2_hom_chain(self, poset2):
        sq = build_S_quantaloid(poset2)
        # spans into (1,1): apexes 0 and 1; sieves form a 3-chain
        assert sq.hom(1, 1).size == 3
        assert validate_quantaloid(sq).ok

    def test_identity_sieve_tensor(self, poset2):
        sq = build_S_quantaloid(poset2)
        top_span = identity_span(poset2, 1)
        crible = sq.down_close(1, 1, [top_span])
        assert sq.compose(1, 1, 1, crible, crible) == crible

    def test_tensor_matches_pointwise_closure(self, poset3):
        sq = build_S_quantaloid(poset3)
        n = poset3.n_objects
        for x, y, z in itertools.product(range(n), repeat=3):
            for m in sq.hom(x, y).elements():
                for k in sq.hom(y, z).elements():
                    direct = sq.hom(x, z).down_close(
                        span_compose(poset3, s, t) for s in m for t in k
                    )
                    # the first call fills the cache, the second reads it
                    assert sq.compose(x, y, z, m, k) == direct
                    assert sq.compose(x, y, z, m, k) == direct

    def test_validate_whole_quantaloid_poset3(self, poset3):
        assert validate_quantaloid(build_S_quantaloid(poset3)).ok

    @pytest.mark.parametrize("length", [2, 3])
    def test_validation_report_unchanged_by_the_cache(self, length):
        cat = FiniteCategory.poset(
            [str(i) for i in range(length)],
            [(i, j) for i in range(length) for j in range(i, length)],
        )

        class Uncached(CribleQuantaloid):
            def compose(self, u, v, w, f, g):
                return self.down_close(u, w, {span_compose(self.cat, s, t) for s in f for t in g})

        cached = validate_quantaloid(build_S_quantaloid(cat))
        assert cached.ok and all(cached.hom_distributive.values())
        assert cached == validate_quantaloid(Uncached(cat))


class TestCtsToVcat:
    def test_edgeless_spec(self, poset2):
        sq = build_S_quantaloid(poset2)
        a = cts_to_vcat(sq, CtsSpec(vertices=[("s", 0), ("t", 1)], edges=[]))
        assert a.hom(0, 0) == sq.unit(0)
        assert a.hom(0, 1) == frozenset()
        assert validate_vcategory(a) == []

    def test_single_edge(self, poset2):
        sq = build_S_quantaloid(poset2)
        up = poset2.morphism_index("0<=1")
        edge = Span(0, poset2.identities[0], up)
        a = cts_to_vcat(
            sq, CtsSpec(vertices=[("s", 0), ("t", 1)], edges=[(0, 1, edge)])
        )
        assert a.hom(0, 1) == sq.down_close(0, 1, [edge])
        assert validate_vcategory(a) == []

    def test_loop_saturates(self, poset2):
        sq = build_S_quantaloid(poset2)
        one = poset2.identities[1]
        loop = Span(1, one, one)
        a = cts_to_vcat(sq, CtsSpec(vertices=[("s", 1)], edges=[(0, 0, loop)]))
        # the loop dominates the identity sieve, so the hom is the top sieve
        assert a.hom(0, 0) == sq.down_close(1, 1, [loop])
        assert validate_vcategory(a) == []

    def test_type_mismatch(self, poset2):
        sq = build_S_quantaloid(poset2)
        with pytest.raises(TypeMismatch):
            cts_to_vcat(
                sq,
                CtsSpec(
                    vertices=[("s", 0), ("t", 0)],
                    edges=[(0, 1, identity_span(poset2, 1))],
                ),
            )

    def test_disjoint_specs_give_coproduct(self, poset2):
        from enrbisim.generators import coproduct

        sq = build_S_quantaloid(poset2)
        spec1 = CtsSpec(vertices=[("s", 0)], edges=[(0, 0, identity_span(poset2, 0))])
        spec2 = CtsSpec(vertices=[("t", 1)], edges=[])
        joint = CtsSpec(
            vertices=spec1.vertices + spec2.vertices,
            edges=spec1.edges,
        )
        a_joint = cts_to_vcat(sq, joint)
        total, _ = coproduct([cts_to_vcat(sq, spec1), cts_to_vcat(sq, spec2)])
        assert a_joint.extents == total.extents
        assert a_joint.row_maps == total.row_maps


class TestRefine:
    def _inclusion(self, poset2, poset3):
        obj_map = [0, 1]
        mor_map = []
        for m in poset2.morphisms:
            mor_map.append(
                poset3.morphism_index(
                    f"{poset3.objects[obj_map[m.src]]}<={poset3.objects[obj_map[m.tgt]]}"
                )
            )
        fun = CatFunctor(poset2, poset3, obj_map, mor_map)
        assert fun.validate() == []
        return fun

    def test_identity_refinement(self, poset2):
        sq = build_S_quantaloid(poset2)
        fun = CatFunctor(
            poset2, poset2, [0, 1], list(range(len(poset2.morphisms)))
        )
        up = poset2.morphism_index("0<=1")
        a = cts_to_vcat(
            sq,
            CtsSpec(
                vertices=[("s", 0), ("t", 1)],
                edges=[(0, 1, Span(0, poset2.identities[0], up))],
            ),
        )
        out = refine(fun, a, sq, sq)
        assert out.n_objects == a.n_objects
        assert [out.hom(i, j) for i in range(2) for j in range(2)] == [
            a.hom(i, j) for i in range(2) for j in range(2)
        ]

    def test_inclusion_preserves_validity(self, poset2, poset3):
        fun = self._inclusion(poset2, poset3)
        assert preserves_chosen_pullbacks(fun) == []
        sq2, sq3 = build_S_quantaloid(poset2), build_S_quantaloid(poset3)
        up = poset2.morphism_index("0<=1")
        a = cts_to_vcat(
            sq2,
            CtsSpec(
                vertices=[("s", 0), ("t", 1), ("u", 1)],
                edges=[
                    (0, 1, Span(0, poset2.identities[0], up)),
                    (1, 2, identity_span(poset2, 1)),
                ],
            ),
        )
        out = refine(fun, a, sq2, sq3)
        assert validate_vcategory(out) == []
        # image sieves are down-closed in the larger span order
        for i in range(out.n_objects):
            for j in range(out.n_objects):
                crible = out.hom(i, j)
                assert sq3.hom(out.extents[i], out.extents[j]).has_element(crible)

    def test_adjoints_match_preimage_formula(self, poset2, poset3):
        fun = self._inclusion(poset2, poset3)
        sq2, sq3 = build_S_quantaloid(poset2), build_S_quantaloid(poset3)
        tse = crible_change_tse(fun, sq2, sq3)
        report = local_right_adjoints(tse, pointwise_only=True)
        for (x, y), adj in report.adjoints.items():
            predicted = crible_preimage_map(fun, sq2, sq3, x, y)
            assert adj.mapping == predicted.mapping

    def test_non_exact_functor_rejected(self):
        # diamond -> 2-chain collapsing the middle: the meet of the two
        # middle points drops to bottom but its image stays at the top
        diamond = FiniteCategory.poset(
            ["bot", "l", "r", "top"],
            [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
        )
        target = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        obj_map = [0, 1, 1, 1]
        mor_map = [
            target.morphism_index(
                f"{target.objects[obj_map[m.src]]}<={target.objects[obj_map[m.tgt]]}"
            )
            for m in diamond.morphisms
        ]
        fun = CatFunctor(diamond, target, obj_map, mor_map)
        assert fun.validate() == []
        assert preserves_chosen_pullbacks(fun)
        sqv, sqt = build_S_quantaloid(diamond), build_S_quantaloid(target)
        a = cts_to_vcat(sqv, CtsSpec(vertices=[("s", 3)], edges=[]))
        with pytest.raises(NotExact):
            refine(fun, a, sqv, sqt)

    def test_od_map_stays_od_after_refine(self, poset2, poset3):
        fun = self._inclusion(poset2, poset3)
        sq2, sq3 = build_S_quantaloid(poset2), build_S_quantaloid(poset3)
        up = poset2.morphism_index("0<=1")
        edge = Span(0, poset2.identities[0], up)
        big = cts_to_vcat(
            sq2,
            CtsSpec(
                vertices=[("s", 0), ("t", 1), ("t2", 1)],
                edges=[(0, 1, edge), (0, 2, edge)],
            ),
        )
        small = cts_to_vcat(
            sq2,
            CtsSpec(vertices=[("s", 0), ("t", 1)], edges=[(0, 1, edge)]),
        )
        f = VFunctor(big, small, [0, 1, 1])
        assert is_od(f)
        tse = crible_change_tse(fun, sq2, sq3)
        new_src = refine(fun, big, sq2, sq3)
        new_tgt = refine(fun, small, sq2, sq3)
        moved = apply_cob_vfunctor(tse, f, new_src, new_tgt)
        assert validate_vfunctor(moved) == []
        assert is_od(moved)


class TestAdjunction:
    def test_poset_adjunction_left_adjoints(self):
        # F : 2-chain -> 3-chain includes 0,2 ; G rounds down {0,1}->0, 2->1
        two = FiniteCategory.poset(["a", "b"], [(0, 0), (0, 1), (1, 1)])
        three = FiniteCategory.poset(
            ["0", "1", "2"], [(i, j) for i in range(3) for j in range(3) if i <= j]
        )
        f_obj = [0, 2]
        f_mor = []
        for m in two.morphisms:
            f_mor.append(
                three.morphism_index(
                    f"{three.objects[f_obj[m.src]]}<={three.objects[f_obj[m.tgt]]}"
                )
            )
        g_obj = [0, 0, 1]
        g_mor = []
        for m in three.morphisms:
            g_mor.append(
                two.morphism_index(
                    f"{two.objects[g_obj[m.src]]}<={two.objects[g_obj[m.tgt]]}"
                )
            )
        F = CatFunctor(two, three, f_obj, f_mor)
        G = CatFunctor(three, two, g_obj, g_mor)
        assert F.validate() == [] and G.validate() == []
        unit = [two.morphism_index(f"{two.objects[a]}<={two.objects[g_obj[f_obj[a]]]}") for a in range(2)]
        counit = [
            three.morphism_index(
                f"{three.objects[f_obj[g_obj[b]]]}<={three.objects[b]}"
            )
            for b in range(3)
        ]
        adj = CatAdjunction(F, G, unit, counit)
        assert adj.validate() == []
        sa, sb = build_S_quantaloid(two), build_S_quantaloid(three)
        lefts = crible_left_adjoints(adj, sa, sb)
        assert set(lefts) == {(x, y) for x in range(3) for y in range(3)}
