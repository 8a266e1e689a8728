import itertools
import random

import pytest

from enrbisim.bisim import is_od
from enrbisim.cob import (
    TwoSidedEnrichment,
    apply_cob,
    identity_tse,
    local_right_adjoints,
    monoid_congruence_tse,
    monoid_morphism_pairs,
    right_adjoint_cob,
    validate_tse,
)
from enrbisim.constructions import (
    CatenTwoCell,
    apply_cob_vfunctor,
    caten_2cell_leq,
    category_congruence_tse,
    check_caten_2cell,
    compose_tse,
    encode_slice,
    enumerate_vfunctors,
    functor_exists_tse,
    functor_preimage_tse,
    is_strong_tse,
    slice_change,
    slice_quantaloid,
    transpose_to_left,
    transpose_to_right,
    tse_as_vcat,
    vcat_as_tse,
    verify_adjunction,
)
from enrbisim.errors import BaseMismatch, NoAdjoint, NotACongruence
from enrbisim.fixtures import aut1, loop1, p01, point, q2, ql
from enrbisim.generators import random_od_map
from enrbisim.lattice import MonotoneMap
from enrbisim.quantaloid import build_language_quantale
from enrbisim.vcat import VFunctor, pullback, validate_vcategory, validate_vfunctor


@pytest.fixture(scope="module")
def Q2():
    return q2()


@pytest.fixture(scope="module")
def QLm():
    return ql(("m",), 2)


@pytest.fixture(scope="module")
def QLn():
    return ql(("n",), 2)


def relabel_tse(src, tgt, mapping):
    """Direct image along a letter-to-letter renaming."""
    return monoid_congruence_tse(
        src, tgt, monoid_morphism_pairs({k: (v,) for k, v in mapping.items()}, src, tgt)
    )


class TestValidateTse:
    def test_identity_valid(self, Q2):
        assert validate_tse(identity_tse(Q2)) == []

    def test_relabel_valid(self, QLm, QLn):
        assert validate_tse(relabel_tse(QLm, QLn, {"m": "n"})) == []

    def test_unit_square_violation(self, Q2):
        lat = Q2.hom(0, 0)
        comp = MonotoneMap(lat, lat, {0: 0, 1: 0})  # sends the unit to bottom
        tse = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): comp})
        assert any("unit square" in v for v in validate_tse(tse))


class TestComposeTse:
    def test_identity_right_unit(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        fid = compose_tse(f, identity_tse(QLn))
        assert fid.n_carriers == 1
        hom = QLm.hom(0, 0)
        for x in hom.elements():
            assert fid.component(0, 0)(x) == f.component(0, 0)(x)

    def test_relabellings_compose(self, QLm, QLn):
        qlp = build_language_quantale(("p",), 2)
        f = relabel_tse(QLm, QLn, {"m": "n"})
        g = relabel_tse(QLn, qlp, {"n": "p"})
        fg = compose_tse(f, g)
        direct = relabel_tse(QLm, qlp, {"m": "p"})
        for x in QLm.hom(0, 0).elements():
            assert fg.component(0, 0)(x) == direct.component(0, 0)(x)

    def test_carrier_count_is_pullback_size(self, Q2):
        f = identity_tse(Q2)
        assert compose_tse(f, f).n_carriers == 1

    def test_associative_up_to_flattening(self, QLm, QLn):
        qlp = build_language_quantale(("p",), 2)
        qlq = build_language_quantale(("q",), 2)
        f = relabel_tse(QLm, QLn, {"m": "n"})
        g = relabel_tse(QLn, qlp, {"n": "p"})
        h = relabel_tse(qlp, qlq, {"p": "q"})
        left = compose_tse(compose_tse(f, g), h)
        right = compose_tse(f, compose_tse(g, h))
        assert left.n_carriers == right.n_carriers
        assert left.minus == right.minus and left.plus == right.plus
        for key, comp in left.components.items():
            assert comp.mapping == right.components[key].mapping


class TestApplyCob:
    def test_identity_gives_isomorphic_copy(self, QLm):
        a = aut1(QLm)
        out = apply_cob(identity_tse(QLm), a)
        assert out.n_objects == a.n_objects
        assert [out.hom(i, j) for i in range(2) for j in range(2)] == [
            a.hom(i, j) for i in range(2) for j in range(2)
        ]
        assert validate_vcategory(out) == []

    def test_relabel_aut1(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        out = apply_cob(f, aut1(QLm))
        assert out.hom(0, 1) == frozenset({("n",)})
        assert validate_vcategory(out) == []

    def test_missing_extent_drops_objects(self, Q2):
        # a span whose carrier set is empty produces an empty enrichment
        tse = TwoSidedEnrichment(Q2, Q2, [], [], [], {})
        out = apply_cob(tse, point(Q2))
        assert out.n_objects == 0

    def test_functor_transport(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        rng = random.Random(2)
        for _ in range(10):
            g = random_od_map(QLm, rng)
            new_src = apply_cob(f, g.source)
            new_tgt = apply_cob(f, g.target)
            moved = apply_cob_vfunctor(f, g, new_src, new_tgt)
            assert validate_vfunctor(moved) == []


class TestLocalRightAdjoints:
    def test_identity_adjoints(self, Q2):
        report = local_right_adjoints(identity_tse(Q2))
        assert report.coherent
        assert report.adjoints[(0, 0)].mapping == {0: 0, 1: 1}

    def test_relabel_coherent(self, QLm, QLn):
        report = local_right_adjoints(relabel_tse(QLm, QLn, {"m": "n"}))
        assert report.coherent

    def test_collapse_letters_coherent(self, QLn):
        qlab = build_language_quantale(("a", "b"), 2)
        f = relabel_tse(qlab, QLn, {"a": "n", "b": "n"})
        assert is_strong_tse(f)
        report = local_right_adjoints(f)
        assert report.coherent

    def test_join_dropping_component_has_no_adjoint(self, Q2):
        lat = Q2.hom(0, 0)
        comp = MonotoneMap(lat, lat, {0: 1, 1: 1})
        tse = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): comp})
        with pytest.raises(NoAdjoint):
            local_right_adjoints(tse)


class TestRightAdjointCob:
    def test_identity(self, QLm):
        a = aut1(QLm)
        out = right_adjoint_cob(identity_tse(QLm), a)
        assert out.n_objects == a.n_objects
        assert validate_vcategory(out) == []

    def test_object_count_formula(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        b = loop1(QLn, letter="n")
        out = right_adjoint_cob(f, b)
        assert out.n_objects == b.n_objects  # one source object

    def _bijection_case(self, f, a, b):
        changed = apply_cob(f, a)
        adjoint_side = right_adjoint_cob(f, b)
        left_homs = enumerate_vfunctors(changed, b)
        right_homs = enumerate_vfunctors(a, adjoint_side)
        assert len(left_homs) == len(right_homs)
        for g in left_homs:
            mate = transpose_to_right(f, a, changed, adjoint_side, g)
            assert validate_vfunctor(mate) == []
            back = transpose_to_left(f, changed, b, adjoint_side, mate)
            assert back.mapping == g.mapping
        for h in right_homs:
            mate = transpose_to_left(f, changed, b, adjoint_side, h)
            assert validate_vfunctor(mate) == []
            back = transpose_to_right(f, a, changed, adjoint_side, mate)
            assert back.mapping == h.mapping

    def test_hom_bijection_identity(self, QLm):
        self._bijection_case(identity_tse(QLm), aut1(QLm), loop1(QLm))

    def test_hom_bijection_relabel(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        self._bijection_case(f, aut1(QLm), loop1(QLn, letter="n"))

    def test_transport_needs_a_changed_base(self, Q2):
        # an enrichment that apply_cob/right_adjoint_cob did not build
        f, a = identity_tse(Q2), point(Q2)
        g = VFunctor.identity(a)
        with pytest.raises(BaseMismatch):
            apply_cob_vfunctor(f, g, a, a)
        with pytest.raises(BaseMismatch):
            transpose_to_right(f, a, a, a, g)
        with pytest.raises(BaseMismatch):
            transpose_to_left(f, a, a, a, g)


class TestCatenTwoCells:
    def test_identity_cell(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        assert check_caten_2cell(CatenTwoCell(f, f, [0])) == []

    def test_pointwise_smaller_components(self, Q2):
        lat = Q2.hom(0, 0)
        small = MonotoneMap(lat, lat, {0: 0, 1: 1})
        tse_small = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): small})
        tse_big = identity_tse(Q2)
        assert check_caten_2cell(CatenTwoCell(tse_small, tse_big, [0])) == []

    def test_violation_reported(self, Q2):
        lat = Q2.hom(0, 0)
        small = MonotoneMap(lat, lat, {0: 0, 1: 1})
        top = MonotoneMap(lat, lat, {0: 1, 1: 1})
        tse_small = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): small})
        tse_top = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): top})
        assert check_caten_2cell(CatenTwoCell(tse_top, tse_small, [0]))

    def test_cell_order(self, Q2):
        f = identity_tse(Q2)
        cell = CatenTwoCell(f, f, [0])
        assert caten_2cell_leq(cell, cell)


class TestVcatAsTse:
    def test_point_round_trip(self, Q2):
        p = point(Q2)
        back = tse_as_vcat(vcat_as_tse(p))
        assert back.objects == p.objects and back.row_maps == p.row_maps

    def test_aut1_round_trip(self, QLm):
        a = aut1(QLm)
        tse = vcat_as_tse(a)
        assert validate_tse(tse) == []
        back = tse_as_vcat(tse)
        assert back.objects == a.objects
        assert back.extents == a.extents
        assert back.row_maps == a.row_maps

    def test_functors_are_2cells(self, QLm):
        a, b = aut1(QLm), loop1(QLm)
        ta, tb = vcat_as_tse(a), vcat_as_tse(b)
        cells = [
            mapping
            for mapping in itertools.product(range(b.n_objects), repeat=a.n_objects)
            if check_caten_2cell(CatenTwoCell(ta, tb, list(mapping))) == []
        ]
        assert len(cells) == len(enumerate_vfunctors(a, b))

    def test_cell_order_matches_transformation_existence(self, Q2):
        from enrbisim.constructions import exists_vnatural

        a = p01(Q2)
        ta = vcat_as_tse(a)
        cells = [
            list(mapping)
            for mapping in itertools.product(range(a.n_objects), repeat=a.n_objects)
            if check_caten_2cell(CatenTwoCell(ta, ta, list(mapping))) == []
        ]
        for m1 in cells:
            for m2 in cells:
                want = exists_vnatural(VFunctor(a, a, m1), VFunctor(a, a, m2))
                got = caten_2cell_leq(
                    CatenTwoCell(ta, ta, m1), CatenTwoCell(ta, ta, m2)
                )
                assert got == want


class TestMonoidCongruence:
    def test_identity_graph(self, QLm):
        tse = relabel_tse(QLm, QLm, {"m": "m"})
        for x in QLm.hom(0, 0).elements():
            assert tse.component(0, 0)(x) == x

    def test_exists_preimage_forall_chain(self, QLn):
        qlab = build_language_quantale(("a", "b"), 2)
        exists_f = relabel_tse(qlab, QLn, {"a": "n", "b": "n"})
        # inverse image: direct image along the reversed graph
        rev = [(n, m) for m, n in monoid_morphism_pairs(
            {"a": ("n",), "b": ("n",)}, qlab, QLn
        )]
        preimage_f = monoid_congruence_tse(QLn, qlab, rev)
        assert verify_adjunction(
            exists_f.component(0, 0), preimage_f.component(0, 0)
        )
        forall_f = local_right_adjoints(preimage_f, pointwise_only=True).adjoints[
            (0, 0)
        ]
        # the universal image keeps a word only if all its preimages are kept
        word_map = dict(monoid_morphism_pairs({"a": ("n",), "b": ("n",)}, qlab, QLn))
        for lang in qlab.hom(0, 0).elements():
            expected = frozenset(
                w
                for w in QLn.words
                if all(u in lang for u in qlab.words if word_map[u] == w)
            )
            assert forall_f(lang) == expected

    def test_exists_is_strong_and_left_adjoint(self, QLm, QLn):
        f = relabel_tse(QLm, QLn, {"m": "n"})
        assert is_strong_tse(f)
        assert local_right_adjoints(f).coherent

    def test_unbalanced_congruence_rejected(self, QLm):
        # shortening relations break laxness under truncation
        pairs = [((), ()), (("m",), ()), (("m",), ("m",)),
                 (("m", "m"), ()), (("m", "m"), ("m",)), (("m", "m"), ("m", "m"))]
        with pytest.raises(NotACongruence):
            monoid_congruence_tse(QLm, QLm, pairs)

    def test_missing_unit_pair_rejected(self, QLm):
        with pytest.raises(NotACongruence):
            monoid_congruence_tse(QLm, QLm, [(("m",), ("m",))])

    def test_search_finds_noncoherent_pointwise_adjoint(self, QLm):
        # the fan congruence relating the empty word to every word is a
        # genuine span with a pointwise adjoint that is not coherent
        pairs = [((), ()), ((), ("m",)), ((), ("m", "m"))]
        tse = monoid_congruence_tse(QLm, QLm, pairs)
        report = local_right_adjoints(tse)
        assert not report.coherent
        assert report.violations


class TestCategoryCongruence:
    def _posets(self):
        from enrbisim.cts import CatFunctor, FiniteCategory
        from enrbisim.constructions import build_powerset_quantaloid

        c = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        base = build_powerset_quantaloid(c)
        fun = CatFunctor(c, c, [0, 1], list(range(len(c.morphisms))))
        assert fun.validate() == []
        return c, base, fun

    def test_identity_functor_tse(self):
        c, base, fun = self._posets()
        tse = functor_exists_tse(base, base, fun)
        assert validate_tse(tse) == []
        for x in range(2):
            for y in range(2):
                for lang in base.hom(x, y).elements():
                    assert tse.component(x, y)(lang) == lang

    def test_exists_adjoint_is_preimage(self):
        c, base, fun = self._posets()
        exists_f = functor_exists_tse(base, base, fun)
        preimage_f = functor_preimage_tse(base, base, fun)
        report = local_right_adjoints(exists_f)
        assert report.coherent
        for x in range(2):
            for y in range(2):
                assert (
                    report.adjoints[(x, y)].mapping
                    == preimage_f.component(x, y).mapping
                )

    def test_missing_identity_pair_rejected(self):
        c, base, fun = self._posets()
        with pytest.raises(NotACongruence):
            category_congruence_tse(
                base, base, ["x"], [0], [0], {(0, 0): set()}
            )


class TestSliceChange:
    def test_identity_functor(self, Q2):
        a = p01(Q2)
        tse = slice_change(VFunctor.identity(a))
        assert validate_tse(tse) == []
        report = local_right_adjoints(tse)
        assert report.coherent

    def test_adjoints_meet_with_bound(self, Q2):
        a, p = p01(Q2), point(Q2)
        f = VFunctor(a, p, [0, 0])
        va, vb = slice_quantaloid(a), slice_quantaloid(p)
        tse = slice_change(f, va, vb)
        assert validate_tse(tse) == []
        report = local_right_adjoints(tse)
        assert report.coherent
        for (x, y), adj in report.adjoints.items():
            base_lat = a.hom_lattice(x, y)
            for v in vb.hom(f(x), f(y)).elements():
                assert adj(v) == base_lat.meet([v, a.hom(x, y)])

    def test_post_composition_agreement(self, Q2):
        a, p = p01(Q2), point(Q2)
        f = VFunctor(a, p, [0, 0])
        va, vb = slice_quantaloid(a), slice_quantaloid(p)
        tse = slice_change(f, va, vb)
        for x in (point(Q2), p01(Q2)):
            for g in enumerate_vfunctors(x, a):
                moved = apply_cob(tse, encode_slice(va, g))
                direct = encode_slice(vb, g.then(f))
                assert moved.extents == direct.extents
                assert moved.row_maps == direct.row_maps

    def test_pullback_agreement(self, Q2):
        a, p = p01(Q2), point(Q2)
        f = VFunctor(a, p, [0, 0])
        va, vb = slice_quantaloid(a), slice_quantaloid(p)
        tse = slice_change(f, va, vb)
        for y in (point(Q2), p01(Q2)):
            for h in enumerate_vfunctors(y, p):
                lifted = right_adjoint_cob(tse, encode_slice(vb, h))
                pb, _, to_a = pullback(h, f)
                encoded = encode_slice(va, to_a)
                assert lifted.extents == encoded.extents
                assert lifted.row_maps == encoded.row_maps


class TestOdPreservation:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_identity_and_relabel_preserve_od(self, QLm, QLn, seed):
        tses = [identity_tse(QLm), relabel_tse(QLm, QLn, {"m": "n"})]
        rng = random.Random(seed)
        for tse in tses:
            assert local_right_adjoints(tse).coherent
            for _ in range(10):
                g = random_od_map(QLm, rng)
                new_src = apply_cob(tse, g.source)
                new_tgt = apply_cob(tse, g.target)
                assert is_od(apply_cob_vfunctor(tse, g, new_src, new_tgt))
