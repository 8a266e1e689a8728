import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from enrbisim.cob import (
    MonotoneMap,
    TwoSidedEnrichment,
    adjunction_failure,
    apply_cob,
    local_right_adjoints,
    span_of_maps,
)
from enrbisim.cobdocs import (
    _lax_violations,
    composition_square,
    identity_tse,
    monoid_congruence_tse,
    monoid_morphism_pairs,
    relation_tse,
    right_adjoint_cob,
    validate_tse,
)
from enrbisim.constructions import (
    apply_cob_vfunctor,
    encode_slice,
    enumerate_vfunctors,
    slice_change,
    slice_quantaloid,
    transpose_to_left,
    transpose_to_right,
)
from enrbisim.errors import BaseMismatch, NoAdjoint, NotACongruence
from enrbisim.fixtures import aut1, loop1, p01, point, q2, ql
from enrbisim.generators import random_od_map, random_vcategory
from enrbisim.language import build_language_quantale, import_aut
from enrbisim.tables import TableLattice, TableQuantaloid
from enrbisim.vcat import VCategory, validate_vcategory
from enrbisim.witness import VFunctor, is_od, pullback, validate_vfunctor


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


def functor_image_tse(source, target, fun, inverse=False):
    """The direct image of morphism sets along ``fun``, a functor from
    ``source.cat`` to ``target.cat``; with ``inverse``, the inverse image
    along ``fun`` from ``target.cat`` to ``source.cat``.  A relation span
    with one carrier per object of ``fun``'s source."""
    cat = fun.source
    objects = list(range(len(cat.objects)))
    pairs = {(x, y): {(m, fun.mor_map[m]) for m in cat.hom_morphisms(x, y)}
             for x in objects for y in objects}
    if not inverse:
        return relation_tse(source, target, list(cat.objects), objects, list(fun.obj_map), pairs)
    reversed_pairs = {key: {(n, m) for m, n in rel} for key, rel in pairs.items()}
    return relation_tse(source, target, list(cat.objects), list(fun.obj_map), objects, reversed_pairs)


def is_strong(f):
    """Whether a span's components preserve units and composition exactly."""
    units = all(f.component(x, x)(f.source.unit(f.minus[x])) == f.target.unit(f.plus[x])
                for x in range(f.n_carriers))
    return units and all(lhs == rhs for triple in itertools.product(range(f.n_carriers), repeat=3)
                         for _, lhs, rhs in composition_square(f, triple))


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
        assert is_strong(f)
        report = local_right_adjoints(f)
        assert report.coherent

    def test_join_dropping_component_has_no_adjoint(self, Q2):
        lat = Q2.hom(0, 0)
        comp = MonotoneMap(lat, lat, {0: 1, 1: 1})
        tse = TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): comp})
        with pytest.raises(NoAdjoint):
            local_right_adjoints(tse)


def adjoint_span_cases(Q2, QLm, QLn):
    """The identity, relabel and collapse spans, each with an enrichment over its target."""
    qlab = build_language_quantale(("a", "b"), 2)
    return {
        "identity": (identity_tse(Q2), p01(Q2)),
        "relabel": (relabel_tse(QLm, QLn, {"m": "n"}), loop1(QLn, letter="n")),
        "collapse": (relabel_tse(qlab, QLn, {"a": "n", "b": "n"}), loop1(QLn, letter="n")),
    }


class TestAdjointSpan:
    """The local right adjoints form a span back from the target, indexed by
    source object; the right adjoint of the change of base is the change of
    base along it."""

    @pytest.mark.parametrize("case", ["identity", "relabel", "collapse"])
    def test_coherent_is_the_span_being_lax(self, Q2, QLm, QLn, case):
        f, _ = adjoint_span_cases(Q2, QLm, QLn)[case]
        report = local_right_adjoints(f)
        assert report.span.carriers == list(f.source.objects)
        assert report.coherent
        assert validate_tse(report.span) == []

    def test_incoherent_span_is_not_lax(self, QLm):
        fan = monoid_congruence_tse(QLm, QLm, [((), ()), ((), ("m",)), ((), ("m", "m"))])
        report = local_right_adjoints(fan)
        assert not report.coherent
        assert validate_tse(report.span) == report.violations != []
        with pytest.raises(NoAdjoint):
            right_adjoint_cob(fan, loop1(QLm))

    @pytest.mark.parametrize("case", ["identity", "relabel", "collapse"])
    def test_right_adjoint_is_apply_cob_along_the_span(self, Q2, QLm, QLn, case):
        f, b = adjoint_span_cases(Q2, QLm, QLn)[case]
        out = right_adjoint_cob(f, b)
        along = apply_cob(local_right_adjoints(f).span, b)
        assert out.base is along.base is f.source
        assert (out.objects, out.extents, out.row_maps, out.cob_pairs) == (
            along.objects, along.extents, along.row_maps, along.cob_pairs)


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
        exists_0, preimage_0 = exists_f.component(0, 0), preimage_f.component(0, 0)
        assert exists_0.check() == preimage_0.check() == []
        assert adjunction_failure(exists_0, preimage_0) is None
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
        assert is_strong(f)
        assert local_right_adjoints(f).coherent

    def test_components_are_not_rechecked(self, QLm, QLn, monkeypatch):
        # each component sends a language to a union of related words, so it
        # is total, join-preserving and well-typed as built: only the lax
        # squares are checked while the span is built
        checked = []
        original = MonotoneMap.check
        monkeypatch.setattr(MonotoneMap, "check", lambda m: checked.append(m) or original(m))
        qlab = build_language_quantale(("a", "b"), 2)
        tse = monoid_congruence_tse(
            qlab, QLn, monoid_morphism_pairs({"a": ("n",), "b": ("n",)}, qlab, QLn)
        )
        assert checked == []
        assert validate_tse(tse) == [] and checked == [tse.component(0, 0)]
        with pytest.raises(NotACongruence, match="composition square fails"):
            monoid_congruence_tse(QLm, QLm, [((), ()), (("m",), ()), (("m", "m"), ())])
        assert len(checked) == 1

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
        from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid
        from enrbisim.ctsrefine import CatFunctor

        c = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        base = PowersetCatQuantaloid(c)
        fun = CatFunctor(c, c, [0, 1], list(range(len(c.morphisms))))
        assert fun.validate() == []
        return c, base, fun

    def test_identity_functor_tse(self):
        c, base, fun = self._posets()
        tse = functor_image_tse(base, base, fun)
        assert validate_tse(tse) == []
        for x in range(2):
            for y in range(2):
                for lang in base.hom(x, y).elements():
                    assert tse.component(x, y)(lang) == lang

    def test_exists_adjoint_is_preimage(self):
        c, base, fun = self._posets()
        exists_f = functor_image_tse(base, base, fun)
        preimage_f = functor_image_tse(base, base, fun, inverse=True)
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
            relation_tse(base, base, ["x"], [0], [0], {(0, 0): set()})


def union_image(rel):
    """The component sending a set to the members ``rel`` relates to its own."""
    return lambda members: frozenset(n for m, n in rel if m in members)


def exhaustive_congruence(source, target, rel):
    """The oracle for a monoid congruence: the span of union images, when
    the empty-word pair is related and ``_lax_violations`` finds nothing on
    the span; else None."""
    tse = span_of_maps(source, target, ["*"], [0], [0], lambda x, y: union_image(rel))
    return tse if ((), ()) in rel and not _lax_violations(tse) else None


def closed_congruence(source, target, carriers, minus, plus, relations):
    """The oracle for a category congruence: the span of union images, when
    every identity pair is related and the relations are closed under
    composition; else None."""
    cat_c, cat_d, indices = source.cat, target.cat, range(len(carriers))
    for x in indices:
        if (cat_c.identities[minus[x]], cat_d.identities[plus[x]]) not in relations[x, x]:
            return None
    for x, y, z in itertools.product(indices, repeat=3):
        for (fm, fn), (gm, gn) in itertools.product(relations[x, y], relations[y, z]):
            if (cat_c.compose_mor(fm, gm), cat_d.compose_mor(fn, gn)) not in relations[x, z]:
                return None
    return span_of_maps(source, target, carriers, minus, plus,
                        lambda x, y: union_image(relations[x, y]))


def components(tse):
    return {key: dict(comp.mapping) for key, comp in tse.components.items()}


class TestRelationSpan:
    """``relation_tse`` checks the lax squares on related members only; on
    every relation of small bases it accepts exactly the spans the
    exhaustive check accepts, with the same components."""

    @pytest.mark.parametrize("source, target, accepted", [
        ((("m",), 2), (("m",), 2), 17),
        ((("a", "b"), 1), (("n",), 1), 8),
        ((("m",), 2), (("n",), 1), 8),
        ((("m",), 1), (("n",), 2), 6),
    ], ids=["m2-m2", "ab1-n1", "m2-n1", "m1-n2"])
    def test_monoid_congruence_agrees_with_the_exhaustive_check(self, source, target, accepted):
        source, target = build_language_quantale(*source), build_language_quantale(*target)
        universe = list(itertools.product(source.words, target.words))
        count = 0
        for bits in range(1 << len(universe)):
            rel = {pair for i, pair in enumerate(universe) if bits >> i & 1}
            want = exhaustive_congruence(source, target, rel)
            try:
                got = monoid_congruence_tse(source, target, rel)
            except NotACongruence:
                assert want is None, sorted(rel)
                continue
            assert want is not None, sorted(rel)
            assert components(got) == components(want)
            count += 1
        assert count == accepted

    @pytest.mark.parametrize("n_carriers, expected", [(1, 4), (2, 38)])
    def test_category_relations_agree_with_identity_and_closure(self, n_carriers, expected):
        from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid

        cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        base = PowersetCatQuantaloid(cat)
        carriers, indices = [f"c{x}" for x in range(n_carriers)], range(n_carriers)
        accepted = 0
        for minus, plus in itertools.product(itertools.product(range(2), repeat=n_carriers), repeat=2):
            universe = [
                ((x, y), pair)
                for x, y in itertools.product(indices, repeat=2)
                for pair in itertools.product(cat.hom_morphisms(minus[x], minus[y]),
                                              cat.hom_morphisms(plus[x], plus[y]))
            ]
            for bits in range(1 << len(universe)):
                relations = {key: set() for key in itertools.product(indices, repeat=2)}
                for i, (key, pair) in enumerate(universe):
                    if bits >> i & 1:
                        relations[key].add(pair)
                legs = (carriers, list(minus), list(plus), relations)
                want = closed_congruence(base, base, *legs)
                try:
                    got = relation_tse(base, base, *legs)
                except NotACongruence:
                    assert want is None, relations
                    continue
                assert want is not None, relations
                assert components(got) == components(want)
                accepted += 1
        assert accepted == expected


def test_three_letter_morphism_cob_apply_finishes(tmp_path):
    """Changing base along the letter-forgetting morphism QL({a,b,c},2) ->
    QL({n},2) sends each hom of an automaton to the letter-wise images of
    its words, well within the time bound."""
    aut = tmp_path / "A.aut"
    aut.write_text('des (0, 4, 3)\n(0, "a", 1)\n(1, "b", 2)\n(2, "c", 0)\n(1, "a", 1)\n')
    docs = {
        "QLn": {"kind": "language", "alphabet": ["n"], "k": 2},
        "M": {"kind": "tse", "construction": "monoid-morphism", "source": "QL(a,b,c,2)",
              "target": "QLn", "map": {letter: ["n"] for letter in "abc"}},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"schema": "enrbisim/1", "name": name, **doc}))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "enrbisim", "--paths", str(tmp_path), "--aut-alphabet", "a,b,c",
         "--aut-k", "2", "cob-apply", "--tse", "M", "--a", "A"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    homs = json.loads(run.stdout)["details"]["result"]["homs"]
    a = import_aut(aut, ["a", "b", "c"], 2)
    assert len(homs) == a.n_objects ** 2
    for i, j in itertools.product(range(a.n_objects), repeat=2):
        got = {tuple(word) for word in homs[f"(s{i}|*),(s{j}|*)"]}
        assert got == {("n",) * len(word) for word in a.hom(i, j)}


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


def dense_apply_cob(f, a) -> VCategory:
    """The oracle for ``apply_cob``: every two (object, carrier) pairs of
    equal extent mapped by their component, bottom homs included."""
    pairs = [(i, x) for i in range(a.n_objects) for x in range(f.n_carriers) if a.extents[i] == f.minus[x]]
    homs = [{q: f.component(x1, x2)(a.hom(i1, i2)) for q, (i2, x2) in enumerate(pairs)}
            for i1, x1 in pairs]
    names = [f"({a.objects[i]}|{f.carriers[x]})" for i, x in pairs]
    return VCategory(f.target, names, [f.plus[x] for _, x in pairs], homs)


def sparse_apply_cases() -> dict:
    """Every kind of span the tests build, each with the enrichments over its
    source to change: spans whose components keep bottom at bottom, and
    spans with components that do not (a constant top, an enrichment read
    as a span out of the one-arrow base), where every pair is mapped."""
    from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid, build_S_quantaloid
    from enrbisim.ctsrefine import CatFunctor, crible_change_tse

    Q2, QLm, QLn = q2(), ql(("m",), 2), ql(("n",), 2)
    qlab = build_language_quantale(("a", "b"), 2)
    lat = Q2.hom(0, 0)
    constant_top = MonotoneMap(lat, lat, {0: 1, 1: 1})
    two = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
    three = FiniteCategory.poset(["0", "1", "2"], [(i, j) for i in range(3) for j in range(i, 3)])
    into = CatFunctor(two, three, [0, 2], [three.morphism_index(f"{2 * m.src}<={2 * m.tgt}")
                                           for m in two.morphisms])
    s2, s3, bp2 = build_S_quantaloid(two), build_S_quantaloid(three), PowersetCatQuantaloid(two)
    same = CatFunctor(two, two, [0, 1], list(range(len(two.morphisms))))
    relabel, ident = relabel_tse(QLm, QLn, {"m": "n"}), identity_tse(QLn)
    one = TableQuantaloid(["*"], {(0, 0): TableLattice(["*"], [(0, 0)])}, {(0, 0, 0): [[0]]}, [0])
    loop = loop1(QLm)
    spans = {
        "identity": identity_tse(Q2),
        "identity-language": identity_tse(QLm),
        "relabel": relabel,
        "collapse": relabel_tse(qlab, QLn, {"a": "n", "b": "n"}),
        "fan-congruence": monoid_congruence_tse(QLm, QLm, [((), ()), ((), ("m",)), ((), ("m", "m"))]),
        "composite": span_of_maps(QLm, QLn, ["(*|*)"], [0], [0], lambda x, y: lambda v: (
            ident.component(0, 0)(relabel.component(0, 0)(v)))),
        "two-carriers": span_of_maps(Q2, Q2, ["c", "d"], [0, 0], [0, 0], lambda x, y: lambda v: v),
        "constant-top": TwoSidedEnrichment(Q2, Q2, ["*"], [0], [0], {(0, 0): constant_top}),
        "mixed": TwoSidedEnrichment(Q2, Q2, ["c", "d"], [0, 0], [0, 0], {
            (0, 0): MonotoneMap.identity(lat), (0, 1): constant_top,
            (1, 0): MonotoneMap.identity(lat), (1, 1): MonotoneMap.identity(lat)}),
        "enrichment-as-span": span_of_maps(  # the one-arrow base's arrow goes to each hom
            one, QLm, list(loop.objects), [0] * loop.n_objects, list(loop.extents),
            lambda x, y: lambda only: loop.hom(x, y)),
        "sieve-inclusion": crible_change_tse(into, s2, s3),
        "sieve-identity": crible_change_tse(same, s2, s2),
        "powerset-image": functor_image_tse(bp2, bp2, same),
        "powerset-preimage": functor_image_tse(bp2, bp2, same, inverse=True),
    }
    cases = {}
    for name, f in spans.items():
        rng = random.Random(f"sparse-apply:{name}")
        sources = [random_vcategory(f.source, rng, max_objects=4) for _ in range(6)]
        if f.source is QLm:
            sources += [aut1(QLm), loop1(QLm)]
        cases[name] = (f, sources)
    return cases


@pytest.mark.parametrize("case", list(sparse_apply_cases()))
def test_sparse_apply_cob_is_mapping_every_pair(case):
    f, sources = sparse_apply_cases()[case]
    for a in sources:
        out, oracle = apply_cob(f, a), dense_apply_cob(f, a)
        assert (out.objects, out.extents, out.rows) == (oracle.objects, oracle.extents, oracle.rows)
        assert out.cob_pairs == [(i, x) for i in range(a.n_objects) for x in range(f.n_carriers)
                                 if a.extents[i] == f.minus[x]]
