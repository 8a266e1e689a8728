import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from enrbisim import cts
from enrbisim.cob import MonotoneMap, apply_cob, local_right_adjoints
from enrbisim.constructions import apply_cob_vfunctor
from enrbisim.cts import (
    CribleQuantaloid,
    CtsSpec,
    FiniteCategory,
    Morphism,
    Span,
    all_spans,
    build_S_quantaloid,
    cts_to_vcat,
    identity_span,
    span_compose,
    span_leq,
    validate_fincat,
)
from enrbisim.ctsrefine import CatFunctor, crible_change_tse, preserves_chosen_pullbacks, refine
from enrbisim.documents import load_bundle
from enrbisim.errors import AmbientMismatch, NotExact, SizeLimit, TypeMismatch
from enrbisim.laws import validate_quantaloid
from enrbisim.vcat import validate_vcategory
from enrbisim.witness import VFunctor, is_od, validate_vfunctor


def crible_preimage_map(fun, source_sq, target_sq, x, y) -> MonotoneMap:
    """The oracle for a sieve adjoint: the spans whose image lies in the sieve."""
    def preimage(crible):
        return frozenset(s for s in all_spans(fun.source, x, y) if fun.apply_span(s) in crible)

    return MonotoneMap.from_function(
        target_sq.hom(fun.obj_map[x], fun.obj_map[y]), source_sq.hom(x, y), preimage
    )


def chain(n: int) -> FiniteCategory:
    return FiniteCategory.poset([str(i) for i in range(n)], [(i, j) for i in range(n) for j in range(i, n)])


# (source length, image in the target, target length): every order-preserving
# inclusion between chains of 1 to 4 elements, the shapes the sieve workloads draw
CHAIN_INCLUSIONS = [
    (m, image, n)
    for n in range(1, 5)
    for m in range(1, n + 1)
    for image in itertools.combinations(range(n), m)
]


def chain_inclusion(m: int, image: tuple, n: int) -> CatFunctor:
    source, target = chain(m), chain(n)
    mor_map = [target.morphism_index(f"{image[f.src]}<={image[f.tgt]}") for f in source.morphisms]
    return CatFunctor(source, target, list(image), mor_map)


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

    def test_each_pairs_spans_are_enumerated_once(self, poset3, monkeypatch):
        calls: dict = {}

        def counted(cat, x, y):
            calls[x, y] = calls.get((x, y), 0) + 1
            return all_spans(cat, x, y)

        monkeypatch.setattr(cts, "all_spans", counted)
        sq = build_S_quantaloid(poset3)
        pairs = list(itertools.product(range(poset3.n_objects), repeat=2))
        assert all(sq.hom(x, y).size >= 2 for x, y in pairs)  # every hom lattice built
        assert calls == dict.fromkeys(pairs, 1)
        calls.clear()
        monkeypatch.setattr(cts, "MAX_GENERATORS", 1)  # the pairs from 0 have one span, (1, 1) two
        with pytest.raises(SizeLimit, match="2 spans between 1 and 1"):
            build_S_quantaloid(poset3)
        assert calls == dict.fromkeys(pairs[:5], 1)

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
        assert cached.ok and build_S_quantaloid(cat).is_locally_distributive()
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

    def test_adjoints_match_preimage_formula(self):
        for m, image, n in CHAIN_INCLUSIONS:
            fun = chain_inclusion(m, image, n)
            assert fun.validate() == [] and preserves_chosen_pullbacks(fun) == []
            source_sq, target_sq = build_S_quantaloid(fun.source), build_S_quantaloid(fun.target)
            tse = crible_change_tse(fun, source_sq, target_sq)
            report = local_right_adjoints(tse, pointwise_only=True)
            assert (report.span, report.violations, report.coherent) == (None, [], False)
            assert set(report.adjoints) == set(itertools.product(range(m), repeat=2))
            for (x, y), adj in report.adjoints.items():
                assert adj.mapping == crible_preimage_map(fun, source_sq, target_sq, x, y).mapping

    @pytest.mark.parametrize("m, image, n", CHAIN_INCLUSIONS, ids=lambda v: str(v).replace(" ", ""))
    def test_refine_is_apply_cob_along_the_induced_span(self, m, image, n):
        fun = chain_inclusion(m, image, n)
        source_sq, target_sq = build_S_quantaloid(fun.source), build_S_quantaloid(fun.target)
        cat = fun.source
        # an edge between every two vertices, by the span through their meet
        edges = [
            (i, j, Span(min(i, j), cat.morphism_index(f"{min(i, j)}<={i}"),
                        cat.morphism_index(f"{min(i, j)}<={j}")))
            for i in range(m)
            for j in range(m)
        ]
        a = cts_to_vcat(source_sq, CtsSpec([(f"v{i}", i) for i in range(m)], edges))
        out = refine(fun, a, source_sq, target_sq)
        along = apply_cob(crible_change_tse(fun, source_sq, target_sq), a)
        assert out.base is along.base is target_sq
        assert (out.objects, out.extents, out.row_maps) == (along.objects, along.extents, along.row_maps)

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


def fan_documents() -> dict[str, dict]:
    """A 12-element fan poset (a bottom, 10 atoms, a top), a 12-vertex ring
    typed at the top whose edges run through the atoms, and the identity
    functor.  The sieves from the top to itself are the 1,026 down-sets of
    the fan, so each adjoint search compares about a million pairs."""
    names = ["b"] + [f"a{i}" for i in range(10)] + ["t"]
    leq = [[i, i] for i in range(12)] + [[0, i] for i in range(1, 12)] + [[i, 11] for i in range(1, 11)]
    atom = [f"a{i % 10}" for i in range(12)]
    docs = {
        "FAN": {"kind": "fincat", "construction": "poset", "elements": names, "leq": leq},
        "SPEC": {"kind": "ctsspec", "category": "FAN",
                 "vertices": [{"name": f"v{i}", "type": "t"} for i in range(12)],
                 "edges": [{"src": f"v{i}", "tgt": f"v{(i + 1) % 12}",
                            "span": {"apex": atom[i], "left": f"{atom[i]}<=t", "right": f"{atom[i]}<=t"}}
                           for i in range(12)]},
        "ID": {"kind": "catfunctor", "source": "FAN", "target": "FAN", "objects": {n: n for n in names},
               "morphisms": {f"{names[i]}<={names[j]}": f"{names[i]}<={names[j]}" for i, j in leq}},
    }
    return {name: {"schema": "enrbisim/1", "name": name, **doc} for name, doc in docs.items()}


def test_fan_poset_refinement_finishes(tmp_path):
    """Refining along the identity of the fan poset searches the adjoints
    of its 1,026-sieve hom on the lattice cores, well within the time
    bound, and gives the specification's own enrichment back."""
    for name, doc in fan_documents().items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "enrbisim", "--paths", str(tmp_path), "cts-refine", "--spec", "SPEC",
         "--functor", "ID"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=5,
    )
    assert run.returncode == 0, run.stderr
    homs = json.loads(run.stdout)["details"]["result"]["homs"]
    bundle = load_bundle([str(tmp_path)])
    cat, spec = bundle.get("SPEC")
    built = cts_to_vcat(bundle.sieve_base("FAN"), spec)
    assert len(homs) == 144
    for i, j in itertools.product(range(12), repeat=2):
        written = homs[f"(v{i}|t),(v{j}|t)"]
        assert {(s["apex"], s["left"], s["right"]) for s in written} == {
            (cat.objects[s.apex], cat.morphisms[s.left].name, cat.morphisms[s.right].name)
            for s in built.hom(i, j)
        }
