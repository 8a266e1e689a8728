import collections
import itertools
import json
import random

import pytest
from oracles import isomorphic_by, same_presentation

from enrbisim.cli import main
from enrbisim.constructions import (
    MAX_CANDIDATE_MAPS,
    LaxRelationalPresentation,
    decode_slice,
    encode_slice,
    enumerate_vfunctors,
    laxrel_to_vcat,
    slice_quantaloid,
    vcat_to_laxrel,
)
from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid, build_S_quantaloid
from enrbisim.documents import SCHEMA
from enrbisim.errors import (
    BaseMismatch,
    SizeLimit,
    TypeMismatch,
    UnknownElement,
    UnknownObject,
    ValidationError,
)
from enrbisim.fixtures import aut1, bp2, codisc2, loop1, m3, p01, penta, point, q2, ql, rel1
from enrbisim.generators import coproduct, random_vcategory, terminal, to_terminal
from enrbisim.language import build_language_quantale
from enrbisim.laws import validate_quantaloid
from enrbisim.quantaloid import Quantaloid
from enrbisim.sets import PowersetLattice
from enrbisim.tables import TableLattice, TableQuantaloid
from enrbisim.vcat import EnrichedGraph, VCategory, free_vcategory, validate_vcategory
from enrbisim.witness import VFunctor, pullback, validate_vfunctor


@pytest.fixture(scope="module")
def Q2():
    return q2()


@pytest.fixture(scope="module")
def QL():
    return ql()


class TestValidateVCategory:
    def test_single_point_valid(self, Q2):
        a = VCategory(Q2, ["x"], [0], [{0: 1}])
        assert validate_vcategory(a) == []

    def test_broken_transitivity(self, Q2):
        a = VCategory(
            Q2,
            ["a0", "a1", "a2"],
            [0, 0, 0],
            [{0: 1, 1: 1, 2: 0}, {0: 0, 1: 1, 2: 1}, {0: 0, 1: 0, 2: 1}],
        )
        assert any("composition" in v for v in validate_vcategory(a))

    def test_free_output_valid(self, QL):
        assert validate_vcategory(aut1(QL)) == []
        assert validate_vcategory(loop1(QL)) == []

    def test_missing_identity(self, Q2):
        a = VCategory(Q2, ["x"], [0], [{0: 0}])
        assert any("identity" in v for v in validate_vcategory(a))


def dense_validate(a):
    """Reference: the dense, fully checked loop over every triple."""
    base, ext, n = a.base, a.extents, a.n_objects
    out = []
    for i, j in itertools.product(range(n), repeat=2):
        if not base.hom(ext[i], ext[j]).has_element(a.hom(i, j)):
            out.append(f"hom({a.objects[i]},{a.objects[j]}) is not in its lattice")
    if out:
        return out
    for i in range(n):
        if not base.hom(ext[i], ext[i]).leq(base.unit(ext[i]), a.hom(i, i)):
            out.append(f"identity not below hom({a.objects[i]},{a.objects[i]})")
    for i, j, k in itertools.product(range(n), repeat=3):
        base.hom(ext[i], ext[j]).check_element(a.hom(i, j))
        base.hom(ext[j], ext[k]).check_element(a.hom(j, k))
        comp = base.compose(ext[i], ext[j], ext[k], a.hom(i, j), a.hom(j, k))
        if not base.hom(ext[i], ext[k]).leq(comp, a.hom(i, k)):
            out.append(
                f"composition fails at ({a.objects[i]},{a.objects[j]},{a.objects[k]})"
            )
    return out


ORACLE_BASES = {
    "Q2": q2,
    "M3": m3,
    "QL_ab_2": lambda: build_language_quantale(["a", "b"], 2),
    "REL1": rel1,
    "BP2": bp2,
    "S(P2)": lambda: build_S_quantaloid(
        FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
    ),
}


class TestValidateAgainstDenseOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_same_violations_as_dense_loop(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"oracle-{name}")
        broken = 0
        for case in range(40):
            a = random_vcategory(base, rng, max_objects=5, density=0.3)
            assert validate_vcategory(a) == dense_validate(a) == []
            homs = [dict(row) for row in a.row_maps]
            for _ in range(rng.randint(1, 4)):
                i, j = rng.randrange(a.n_objects), rng.randrange(a.n_objects)
                lat = a.hom_lattice(i, j)
                homs[i][j] = lat.bottom if rng.random() < 0.3 else lat.sample(rng)
            b = VCategory(base, a.objects, a.extents, homs)
            expected = dense_validate(b)
            assert validate_vcategory(b) == expected, case
            broken += bool(expected)
        assert broken >= 5


def random_hom_table(base, rng, n):
    """Homs drawn freely, a third of them bottom, so that most composites
    break the law and rows hold several distinct values."""
    extents = [rng.randrange(base.n_objects) for _ in range(n)]
    homs = [
        {
            j: base.hom(u, v).bottom if rng.random() < 0.3 else base.hom(u, v).sample(rng)
            for j, v in enumerate(extents)
        }
        for u in extents
    ]
    return VCategory(base, [f"x{i}" for i in range(n)], extents, homs)


GROUPED_BASES = {"M3": m3, "PENTA": penta, "BP2": bp2}


class TestGroupedCheck:
    """The value-grouped composition check against the dense loop.  PENTA
    and BP2 have two base objects, and PENTA's homs share values across
    extents."""

    @pytest.mark.parametrize("name", sorted(GROUPED_BASES))
    def test_same_violations_in_the_same_order(self, name):
        base = GROUPED_BASES[name]()
        rng = random.Random(f"grouped-{name}")
        busy = 0  # rows with several distinct values and several violations
        for case in range(12):
            a = random_hom_table(base, rng, rng.randint(6, 12))
            found = validate_vcategory(a)
            assert found == dense_validate(a), case
            for i, row in enumerate(a.rows):
                values = {(a.extents[k], x) for k, x, _ in row}
                fails = [m for m in found if m.startswith(f"composition fails at ({a.objects[i]},")]
                busy += len(values) >= 2 and len(fails) >= 2
        assert busy >= 20

    @pytest.mark.parametrize("name", sorted(GROUPED_BASES))
    def test_no_more_work_than_the_triple_loop(self, name, monkeypatch):
        """At most one ``_leq`` per composable triple (plus the unit
        checks) and one composite per composable triple."""
        base = GROUPED_BASES[name]()
        rng = random.Random(f"grouped-work-{name}")
        calls = {"leq": 0, "compose": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        for cls in (TableLattice, PowersetLattice):
            monkeypatch.setattr(cls, "_leq", counted("leq", cls._leq))
        monkeypatch.setattr(base, "compose", counted("compose", base.compose))
        for case in range(12):
            if case % 2:
                a = random_hom_table(base, rng, rng.randint(6, 12))
            else:
                a = random_vcategory(base, rng, max_objects=12, density=0.3)
            triples = sum(len(a.rows[j]) for row in a.rows for j, _, _ in row)
            calls.update(leq=0, compose=0)
            validate_vcategory(a)
            assert calls["leq"] <= triples + a.n_objects, case
            assert calls["compose"] <= triples, case


class TestNonBottomRows:
    """``VCategory.rows`` against a scan of a dense table, given to the
    constructor as ``{target: hom}`` rows in shuffled order, with some
    bottoms written out and the rest left out."""

    @pytest.mark.parametrize("name", sorted(ORACLE_BASES))
    def test_rows_are_the_non_bottom_entries(self, name):
        base = ORACLE_BASES[name]()
        rng = random.Random(f"rows-{name}")
        seen = collections.Counter()
        for case in range(30):
            a = random_vcategory(base, rng, max_objects=6, density=0.3)
            n = a.n_objects
            dense = [[a.hom(i, j) for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(0, 4)):
                i, j = rng.randrange(n), rng.randrange(n)
                lat = a.hom_lattice(i, j)
                dense[i][j] = lat.bottom if rng.random() < 0.5 else lat.sample(rng)
            homs = []
            for i, row in enumerate(dense):
                given = [
                    (j, x) for j, x in enumerate(row)
                    if x != a.hom_lattice(i, j).bottom or rng.random() < 0.5
                ]
                rng.shuffle(given)
                homs.append(dict(given))
            b = VCategory(base, a.objects, a.extents, homs)
            want = tuple(
                tuple(
                    (j, x, b.hom_lattice(i, j))
                    for j, x in enumerate(row)
                    if x != b.hom_lattice(i, j).bottom
                )
                for i, row in enumerate(dense)
            )
            assert b.rows == want, case
            assert all(
                got[2] is b.hom_lattice(i, got[0]) for i, row in enumerate(b.rows) for got in row
            )
            assert b.row_maps == tuple({j: x for j, x, _ in row} for row in want), case
            for i, j in itertools.product(range(n), repeat=2):
                assert b.hom(i, j) == dense[i][j], case
                if dense[i][j] == b.hom_lattice(i, j).bottom:
                    seen["written" if j in homs[i] else "left out"] += 1
        assert min(seen["written"], seen["left out"]) >= 20, seen

    def test_explicit_bottom_is_dropped_and_missing_target_reads_bottom(self, Q2):
        a = VCategory(Q2, ["x", "y", "z"], [0, 0, 0], [{2: 1, 0: 1, 1: 0}, {1: 1}, {2: 1}])
        assert a.rows == (((0, 1, a.hom_lattice(0, 0)), (2, 1, a.hom_lattice(0, 2))),
                          ((1, 1, a.hom_lattice(1, 1)),), ((2, 1, a.hom_lattice(2, 2)),))
        assert dict(a.row_maps[0]) == {0: 1, 2: 1}
        assert a.hom(0, 1) == a.hom(1, 0) == Q2.hom(0, 0).bottom == 0

    def test_row_count_and_targets_are_checked(self, Q2):
        for homs in ([{0: 1}], [{0: 1}, {1: 1}, {}], [{0: 1, 2: 1}, {1: 1}], [{-1: 1}, {1: 1}]):
            with pytest.raises(ValueError):
                VCategory(Q2, ["x", "y"], [0, 0], homs)
        with pytest.raises(AttributeError):  # the dense form of p01 is not read as targets
            VCategory(Q2, ["x", "y"], [0, 0], [[1, 1], [0, 1]])

    def test_rows_are_read_only(self, Q2):
        a = p01(Q2)
        with pytest.raises(TypeError):
            a.row_maps[0][1] = 0


class TestHomIndices:
    """``hom(i, j)`` and ``hom_lattice(i, j)`` outside ``0..n-1`` raise,
    as ``Quantaloid.hom`` does."""

    @pytest.mark.parametrize("build", [p01, aut1, lambda: terminal(bp2())])
    def test_indices_out_of_range_raise(self, build):
        a = build()
        n = a.n_objects
        cells = {(i, j): a.hom(i, j) for i in range(n) for j in range(n)}
        for bad in (-1, n):
            with pytest.raises(UnknownObject):
                a.hom(bad, 0)
            with pytest.raises(UnknownObject):
                a.hom(0, bad)
            with pytest.raises(UnknownObject):
                a.hom_lattice(bad, 0)
            with pytest.raises(UnknownObject):
                a.hom_lattice(0, bad)
        assert all(a.hom(i, j) == x for (i, j), x in cells.items())


def random_automaton_graph(rng, n):
    """A 2-out automaton over {a,b}: two random transitions per state."""
    edges = [
        (s, rng.randrange(n), frozenset({(rng.choice("ab"),)}))
        for s in range(n)
        for _ in range(2)
    ]
    return EnrichedGraph([(f"s{i}", 0) for i in range(n)], edges)


class TestLanguageKernelsAgainstOracles:
    """The forward sweep and the word-mask check at automaton scale."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_path_homs_matches_kleene_closure(self, k):
        base = build_language_quantale(["a", "b"], k)
        rng = random.Random(f"sweep-{k}")
        for case in range(40):
            n = rng.randint(1, 12)
            edges = []
            for _ in range(rng.randint(0, 2 * n)):
                label = set(rng.sample(base.words, rng.randint(1, min(3, len(base.words)))))
                if rng.random() < 0.3:
                    label.add(())  # an empty-word label, closed within each level
                edges.append((rng.randrange(n), rng.randrange(n), frozenset(label)))
            assert as_table(base, [0] * n, base.path_homs(n, edges)) == naive_closure(
                base, [0] * n, edges
            ), case

    @pytest.mark.parametrize(
        "given",
        [
            {(0, 1): [()], (1, 2): ["a"]},  # an empty-word hom composes too
            {(0, 1): ["a", "b"], (1, 2): ["a"], (0, 2): ["aa"]},  # every word of
            {(0, 1): ["a", "b"], (1, 2): ["a"], (0, 2): ["ba"]},  # hom(x,y) composes
            {(0, 1): ["a"], (1, 2): ["b"]},  # a composite of length exactly k
        ],
    )
    def test_mask_check_on_minimal_violations(self, given):
        base = build_language_quantale(["a", "b"], 2)
        homs = [{i: frozenset({()})} for i in range(3)]
        for (i, j), words in given.items():
            homs[i][j] = frozenset(tuple(w) for w in words)
        a = VCategory(base, ["x", "y", "z"], [0, 0, 0], homs)
        assert not base.composition_law_holds(a.rows)
        assert validate_vcategory(a) == dense_validate(a) == ["composition fails at (x,y,z)"]

    @pytest.mark.parametrize("k", [2, 4])
    def test_mask_check_matches_dense_loop(self, k):
        base = build_language_quantale(["a", "b"], k)
        rng = random.Random(f"mask-{k}")
        broken = 0
        for case in range(4):
            n = 30
            a = free_vcategory(base, random_automaton_graph(rng, n))
            assert validate_vcategory(a) == dense_validate(a) == []
            assert base.composition_law_holds(a.rows)
            for edit in ("remove", "add", "add the empty word"):
                homs = [dict(row) for row in a.row_maps]
                if edit == "remove":
                    i, j = rng.choice([(i, j) for i in range(n) for j in homs[i]])
                    homs[i][j] -= {rng.choice(sorted(homs[i][j]))}
                else:
                    i, j = rng.sample(range(n), 2)
                    homs[i][j] = a.hom(i, j) | {rng.choice(base.words) if edit == "add" else ()}
                b = VCategory(base, a.objects, a.extents, homs)
                expected = dense_validate(b)
                assert validate_vcategory(b) == expected, case
                law_fails = any(m.startswith("composition") for m in expected)
                assert base.composition_law_holds(b.rows) is not law_fails, case
                broken += law_fails
        assert broken >= 4


class TestHomBoundary:
    def test_constructor_rejects_hom_outside_lattice(self, Q2, QL):
        with pytest.raises(UnknownElement):
            VCategory(Q2, ["x"], [0], [{0: 5}])
        with pytest.raises(UnknownElement):
            VCategory(QL, ["x"], [0], [{0: frozenset({("m", "m", "m")})}])
        with pytest.raises(UnknownElement):
            VCategory(QL, ["x", "y"], [0, 0], [{0: frozenset({()}), 1: 1}, {0: 0, 1: frozenset({()})}])

    def test_value_equal_to_bottom_must_still_be_an_element(self, QL):
        # the truth values with bottom at index 1: True == 1, but is no element
        lat = TableLattice(["true", "false"], [(0, 0), (1, 1), (1, 0)])
        table = [[0, 1], [1, 1]]
        base = TableQuantaloid(["*"], {(0, 0): lat}, {(0, 0, 0): table}, [0])
        assert validate_quantaloid(base).violations == [] and lat.bottom == 1
        assert VCategory(base, ["x", "y"], [0, 0], [{0: 0, 1: 1}, {0: 1, 1: 0}]).rows == (
            ((0, 0, lat),),
            ((1, 0, lat),),
        )
        with pytest.raises(UnknownElement):
            VCategory(base, ["x", "y"], [0, 0], [{0: 0, 1: True}, {0: 1, 1: 0}])
        # a plain set equals the empty language, but is no frozenset
        with pytest.raises(UnknownElement):
            unit = frozenset({()})
            VCategory(QL, ["x", "y"], [0, 0], [{0: unit, 1: set()}, {0: frozenset(), 1: unit}])

    def test_table_document_with_foreign_hom_exits_2(self, tmp_path, capsys):
        docs = [
            {"schema": SCHEMA, "name": "Q", "kind": "quantaloid", "construction": "boolean"},
            {
                "schema": SCHEMA, "name": "BAD", "kind": "vcategory", "base": "Q",
                "objects": [{"name": "x", "extent": "*"}], "homs": {"x,x": 5},
            },
        ]
        for doc in docs:
            (tmp_path / f"{doc['name']}.json").write_text(json.dumps(doc))
        code = main(["--paths", str(tmp_path), "bisimilar", "--a", "BAD", "--b", "BAD"])
        assert code == 2
        assert "UnknownElement" in json.loads(capsys.readouterr().out)["details"]["error"]


class TestValidateVFunctor:
    def test_identity_valid(self, Q2):
        a = p01(Q2)
        assert validate_vfunctor(VFunctor.identity(a)) == []

    def test_codiscrete_collapse_valid(self, Q2):
        c = codisc2(Q2)
        p = point(Q2)
        assert validate_vfunctor(VFunctor(c, p, [0, 0])) == []

    def test_hom_shrink_reported(self, Q2):
        # reversed preorder map shrinks the hom between the two points
        a = p01(Q2)
        b = VCategory(Q2, ["b0", "b1"], [0, 0], [{0: 1, 1: 0}, {0: 1, 1: 1}])
        f = VFunctor(a, b, [0, 1])
        assert any("shrinks" in v for v in validate_vfunctor(f))

    def test_base_mismatch(self, Q2, QL):
        a = point(Q2)
        b = loop1(QL)
        with pytest.raises(BaseMismatch):
            validate_vfunctor(VFunctor(a, b, [0]))


def product(a, b):
    """The product: the pullback of the maps into the terminal enrichment."""
    one = terminal(a.base)
    return pullback(to_terminal(a, one), to_terminal(b, one))


class TestProduct:
    def test_with_terminal_is_isomorphic(self, Q2):
        a = p01(Q2)
        one = terminal(Q2)
        prod, to_a, _ = product(a, one)
        assert prod.n_objects == a.n_objects
        assert isomorphic_by(prod, a, to_a.mapping)

    def test_product_of_preorders(self, Q2):
        a = p01(Q2)
        prod, _, _ = product(a, a)
        # componentwise order on pairs
        idx = {name: i for i, name in enumerate(prod.objects)}
        assert prod.hom(idx["(a0|a0)"], idx["(a1|a1)"]) == 1
        assert prod.hom(idx["(a1|a0)"], idx["(a0|a1)"]) == 0

    def test_empty_fiber(self, QL):
        a = aut1(QL)
        empty = VCategory(QL, [], [], [])
        prod, _, _ = product(a, empty)
        assert prod.n_objects == 0

    def test_projections_are_functors(self, Q2):
        a, b = p01(Q2), codisc2(Q2)
        prod, to_a, to_b = product(a, b)
        assert validate_vfunctor(to_a) == []
        assert validate_vfunctor(to_b) == []


class TestPullback:
    def test_along_identities_is_product(self, Q2):
        a, b = p01(Q2), codisc2(Q2)
        one = terminal(Q2)
        pb, to_a, to_b = pullback(to_terminal(a, one), to_terminal(b, one))
        # every extent-matching pair, with the meets of the factors' homs
        pairs = [(to_a(x), to_b(x)) for x in range(pb.n_objects)]
        assert pairs == [
            (i, j)
            for i in range(a.n_objects)
            for j in range(b.n_objects)
            if a.extents[i] == b.extents[j]
        ]
        for x, (i1, j1) in enumerate(pairs):
            for y, (i2, j2) in enumerate(pairs):
                lat = a.hom_lattice(i1, i2)
                assert pb.hom(x, y) == lat.meet([a.hom(i1, i2), b.hom(j1, j2)])

    def test_of_identity_along_identity(self, Q2):
        a = p01(Q2)
        f = VFunctor.identity(a)
        pb, _, _ = pullback(f, f)
        assert pb.n_objects == a.n_objects

    def test_universal_property_brute_force(self, Q2):
        a, b = p01(Q2), codisc2(Q2)
        one = terminal(Q2)
        f, g = to_terminal(a, one), to_terminal(b, one)
        pb, pa, pb_leg = pullback(f, g)
        assert pa.then(f).mapping == pb_leg.then(g).mapping
        for c in (point(Q2), p01(Q2)):
            for qa in enumerate_vfunctors(c, a):
                for qb in enumerate_vfunctors(c, b):
                    if qa.then(f).mapping != qb.then(g).mapping:
                        continue
                    mediators = [
                        u
                        for u in enumerate_vfunctors(c, pb)
                        if u.then(pa).mapping == qa.mapping
                        and u.then(pb_leg).mapping == qb.mapping
                    ]
                    assert len(mediators) == 1


class TestUniversalProperties:
    def test_product_mediators_unique(self, Q2):
        a, b = p01(Q2), codisc2(Q2)
        prod, to_a, to_b = product(a, b)
        for c in (point(Q2), p01(Q2)):
            for qa in enumerate_vfunctors(c, a):
                for qb in enumerate_vfunctors(c, b):
                    mediators = [
                        u
                        for u in enumerate_vfunctors(c, prod)
                        if u.then(to_a).mapping == qa.mapping
                        and u.then(to_b).mapping == qb.mapping
                    ]
                    assert len(mediators) == 1

    def test_coproduct_mediators_unique(self, Q2):
        a, b = point(Q2), p01(Q2)
        total, (inj_a, inj_b) = coproduct([a, b])
        for c in (p01(Q2), codisc2(Q2)):
            for qa in enumerate_vfunctors(a, c):
                for qb in enumerate_vfunctors(b, c):
                    mediators = [
                        u
                        for u in enumerate_vfunctors(total, c)
                        if inj_a.then(u).mapping == qa.mapping
                        and inj_b.then(u).mapping == qb.mapping
                    ]
                    assert len(mediators) == 1


class TestTerminal:
    def test_over_boolean(self, Q2):
        one = terminal(Q2)
        assert one.n_objects == 1
        assert one.hom(0, 0) == 1
        assert validate_vcategory(one) == []

    def test_unique_map_from_fixture(self, QL):
        a = aut1(QL)
        one = terminal(QL)
        maps = enumerate_vfunctors(a, one)
        assert len(maps) == 1
        assert maps[0].mapping == to_terminal(a, one).mapping

    def test_over_metric_grid(self):
        base = m3()
        one = terminal(base)
        # top of the reversed grid is numeric zero
        assert base.hom(0, 0).name_of(one.hom(0, 0)) == "0"


class TestCoproduct:
    def test_single_summand(self, Q2):
        a = p01(Q2)
        total, (inj,) = coproduct([a])
        assert isomorphic_by(a, total, inj.mapping)

    def test_cross_homs_are_bottom(self, Q2):
        a, b = p01(Q2), point(Q2)
        total, _ = coproduct([a, b])
        idx = {name: i for i, name in enumerate(total.objects)}
        assert total.hom(idx["a0#0"], idx["p#1"]) == 0

    def test_sizes_add(self, QL):
        total, injections = coproduct([aut1(QL), loop1(QL)])
        assert total.n_objects == 3
        assert all(validate_vfunctor(i) == [] for i in injections)
        assert validate_vcategory(total) == []


def as_table(base, extents, rows):
    """The dense table of ``{target: hom}`` rows, read through ``hom``."""
    n = len(extents)
    a = VCategory(base, [f"x{i}" for i in range(n)], extents, rows)
    return [[a.hom(i, j) for j in range(n)] for i in range(n)]


def naive_closure(base, extents, edges):
    """Oracle: the ascending closure that looks up every lattice and
    composes every cell on every pass, with no cache."""
    n = len(extents)
    homs = []
    for i in range(n):
        row = []
        for j in range(n):
            lat = base.hom(extents[i], extents[j])
            start = [lab for s, t, lab in edges if s == i and t == j]
            if i == j:
                start.append(base.unit(extents[i]))
            row.append(lat._join(start))
        homs.append(row)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    lat = base.hom(extents[i], extents[j])
                    comp = base.compose(
                        extents[i], extents[k], extents[j], homs[i][k], homs[k][j]
                    )
                    if not lat._leq(comp, homs[i][j]):
                        homs[i][j] = lat._join([homs[i][j], comp])
                        changed = True
    return homs


def flipped_q2():
    """Two objects, every hom the truth values, but a hom into the second
    object stores true as index 0: one pair of indices composes to
    different values over different extents."""
    truth = TableLattice.boolean()
    flipped = TableLattice(["true", "false"], [(0, 0), (1, 1), (1, 0)])
    homs = {(a, b): truth if b == 0 else flipped for a in range(2) for b in range(2)}

    def flip(b, x):  # an index of a hom into object b <-> its truth value
        return int(x ^ (b == 1))

    tables = {
        (a, b, c): [[flip(c, flip(b, f) & flip(c, g)) for g in (0, 1)] for f in (0, 1)]
        for a, b, c in itertools.product(range(2), repeat=3)
    }
    return TableQuantaloid(["u", "v"], homs, tables, [1, 0])


CLOSURE_BASES = {
    **ORACLE_BASES,
    "FLIPPED_Q2": flipped_q2,
    "S(T3)": lambda: build_S_quantaloid(
        FiniteCategory.poset(["0", "1", "2"], [(i, j) for i in range(3) for j in range(i, 3)])
    ),
}


def random_labelled_graph(base, rng, n):
    """Random extents and edges, with parallel edges, self-loops and
    bottom labels among them."""
    extents = [rng.randrange(base.n_objects) for _ in range(n)]
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        s = rng.randrange(n)
        t = s if rng.random() < 0.2 else rng.randrange(n)
        lat = base.hom(extents[s], extents[t])
        edges.append((s, t, lat.bottom if rng.random() < 0.2 else lat.sample(rng)))
        if rng.random() < 0.2:
            edges.append((s, t, lat.sample(rng)))
    return extents, edges


# the generic closure, called unbound: a language base overrides it with its sweep
kleene_closure = Quantaloid.free_homs


class TestKleeneClosure:
    """The cached generic closure against ``naive_closure``."""

    def test_flipped_base_is_a_quantaloid(self):
        assert validate_quantaloid(flipped_q2()).ok

    @pytest.mark.parametrize("name", sorted(CLOSURE_BASES))
    def test_matches_naive_closure(self, name):
        base = CLOSURE_BASES[name]()
        rng = random.Random(f"closure-{name}")
        seen = collections.Counter()
        for case in range(30):
            extents, edges = random_labelled_graph(base, rng, rng.randint(1, 8))
            assert as_table(base, extents, kleene_closure(base, extents, edges)) == naive_closure(
                base, extents, edges
            ), case
            pairs = collections.Counter((s, t) for s, t, _ in edges)
            seen["parallel"] += max(pairs.values()) > 1
            seen["self-loop"] += any(s == t for s, t, _ in edges)
            seen["bottom"] += any(
                lab == base.hom(extents[s], extents[t]).bottom for s, t, lab in edges
            )
            seen["mixed"] += len(set(extents)) > 1
        assert min(seen[k] for k in ("parallel", "self-loop", "bottom")) >= 5, seen
        assert (seen["mixed"] >= 5) is (base.n_objects > 1), seen

    @pytest.mark.parametrize("name", sorted(CLOSURE_BASES))
    def test_matches_naive_closure_on_larger_graphs(self, name):
        base = CLOSURE_BASES[name]()
        rng = random.Random(f"closure-large-{name}")
        for case in range(3):
            extents, edges = random_labelled_graph(base, rng, rng.randint(15, 30))
            assert as_table(base, extents, kleene_closure(base, extents, edges)) == naive_closure(
                base, extents, edges
            ), case

    @pytest.mark.parametrize("name", sorted(CLOSURE_BASES))
    @pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle"])
    def test_matches_naive_closure_on_long_paths(self, name, cycle):
        """A path through every object of one extent, each step labelled
        with the unit joined with a random element, and a chord forward
        from every third object.  A target that a chord reaches early
        grows again when the path arrives, so the worklist queues it more
        than once (on these seeds, in 47 of the 48 cases, and on every
        base); the cycle's edge back to the start carries each growth
        around again."""
        base = CLOSURE_BASES[name]()
        rng = random.Random(f"closure-path-{name}-{cycle}")
        for case in range(3):
            n = rng.randint(15, 30)
            e = rng.randrange(base.n_objects)
            lat = base.hom(e, e)
            edges = [(i, i + 1, lat.join([base.unit(e), lat.sample(rng)])) for i in range(n - 1)]
            edges += [(i, rng.randrange(i + 2, n), lat.sample(rng)) for i in range(0, n - 2, 3)]
            if cycle:
                edges.append((n - 1, 0, lat.sample(rng)))
            extents = [e] * n
            assert as_table(base, extents, kleene_closure(base, extents, edges)) == naive_closure(
                base, extents, edges
            ), case

    @pytest.mark.parametrize("name", sorted(CLOSURE_BASES))
    def test_each_distinct_composite_is_made_once(self, name, monkeypatch):
        base = CLOSURE_BASES[name]()
        rng = random.Random(f"closure-once-{name}")
        calls = collections.Counter()
        compose = base.compose

        def counted(*args):
            calls[args] += 1
            return compose(*args)

        monkeypatch.setattr(base, "compose", counted)
        for case in range(10):
            calls.clear()
            kleene_closure(base, *random_labelled_graph(base, rng, rng.randint(1, 8)))
            assert calls and max(calls.values()) == 1, case


class TestFreeVCategory:
    def test_edgeless(self, QL):
        a = free_vcategory(
            QL, EnrichedGraph(vertices=[("x", 0), ("y", 0)], edges=[])
        )
        assert a.hom(0, 0) == frozenset({()})
        assert a.hom(0, 1) == frozenset()

    def test_aut1_homs(self, QL):
        a = aut1(QL)
        assert a.hom(0, 0) == frozenset({()})
        assert a.hom(0, 1) == frozenset({("m",)})
        assert a.hom(1, 1) == frozenset({()})
        assert a.hom(1, 0) == frozenset()

    def test_loop_saturates_at_cutoff(self, QL):
        b = loop1(QL)
        assert b.hom(0, 0) == frozenset({(), ("m",), ("m", "m")})

    def test_bad_edge_label(self, Q2):
        with pytest.raises(TypeMismatch):
            free_vcategory(
                Q2, EnrichedGraph(vertices=[("x", 0)], edges=[(0, 0, 7)])
            )

    def test_fast_path_matches_generic_closure(self, QL):
        graph = EnrichedGraph(
            vertices=[("x", 0), ("y", 0)],
            edges=[(0, 1, frozenset({("m",)})), (1, 0, frozenset({(), ("m",)}))],
        )
        fast = free_vcategory(QL, graph)
        slow = VCategory(QL, fast.objects, fast.extents, kleene_closure(QL, [0, 0], graph.edges))
        assert fast.rows == slow.rows

    def test_free_over_boolean_is_reachability(self, Q2):
        graph = EnrichedGraph(
            vertices=[("x", 0), ("y", 0), ("z", 0)],
            edges=[(0, 1, 1), (1, 2, 1)],
        )
        a = free_vcategory(Q2, graph)
        assert a.hom(0, 2) == 1
        assert a.hom(2, 0) == 0


class TestEnumerateVFunctors:
    def test_terminal_to_terminal(self, Q2):
        one = terminal(Q2)
        assert len(enumerate_vfunctors(one, one)) == 1

    def test_aut1_into_loop1(self, QL):
        assert len(enumerate_vfunctors(aut1(QL), loop1(QL))) == 1

    def test_empty_target(self, QL):
        a = aut1(QL)
        empty = VCategory(QL, [], [], [])
        assert enumerate_vfunctors(a, empty) == []

    def test_cap(self, Q2):
        # seven objects over one base object: 7^7 candidate maps, over the cap
        n = 7
        homs = [dict.fromkeys(range(n), 1) for _ in range(n)]
        c = VCategory(Q2, [f"c{i}" for i in range(n)], [0] * n, homs)
        assert n**n > MAX_CANDIDATE_MAPS
        with pytest.raises(SizeLimit, match=f"more than {MAX_CANDIDATE_MAPS} candidate maps"):
            enumerate_vfunctors(c, c)


class TestLaxRelational:
    def _presentation(self):
        from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid

        cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        base = PowersetCatQuantaloid(cat)
        arrow = next(
            m for m in range(len(cat.morphisms)) if cat.mor_src(m) == 0 and cat.mor_tgt(m) == 1
        )
        pres = LaxRelationalPresentation(
            cat,
            fibers=[["x0", "x1"], ["y0"]],
            relations={
                cat.identities[0]: {(0, 0), (1, 1)},
                cat.identities[1]: {(0, 0)},
                arrow: {(0, 0)},
            },
        )
        return base, pres, arrow

    def test_one_point_round_trip(self):
        base, pres, arrow = self._presentation()
        a = laxrel_to_vcat(pres, base)
        assert validate_vcategory(a) == []
        back = vcat_to_laxrel(a)
        assert back.fibers == pres.fibers
        assert back.relations == pres.relations

    def test_membership_matches_relation(self):
        base, pres, arrow = self._presentation()
        a = laxrel_to_vcat(pres, base)
        assert arrow in a.hom(0, 2)  # x0 -> y0 carries the arrow
        assert arrow not in a.hom(1, 2)

    def test_random_round_trips(self):
        from enrbisim.cts import FiniteCategory, PowersetCatQuantaloid

        rng = random.Random(11)
        cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        base = PowersetCatQuantaloid(cat)
        arrow = next(
            m
            for m in range(len(cat.morphisms))
            if cat.mor_src(m) == 0 and cat.mor_tgt(m) == 1
        )
        for _ in range(30):
            fibers = [["a", "b"][: rng.randint(1, 2)], ["c", "d"][: rng.randint(1, 2)]]
            rel_id0 = {(i, i) for i in range(len(fibers[0]))}
            rel_id1 = {(i, i) for i in range(len(fibers[1]))}
            cross = {
                (i, j)
                for i in range(len(fibers[0]))
                for j in range(len(fibers[1]))
                if rng.random() < 0.6
            }
            pres = LaxRelationalPresentation(
                cat,
                fibers,
                {cat.identities[0]: rel_id0, cat.identities[1]: rel_id1, arrow: cross},
            )
            back = vcat_to_laxrel(laxrel_to_vcat(pres, base))
            assert back.fibers == pres.fibers
            assert back.relations == pres.relations


def laxrel_violations(p: LaxRelationalPresentation) -> list[tuple]:
    """The relational oracle: where an identity misses relating a fiber
    element to itself, and where a composite's relation misses a composite
    pair of its factors' relations."""
    cat, rel = p.cat, p.relations
    out = [(c, i) for c, fiber in enumerate(p.fibers) for i in range(len(fiber))
           if (i, i) not in rel.get(cat.identities[c], ())]
    for f, g in itertools.product(range(len(cat.morphisms)), repeat=2):
        if cat.mor_tgt(f) == cat.mor_src(g):
            fg = rel.get(cat.compose_mor(f, g), ())
            out += [(f, g, x, z) for x, y in rel.get(f, ()) for y2, z in rel.get(g, ())
                    if y == y2 and (x, z) not in fg]
    return out


LAXREL_POSETS = {
    "chain2": (["0", "1"], [(0, 0), (0, 1), (1, 1)]),
    "chain3": (["0", "1", "2"], [(i, j) for i in range(3) for j in range(i, 3)]),
    "vee": (["b", "l", "r"], [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]),
}


class TestLaxRelationalCorrespondence:
    """Enrichments over a category's powerset base are exactly its
    lax-relational presentations: an enrichment read as relations and built
    again is itself, and relations build an enrichment exactly when they
    are lax."""

    @pytest.mark.parametrize("poset", list(LAXREL_POSETS))
    def test_enrichment_round_trips_through_its_relations(self, poset):
        base = PowersetCatQuantaloid(FiniteCategory.poset(*LAXREL_POSETS[poset]))
        rng = random.Random(f"laxrel-round-trip:{poset}")
        for _ in range(40):
            a = random_vcategory(base, rng, max_objects=6, density=0.4)
            back = laxrel_to_vcat(vcat_to_laxrel(a), base)
            # the presentation lists the objects fiber by fiber
            order = sorted(range(a.n_objects), key=a.extents.__getitem__)
            assert back.objects == [a.objects[i] for i in order]
            assert isomorphic_by(a, back, [order.index(i) for i in range(a.n_objects)])

    @pytest.mark.parametrize("poset", list(LAXREL_POSETS))
    def test_relations_build_an_enrichment_exactly_when_lax(self, poset):
        cat = FiniteCategory.poset(*LAXREL_POSETS[poset])
        base = PowersetCatQuantaloid(cat)
        rng = random.Random(f"laxrel-oracle:{poset}")
        verdicts = collections.Counter()
        for _ in range(200):
            fibers = [[f"{name}{i}" for i in range(rng.randint(0, 2))] for name in cat.objects]
            relations = {
                m: {(i, j) for i in range(len(fibers[cat.mor_src(m)]))
                    for j in range(len(fibers[cat.mor_tgt(m)])) if rng.random() < 0.7}
                for m in range(len(cat.morphisms))
            }
            p = LaxRelationalPresentation(cat, fibers, relations)
            lax = laxrel_violations(p) == []
            verdicts[lax] += 1
            if lax:
                assert vcat_to_laxrel(laxrel_to_vcat(p, base)) == p
            else:
                with pytest.raises(ValidationError, match="presentation invalid"):
                    laxrel_to_vcat(p, base)
        assert verdicts[True] and verdicts[False], verdicts


class TestSlice:
    def test_slice_of_terminal_is_base(self, Q2):
        one = terminal(Q2)
        va = slice_quantaloid(one)
        assert validate_quantaloid(va).ok
        assert va.hom(0, 0).size == Q2.hom(0, 0).size

    def test_identity_functor_encodes_to_full_homs(self, Q2):
        a = p01(Q2)
        va = slice_quantaloid(a)
        s = encode_slice(va, VFunctor.identity(a))
        assert validate_vcategory(s) == []
        assert s.hom(0, 1) == a.hom(0, 1)

    def test_round_trip_on_random_slices(self, QL):
        a = aut1(QL)
        va = slice_quantaloid(a)
        assert validate_quantaloid(va).ok
        sources = [loop1(QL), aut1(QL)]
        for x in sources:
            for f in enumerate_vfunctors(x, a):
                s = encode_slice(va, f)
                assert validate_vcategory(s) == []
                g = decode_slice(va, s)
                assert g.mapping == f.mapping
                assert same_presentation(g.source, x)


def assert_sparse_rows(a):
    """No row holds a bottom, rows are in target order, and ``hom`` reads
    the extent pair's bottom exactly where the row has no entry."""
    for i, row in enumerate(a.rows):
        targets = [j for j, _, _ in row]
        assert targets == sorted(set(targets)), a
        assert all(x != lat.bottom for _, x, lat in row), a
        for j in range(a.n_objects):
            bottom = a.hom_lattice(i, j).bottom
            assert (a.hom(i, j) == bottom) is (j not in targets), (a, i, j)


class TestBuilderInvariants:
    def test_every_builder_keeps_sparse_rows(self, tmp_path):
        from enrbisim.cli import default_fixture_paths
        from enrbisim.cob import apply_cob
        from enrbisim.cobdocs import monoid_congruence_tse, monoid_morphism_pairs, right_adjoint_cob
        from enrbisim.documents import load_bundle
        from enrbisim.jsondocs import serialize
        from enrbisim.witness import quotient
        from enrbisim.generators import cover_od, random_bisim_equivalence

        rng = random.Random("builders")
        qlm, qln = ql(("m",), 2), ql(("n",), 2)
        relabel = monoid_congruence_tse(qlm, qln, monoid_morphism_pairs({"m": ("n",)}, qlm, qln))
        built = collections.Counter()

        def check(kind, a):
            assert_sparse_rows(a)
            built[kind] += 1

        bundle = load_bundle(default_fixture_paths())
        for case in range(6):
            for base in (q2(), m3(), bp2(), qlm, build_S_quantaloid(
                FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
            )):
                a = random_vcategory(base, rng, max_objects=5, density=0.4)
                b = random_vcategory(base, rng, max_objects=4, density=0.4)
                check("free_vcategory, " + ("path_homs" if base is qlm else "closure"), a)
                check("quotient", quotient(a, random_bisim_equivalence(a, rng))[0])
                one = terminal(base)
                check("terminal", one)
                check("pullback", pullback(to_terminal(a, one), to_terminal(b, one))[0])
                check("coproduct", coproduct([a, b])[0])
                check("cover", cover_od(a, [rng.randint(1, 2) for _ in range(a.n_objects)]).source)
                va = slice_quantaloid(b)
                for f in enumerate_vfunctors(a, b)[:2]:
                    s = encode_slice(va, f)
                    check("encode_slice", s)
                    check("decode_slice", decode_slice(va, s).source)
            check("apply_cob", apply_cob(relabel, random_vcategory(qlm, rng, 4, 0.4)))
            check("right_adjoint_cob", right_adjoint_cob(relabel, random_vcategory(qln, rng, 4, 0.4)))
            c = random_vcategory(bundle.get("M3"), rng, max_objects=5, density=0.4)
            bundle.objects["R"], bundle.kinds["R"] = c, "vcategory"
            for name in ("M3", "R"):
                (tmp_path / f"{name}.json").write_text(json.dumps(serialize(bundle, name)))
            check("table document", load_bundle([tmp_path]).get("R"))
        cat = FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
        arrow = next(m for m in range(len(cat.morphisms)) if cat.mor_src(m) < cat.mor_tgt(m))
        for case in range(6):
            fibers = [["a", "b"][: rng.randint(1, 2)], ["c", "d"][: rng.randint(1, 2)]]
            cross = {(i, j) for i in range(len(fibers[0])) for j in range(len(fibers[1]))
                     if rng.random() < 0.6}
            relations = {cat.identities[c]: {(i, i) for i in range(len(f))} for c, f in enumerate(fibers)}
            check("laxrel", laxrel_to_vcat(LaxRelationalPresentation(cat, fibers, relations | {arrow: cross})))
        assert min(built.values()) >= 6 and len(built) == 13, built
