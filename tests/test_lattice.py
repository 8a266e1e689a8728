import random

import pytest
from hypothesis import given, settings, strategies as st

from enrbisim.constructions import PrincipalDownsetLattice, verify_adjunction
from enrbisim.errors import NoAdjoint, SizeLimit, UnknownElement
from enrbisim.fixtures import penta
from enrbisim.lattice import (
    MonotoneMap,
    PowersetLattice,
    TableLattice,
    right_adjoint_of_monotone,
)


def diamond():
    # bot < a,b < top with a,b incomparable (the 2x2 Boolean algebra)
    return TableLattice(
        ["bot", "a", "b", "top"],
        [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
    )


def pentagon():
    return TableLattice(
        ["bot", "a", "b", "c", "top"],
        [
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 3), (1, 4), (2, 4), (3, 4),
        ],
    )


class TestTableLattice:
    def test_boolean_leq(self):
        two = TableLattice.boolean()
        assert two.leq(0, 1)
        assert not two.leq(1, 0)

    def test_reflexive(self):
        d = diamond()
        for x in d.elements():
            assert d.leq(x, x)

    def test_diamond_incomparable(self):
        d = diamond()
        assert not d.leq(1, 2)
        assert not d.leq(2, 1)

    def test_join_empty_is_bottom(self):
        d = diamond()
        assert d.join(()) == 0
        assert d.meet(()) == 3

    def test_join_of_incomparables(self):
        d = diamond()
        assert d.join([1, 2]) == 3
        assert d.meet([1, 2]) == 0

    def test_unknown_element(self):
        two = TableLattice.boolean()
        with pytest.raises(UnknownElement):
            two.leq(0, 5)
        with pytest.raises(UnknownElement):
            two.join([7])

    def test_validate_ok(self):
        assert diamond().validate() == []
        assert TableLattice.boolean().validate() == []

    def test_validate_missing_transitivity(self):
        broken = TableLattice(
            ["x", "y", "z"], [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
        )
        assert any("transitivity" in msg for msg in broken.validate())

    def test_validate_missing_bottom(self):
        two_points = TableLattice(["x", "y"], [(0, 0), (1, 1)])
        report = two_points.validate()
        assert any("no join" in msg for msg in report)
        assert any("no bottom" in msg for msg in report)

    def test_chain_is_distributive(self):
        assert TableLattice.chain(["0", "1", "2"]).is_distributive()

    def test_diamond_is_distributive(self):
        assert diamond().is_distributive()

    def test_pentagon_not_distributive(self):
        assert not pentagon().is_distributive()

    def test_reversed_grid_join_is_minimum(self):
        # ascending grid under the reversed order: join picks the least value
        grid = TableLattice(
            ["0", "1", "2", "inf"],
            [(i, j) for i in range(4) for j in range(4) if j <= i],
        )
        assert grid.join([1, 2]) == 1
        assert grid.bottom == 3
        assert grid.top == 0

    def test_dual_swaps_join_and_meet(self):
        d = diamond()
        dd = d.dual()
        for x in d.elements():
            for y in d.elements():
                assert d.join([x, y]) == dd.meet([x, y])
                assert d.meet([x, y]) == dd.join([x, y])


class TestPowersetLattice:
    def test_join_is_union(self):
        lat = PowersetLattice(["e", "m"])
        assert lat.join([frozenset({"m"}), frozenset({"e"})]) == frozenset({"e", "m"})

    def test_bottom_top(self):
        lat = PowersetLattice(["x", "y"])
        assert lat.bottom == frozenset()
        assert lat.top == frozenset({"x", "y"})

    def test_size_and_enumeration(self):
        lat = PowersetLattice(range(3))
        assert lat.size == 8
        assert len(list(lat.elements())) == 8

    def test_enumeration_cap(self):
        lat = PowersetLattice(range(40))
        with pytest.raises(SizeLimit):
            list(lat.elements())

    def test_always_distributive(self):
        assert PowersetLattice(range(4)).is_distributive()

    @given(st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_leq_is_inclusion(self, a, b):
        lat = PowersetLattice(range(6))
        assert lat.leq(frozenset(a), frozenset(b)) == (a <= b)


class TestPrincipalDownsetLattice:
    def test_distributive_exactly_below_a_chain(self):
        # the pentagon hom of penta(): below top lies the whole pentagon,
        # below c only the chain bot < a < c
        n5 = penta().hom(0, 1)
        assert not PrincipalDownsetLattice(n5, n5.index_of("top")).is_distributive()
        assert PrincipalDownsetLattice(n5, n5.index_of("c")).is_distributive()


class TestMonotoneAdjoints:
    def test_identity_adjoint(self):
        two = TableLattice.boolean()
        f = MonotoneMap.identity(two)
        g = right_adjoint_of_monotone(f)
        assert g.mapping == {0: 0, 1: 1}
        assert verify_adjunction(f, g)

    def test_constant_top_has_no_adjoint(self):
        # fails join preservation at the empty set: bottom must go to bottom
        two = TableLattice.boolean()
        f = MonotoneMap(two, two, {0: 1, 1: 1})
        with pytest.raises(NoAdjoint):
            right_adjoint_of_monotone(f)

    def test_diamond_collapse_has_no_adjoint(self):
        # a and b go to bottom but their join goes to top
        d = diamond()
        two = TableLattice.boolean()
        f = MonotoneMap(d, two, {0: 0, 1: 0, 2: 0, 3: 1})
        with pytest.raises(NoAdjoint):
            right_adjoint_of_monotone(f)

    def test_galois_property_exhaustive(self):
        # direct image along a surjection of chains preserves joins
        c3 = TableLattice.chain(["0", "1", "2"])
        two = TableLattice.boolean()
        f = MonotoneMap(c3, two, {0: 0, 1: 1, 2: 1})
        g = right_adjoint_of_monotone(f)
        for v in c3.elements():
            for w in two.elements():
                assert two.leq(f(v), w) == c3.leq(v, g(w))

    @settings(max_examples=50)
    @given(st.integers(0, 10_000))
    def test_join_preserving_maps_have_adjoints(self, seed):
        # any monotone map between chains preserves binary joins (= max);
        # it has an adjoint iff it also preserves bottom
        rng = random.Random(seed)
        src = TableLattice.chain([str(i) for i in range(4)])
        tgt = TableLattice.chain([str(i) for i in range(3)])
        values = sorted(rng.randrange(3) for _ in range(4))
        f = MonotoneMap(src, tgt, dict(enumerate(values)))
        if values[0] == 0:
            g = right_adjoint_of_monotone(f)
            assert verify_adjunction(f, g)
        else:
            with pytest.raises(NoAdjoint):
                right_adjoint_of_monotone(f)

    def test_monotone_check(self):
        two = TableLattice.boolean()
        f = MonotoneMap(two, two, {0: 1, 1: 0})
        assert f.check()

    def test_mapping_is_read_only(self):
        two = TableLattice.boolean()
        given = {0: 0, 1: 1}
        f = MonotoneMap(two, two, given)
        with pytest.raises(TypeError):
            f.mapping[0] = 1
        given[0] = 1  # the map keeps its own copy
        assert f(0) == 0


class TestJoinOrderProperties:
    @given(st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_join_monotone_in_subsets(self, s, t):
        lat = PowersetLattice(range(6))
        small = [frozenset({x}) for x in s & t]
        big = [frozenset({x}) for x in s | t]
        assert lat.leq(lat.join(small), lat.join(big))
