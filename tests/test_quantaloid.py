import random
from fractions import Fraction

import pytest

from enrbisim.constructions import residual
from enrbisim.cts import FiniteCategory, build_S_quantaloid
from enrbisim.errors import BadGrid, NotComposable, SizeLimit, UnknownObject
from enrbisim.fixtures import bp2, m3, penta, q2, ql, rel1
from enrbisim.lattice import COMPOSE_BUDGET, TableLattice
from enrbisim.quantaloid import (
    INF,
    TableQuantaloid,
    _law_compositions,
    build_language_quantale,
    build_metric_quantale,
    build_rel_quantaloid,
    grid_value,
    tensor,
    validate_quantaloid,
)


def lang_elem(q, *words):
    return q.element(0, 0, frozenset(tuple(w) for w in words))


class TestValidate:
    def test_boolean_valid(self):
        assert validate_quantaloid(q2()).ok

    def test_language_valid(self):
        report = validate_quantaloid(ql())
        assert report.ok
        assert report.hom_distributive[(0, 0)]

    def test_metric_valid(self):
        assert validate_quantaloid(m3()).ok

    def test_rel_valid(self):
        report = validate_quantaloid(rel1())
        assert report.ok
        assert report.hom_distributive[(0, 0)]

    def test_powerset_valid(self):
        report = validate_quantaloid(bp2())
        assert report.ok
        assert all(report.hom_distributive.values())

    def test_pentagon_base_valid_but_not_distributive(self):
        report = validate_quantaloid(penta())
        assert report.ok
        assert not report.hom_distributive[(0, 1)]
        assert not penta().is_locally_distributive()

    def test_constant_bottom_tensor_breaks_units(self):
        lat = TableLattice.boolean()
        broken = TableQuantaloid(
            ["*"], {(0, 0): lat}, {(0, 0, 0): [[0, 0], [0, 0]]}, [1]
        )
        report = validate_quantaloid(broken)
        assert any("unit law" in v for v in report.violations)


class TestWorkBound:
    @pytest.mark.parametrize("build", [q2, ql, m3, rel1, bp2, penta])
    def test_count_is_the_compositions_made(self, build, monkeypatch):
        q = build()
        made = []
        compose = q.compose
        monkeypatch.setattr(q, "compose", lambda *args: made.append(1) or compose(*args))
        assert validate_quantaloid(q).ok
        n = q.n_objects
        sizes = [[q.hom(u, v).size for v in range(n)] for u in range(n)]
        assert _law_compositions(sizes) == len(made) <= COMPOSE_BUDGET

    def test_base_over_budget_is_not_certified(self):
        report = validate_quantaloid(build_language_quantale(["a", "b"], 2))
        assert report.violations == [
            "too large to validate: the law checks take 12649088 compositions, "
            f"over the budget of {COMPOSE_BUDGET}"
        ]


class TestHomCache:
    @pytest.mark.parametrize(
        "build",
        [q2, bp2, lambda: build_S_quantaloid(FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)]))],
    )
    def test_indices_out_of_range_raise_after_the_cache_fills(self, build):
        q = build()
        n = q.n_objects
        filled = {(u, v): q.hom(u, v) for u in range(n) for v in range(n)}
        for bad in (-1, n):
            with pytest.raises(UnknownObject):
                q.hom(bad, 0)
            with pytest.raises(UnknownObject):
                q.hom(0, bad)
        assert all(q.hom(u, v) is lat for (u, v), lat in filled.items())


class TestTensor:
    def test_unit_law(self):
        q = ql()
        f = lang_elem(q, ("m",))
        unit = q.element(0, 0, q.unit(0))
        assert tensor(q, unit, f).value == f.value

    def test_concatenation(self):
        q = ql()
        m = lang_elem(q, ("m",))
        assert tensor(q, m, m).value == frozenset({("m", "m")})

    def test_truncation_drops_long_words(self):
        q = ql()
        m = lang_elem(q, ("m",))
        mm = lang_elem(q, ("m", "m"))
        assert tensor(q, m, mm).value == frozenset()

    def test_not_composable(self):
        base = penta()
        f = base.element(0, 1, 2)
        with pytest.raises(NotComposable):
            tensor(base, f, f)


class TestResidual:
    def test_boolean_implication(self):
        q = q2()
        one = q.element(0, 0, 1)
        zero = q.element(0, 0, 0)
        assert residual(q, "right", one, zero).value == 0
        assert residual(q, "right", zero, zero).value == 1

    def test_language_residual_with_truncation(self):
        # largest L with {m}.L inside {mm}: mm itself is allowed because
        # the concatenation m.mm exceeds the cutoff and vanishes
        q = ql()
        m = lang_elem(q, ("m",))
        mm = lang_elem(q, ("m", "m"))
        r = residual(q, "right", m, mm)
        assert r.value == frozenset({("m",), ("m", "m")})

    def test_residual_universality(self):
        q = ql()
        hom = q.hom(0, 0)
        elems = list(hom.elements())
        for f in elems:
            for h in elems:
                r = residual(
                    q, "right", q.element(0, 0, f), q.element(0, 0, h)
                ).value
                assert hom.leq(q.compose(0, 0, 0, f, r), h)
                for g in elems:
                    if hom.leq(q.compose(0, 0, 0, f, g), h):
                        assert hom.leq(g, r)

    def test_multi_object_residuals(self):
        # residuals across distinct objects of the two-object base
        base = penta()
        hom01 = base.hom(0, 1)
        for f in base.hom(0, 0).elements():
            for h in hom01.elements():
                r = residual(
                    base, "right", base.element(0, 0, f), base.element(0, 1, h)
                )
                assert r.source == 0 and r.target == 1
                assert hom01.leq(base.compose(0, 0, 1, f, r.value), h)
                for g in hom01.elements():
                    if hom01.leq(base.compose(0, 0, 1, f, g), h):
                        assert hom01.leq(g, r.value)

    def test_left_residual(self):
        q = ql()
        hom = q.hom(0, 0)
        m = lang_elem(q, ("m",))
        mm = lang_elem(q, ("m", "m"))
        r = residual(q, "left", m, mm)
        assert hom.leq(q.compose(0, 0, 0, r.value, m.value), mm.value)


class TestRelQuantaloid:
    def test_repeated_set_element_rejected(self):
        with pytest.raises(ValueError):
            build_rel_quantaloid([[1, 2, 1]])

    def test_single_point(self):
        q = build_rel_quantaloid([[0]])
        assert q.hom(0, 0).size == 2
        assert q.unit(0) == frozenset({(0, 0)})

    def test_composition_by_hand(self):
        q = rel1()
        f = frozenset({(1, 2)})
        g = frozenset({(2, 1)})
        assert q.compose(0, 0, 0, f, g) == frozenset({(1, 1)})

    def test_identity_is_diagonal(self):
        assert rel1().unit(0) == frozenset({(1, 1), (2, 2)})

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            build_rel_quantaloid([list(range(6))], max_pairs=12)


class TestPowersetQuantaloid:
    def test_two_point_poset_hom(self):
        q = bp2()
        assert q.hom(0, 1).size == 2  # empty and the unique arrow

    def test_unit_is_identity_singleton(self):
        q = bp2()
        assert q.unit(0) == frozenset({q.cat.identities[0]})

    def test_one_object_one_identity_matches_truth_values(self):
        from enrbisim.cts import FiniteCategory
        from enrbisim.constructions import build_powerset_quantaloid

        q = build_powerset_quantaloid(FiniteCategory.poset(["x"], [(0, 0)]))
        hom = q.hom(0, 0)
        assert hom.size == 2
        assert q.compose(0, 0, 0, hom.top, hom.top) == hom.top
        assert q.compose(0, 0, 0, hom.top, hom.bottom) == hom.bottom
        assert validate_quantaloid(q).ok


class TestLanguageQuantale:
    def test_element_count(self):
        q = ql()
        assert q.hom(0, 0).size == 8  # subsets of {e, m, mm}

    def test_unit_absorbs(self):
        q = ql()
        hom = q.hom(0, 0)
        for lang in hom.elements():
            assert q.compose(0, 0, 0, q.unit(0), lang) == lang
            assert q.compose(0, 0, 0, lang, q.unit(0)) == lang

    def test_tensor_distributes_over_joins(self):
        q = build_language_quantale(["a", "b"], 2)
        hom = q.hom(0, 0)
        rng = random.Random(7)
        for _ in range(50):
            f = hom.sample(rng)
            parts = [hom.sample(rng) for _ in range(3)]
            lhs = q.compose(0, 0, 0, f, hom.join(parts))
            rhs = hom.join(q.compose(0, 0, 0, f, p) for p in parts)
            assert lhs == rhs

    def test_word_cap(self):
        with pytest.raises(SizeLimit):
            build_language_quantale(["a", "b"], 30, max_words=1000)

    @pytest.mark.parametrize("alphabet", [["m"], ["a", "b"]])
    def test_huge_cutoff_is_refused_before_building(self, alphabet):
        # one letter: few words but k(k+1)/2 symbols; two letters: 2^k words
        with pytest.raises(SizeLimit):
            build_language_quantale(alphabet, 10**9)

    def test_empty_alphabet_has_only_the_empty_word(self):
        q = build_language_quantale([], 10**9)
        assert q.words == [()]
        assert q.compose(0, 0, 0, q.unit(0), q.unit(0)) == q.unit(0)


class TestMetricQuantale:
    def test_truncated_addition(self):
        q = m3()
        one = q.hom(0, 0).index_of("1")
        two = q.hom(0, 0).index_of("2")
        inf = q.hom(0, 0).index_of("inf")
        assert q.compose(0, 0, 0, one, one) == two
        assert q.compose(0, 0, 0, two, one) == inf

    def test_join_is_minimum(self):
        q = m3()
        hom = q.hom(0, 0)
        assert hom.join([1, 2]) == 1

    def test_zero_is_unit(self):
        q = m3()
        for x in q.hom(0, 0).elements():
            assert q.compose(0, 0, 0, q.unit(0), x) == x

    def test_bad_grids(self):
        with pytest.raises(BadGrid):
            build_metric_quantale([1, 2, INF])
        with pytest.raises(BadGrid):
            build_metric_quantale([0, 1, 2])
        with pytest.raises(BadGrid):
            build_metric_quantale([0, 2, 1, INF])

    def test_uneven_grid_reports_associativity_break(self):
        q = build_metric_quantale([0, 1, 2, 5, INF])
        assert q.notes
        assert not validate_quantaloid(q).ok

    @pytest.mark.parametrize(
        "text",
        ["0", "1", "007", "10", "1_0", "1_000", " 3", "3 ", "+3", "-3", "1/2", "4/2",
         "0.5", "2.0", "1e2", "\u0663", "\u00b2", "x", "", "1/0", "inf", "oo"],
    )
    def test_grid_value_matches_fraction_parsing(self, text):
        """The int fast path reads every spelling as ``Fraction`` does."""

        def reference(text):
            if text in ("inf", "Infinity", "oo"):
                return INF
            frac = Fraction(text)
            return int(frac) if frac.denominator == 1 else frac

        try:
            want = reference(text)
        except (ValueError, ZeroDivisionError) as err:
            with pytest.raises(type(err)):
                grid_value(text)
            return
        got = grid_value(text)
        assert (type(got), got) == (type(want), want)
