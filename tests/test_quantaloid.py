import random
from fractions import Fraction

import pytest

from enrbisim.cts import FiniteCategory, build_S_quantaloid
from enrbisim.errors import BadGrid, NotComposable, ParseError, SizeLimit, UnknownElement, UnknownObject
from enrbisim.fixtures import bp2, m3, penta, q2, ql, rel1
from enrbisim.language import MAX_WORDS, build_language_quantale
from enrbisim.lattice import COMPOSE_BUDGET
from enrbisim.laws import _law_compositions, validate_quantaloid
from enrbisim.quantaloid import name_index, tensor
from enrbisim.rel import build_rel_quantaloid
from enrbisim.tables import INF, TableLattice, TableQuantaloid, build_metric_quantale, grid_value


def lang_elem(q, *words):
    return q.element(0, 0, frozenset(tuple(w) for w in words))


class TestValidate:
    def test_boolean_valid(self):
        assert validate_quantaloid(q2()).ok

    def test_language_valid(self):
        assert validate_quantaloid(ql()).ok
        assert ql().is_locally_distributive()

    def test_metric_valid(self):
        assert validate_quantaloid(m3()).ok

    def test_rel_valid(self):
        assert validate_quantaloid(rel1()).ok
        assert rel1().is_locally_distributive()

    def test_powerset_valid(self):
        assert validate_quantaloid(bp2()).ok
        assert bp2().is_locally_distributive()

    def test_pentagon_base_valid_but_not_distributive(self):
        q = penta()
        assert validate_quantaloid(q).ok
        assert not q.hom(0, 1).is_distributive()
        assert not q.is_locally_distributive()

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


class TestNameIndex:
    @pytest.mark.parametrize("error", [UnknownObject, UnknownElement, ParseError])
    @pytest.mark.parametrize("value", [["x"], {"x": 1}, "y", 0, None, True])
    def test_other_values_raise_its_own_error(self, error, value):
        lookup = name_index(["x", "0", "True"], "thing", error)
        with pytest.raises(error, match=r"^no thing named ") as caught:
            lookup(value)
        assert str(caught.value) == f"no thing named {value!r}"

    def test_names_are_looked_up_as_given(self):
        lookup = name_index(["x", "y", "x"])
        assert [lookup("x"), lookup("y")] == [0, 1]
        assert TableLattice.chain(["0", "1"]).index_of("1") == 1


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
        # a set of three has 9 pairs, within MAX_GENERATORS = 12; a set of four has 16
        assert build_rel_quantaloid([[0, 1, 2]]).hom(0, 0).size == 2**9
        with pytest.raises(SizeLimit, match=r"2\^16"):
            build_rel_quantaloid([[0, 1, 2, 3]])


class TestPowersetQuantaloid:
    def test_two_point_poset_hom(self):
        q = bp2()
        assert q.hom(0, 1).size == 2  # empty and the unique arrow

    def test_unit_is_identity_singleton(self):
        q = bp2()
        assert q.unit(0) == frozenset({q.cat.identities[0]})

    def test_one_object_one_identity_matches_truth_values(self):
        from enrbisim.cts import PowersetCatQuantaloid

        q = PowersetCatQuantaloid(FiniteCategory.poset(["x"], [(0, 0)]))
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
        # 2^20 - 1 words up to length 19 over two letters fit the cap; up to 20 do not
        assert sum(2**n for n in range(20)) <= MAX_WORDS < sum(2**n for n in range(21))
        with pytest.raises(SizeLimit, match=f"the words up to length 20 exceed the cap {MAX_WORDS}"):
            build_language_quantale(["a", "b"], 20)

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
        assert not hasattr(q, "notes")
        assert validate_quantaloid(q).violations == ["associativity fails at objects (0,0,0,0)"]

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
