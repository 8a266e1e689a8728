"""Named fixture bases and enrichments used across tests and the CLI.

Each builder returns a fresh value; callers that need shared identity
(for base checks) should build once and pass the instance around.
"""

from __future__ import annotations

from .lattice import TableLattice
from .quantaloid import (
    INF,
    TableQuantaloid,
    build_boolean_quantale,
    build_language_quantale,
    build_metric_quantale,
    build_rel_quantaloid,
)
from .vcat import EnrichedGraph, VCategory, free_vcategory


def q2() -> TableQuantaloid:
    """Boolean base: one object, truth values, meet as composition."""
    return build_boolean_quantale()


def ql(alphabet=("m",), k: int = 2):
    """Truncated word languages; the default is a single letter, cutoff 2."""
    return build_language_quantale(alphabet, k)


def m3():
    """Metric grid 0 < 1 < 2 < infinity with truncated addition."""
    return build_metric_quantale([0, 1, 2, INF])


def rel1():
    """Relations over the single two-element set."""
    return build_rel_quantaloid([[1, 2]])


def bp2():
    """Powersets of the hom-sets of the two-point poset 0 <= 1."""
    from .constructions import build_powerset_quantaloid
    from .cts import FiniteCategory

    return build_powerset_quantaloid(
        FiniteCategory.poset(["0", "1"], [(0, 0), (0, 1), (1, 1)])
    )


def penta() -> TableQuantaloid:
    """A two-object base whose off-diagonal hom is the pentagon lattice.

    Composition with the one-point homs annihilates, so the structure is
    a genuine base even though one hom is not distributive.
    """
    n5 = TableLattice(
        ["bot", "a", "b", "c", "top"],
        [
            (0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 3), (1, 4), (2, 4), (3, 4),
        ],
    )
    two = TableLattice.boolean()
    one = TableLattice(["*"], [(0, 0)])
    homs = {(0, 0): two, (0, 1): n5, (1, 0): one, (1, 1): two}
    bool_table = [[0, 0], [0, 1]]
    tables = {
        (0, 0, 0): bool_table,
        (1, 1, 1): bool_table,
        # unit-lattice actions on the pentagon hom
        (0, 0, 1): [[0] * 5, list(range(5))],
        (0, 1, 1): [[0, 0], [0, 1], [0, 2], [0, 3], [0, 4]],
        # everything through the one-point hom collapses
        (0, 1, 0): [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
        (1, 0, 0): [[0, 0]],
        (1, 0, 1): [[0, 0, 0, 0, 0]],
        (1, 1, 0): [[0], [0]],
    }
    return TableQuantaloid(["u", "v"], homs, tables, [1, 1])


def aut1(base=None, letter: str = "m") -> VCategory:
    """Two states, one transition labelled by a single letter."""
    base = base or ql()
    lab = frozenset({(letter,)})
    return free_vcategory(
        base,
        EnrichedGraph(vertices=[("a0", 0), ("a1", 0)], edges=[(0, 1, lab)]),
    )


def loop1(base=None, letter: str = "m") -> VCategory:
    """One state with a single-letter loop; saturates at the cutoff."""
    base = base or ql()
    lab = frozenset({(letter,)})
    return free_vcategory(
        base, EnrichedGraph(vertices=[("b0", 0)], edges=[(0, 0, lab)])
    )


def p01(base=None) -> VCategory:
    """The two-point preorder a0 <= a1 over the Boolean base."""
    base = base or q2()
    return VCategory(base, ["a0", "a1"], [0, 0], [{0: 1, 1: 1}, {1: 1}])


def point(base=None) -> VCategory:
    """A single reflexive point over the Boolean base."""
    base = base or q2()
    return VCategory(base, ["p"], [0], [{0: 1}])


def codisc2(base=None) -> VCategory:
    """Two points with every hom at the top of the Boolean base."""
    base = base or q2()
    return VCategory(base, ["c0", "c1"], [0, 0], [{0: 1, 1: 1}, {0: 1, 1: 1}])
