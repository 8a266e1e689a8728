"""Two-sided enrichments and change of base.

A two-sided enrichment between two quantaloids is a span of object sets
together with a monotone hom-component per carrier pair, lax with
respect to composition and units; ``span_of_maps`` builds every one
from its hom maps.  Applying one to an enrichment changes its base.
When the left leg is a bijection and every component has a right
Galois adjoint, the adjoints form a span back from the target; when
that span is lax too, changing base along it is the right adjoint of
the change of base.  The spans that documents and constructions name,
the exhaustive lax check and the ``cob-*`` commands are ``cobdocs``'s;
four of their names still resolve here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from . import _moved
from .errors import BaseMismatch, NoAdjoint, SizeLimit, UnknownElement
from .lattice import Lattice
from .quantaloid import Quantaloid
from .vcat import MAX_PAIRS, VCategory, is_bottom


class MonotoneMap:
    """An order-preserving assignment between two finite lattices.

    ``mapping`` is a read-only view of a private copy of the assignment.
    """

    def __init__(self, source: Lattice, target: Lattice, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = MappingProxyType(dict(mapping))

    def __call__(self, x):
        try:
            return self.mapping[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is outside the map's domain") from None

    def __repr__(self):
        return f"MonotoneMap({self.source!r} -> {self.target!r})"

    def check(self) -> list[str]:
        """The map's faults: each key and each value is checked against its
        lattice once, and then, if all are elements, monotonicity."""
        out = [f"key {x!r} not in source" for x in self.mapping if not self.source.has_element(x)]
        for x in self.source.elements():
            if x not in self.mapping:
                out.append(f"domain misses {x!r}")
            elif not self.target.has_element(self.mapping[x]):
                out.append(f"value {self.mapping[x]!r} not in target")
        if out:
            return out
        for x in self.source.elements():
            for y in self.source.elements():
                if self.source._leq(x, y) and not self.target._leq(
                    self.mapping[x], self.mapping[y]
                ):
                    out.append(f"not monotone at {x!r} <= {y!r}")
        return out

    @classmethod
    def identity(cls, lat: Lattice) -> "MonotoneMap":
        return cls(lat, lat, {x: x for x in lat.elements()})

    @classmethod
    def from_function(cls, source: Lattice, target: Lattice, fn) -> "MonotoneMap":
        return cls(source, target, {x: fn(x) for x in source.elements()})


def adjunction_failure(left: MonotoneMap, right: MonotoneMap) -> tuple[Any, Any] | None:
    """The first ``(v, w)`` at which ``left(v) <= w  iff  v <= right(w)``
    fails, or None when ``left`` is left adjoint to ``right``.  Both maps
    must be total, with values in their lattices (``MonotoneMap.check``,
    or how they were built): the values are compared with the lattice
    cores."""
    src, tgt = left.source, left.target
    left_of, right_of = left.mapping, right.mapping
    targets = [(w, right_of[w]) for w in tgt.elements()]
    return next((
        (v, w)
        for v in src.elements()
        for w, rw in targets
        if tgt._leq(left_of[v], w) != src._leq(v, rw)
    ), None)


def right_adjoint_of_monotone(f: MonotoneMap) -> MonotoneMap:
    """Right Galois adjoint ``g(w) = join{v : f(v) <= w}`` of ``f``.

    The adjunction ``f(v) <= w  iff  v <= g(w)`` is verified before
    returning; it holds exactly when ``f`` preserves all joins.  ``f`` is
    checked first, so ``g`` is built on the lattice cores.  Both maps are
    then monotone, so the adjunction is its unit and counit, ``v <=
    g(f(v))`` and ``f(g(w)) <= w``: one checked ``leq`` per element, which
    also checks ``g``'s values.  Only a failure searches every pair
    (``adjunction_failure``), for the first one to name.
    """
    f.source.ensure_enumerable()
    f.target.ensure_enumerable()
    bad = f.check()
    if bad:
        raise NoAdjoint(f"map is not monotone: {bad[0]}")
    src, tgt = f.source, f.target
    graph = list(f.mapping.items())
    g = MonotoneMap(
        tgt, src, {w: src._join([v for v, fv in graph if tgt._leq(fv, w)]) for w in tgt.elements()}
    )
    f_of, g_of = f.mapping, g.mapping
    if not (all(src.leq(v, g_of[fv]) for v, fv in graph)
            and all(tgt.leq(f_of[gw], w) for w, gw in g_of.items())):
        failure = adjunction_failure(f, g)
        raise NoAdjoint(
            f"no right adjoint: adjunction fails at v={failure[0]!r}, w={failure[1]!r}"
            " (the map does not preserve all joins)"
        )
    return g


class TwoSidedEnrichment:
    """A span of carriers with a monotone map per carrier pair."""

    def __init__(
        self,
        source: Quantaloid,
        target: Quantaloid,
        carriers: list[str],
        minus: list[int],
        plus: list[int],
        components: dict[tuple[int, int], MonotoneMap],
    ):
        if len(carriers) != len(minus) or len(carriers) != len(plus):
            raise ValueError("carrier legs disagree in length")
        for u in minus:
            source.check_object(u)
        for v in plus:
            target.check_object(v)
        self.source = source
        self.target = target
        self.carriers = list(carriers)
        self.minus = list(minus)
        self.plus = list(plus)
        self.components = dict(components)

    @property
    def n_carriers(self) -> int:
        return len(self.carriers)

    def component(self, x: int, y: int) -> MonotoneMap:
        return self.components[(x, y)]

    def left_leg_bijective(self) -> bool:
        return sorted(self.minus) == list(range(self.source.n_objects))

    def object_action(self) -> list[int]:
        """Source object -> target object, when the left leg is a bijection."""
        if not self.left_leg_bijective():
            raise NoAdjoint("the left leg is not a bijection onto the source")
        action = [0] * self.source.n_objects
        for x in range(self.n_carriers):
            action[self.minus[x]] = self.plus[x]
        return action

    def __repr__(self):
        return f"TwoSidedEnrichment({len(self.carriers)} carriers)"


def span_of_maps(
    source: Quantaloid,
    target: Quantaloid,
    carriers: list[str],
    minus: list[int],
    plus: list[int],
    image: Callable[[int, int], Callable[[Any], Any]],
) -> TwoSidedEnrichment:
    """The span whose component at carriers ``(x, y)`` sends each element
    of hom(minus[x], minus[y]) of ``source`` to its value under the
    function ``image(x, y)`` in hom(plus[x], plus[y]) of ``target``."""
    components = {
        (x, y): MonotoneMap.from_function(
            source.hom(minus[x], minus[y]), target.hom(plus[x], plus[y]), image(x, y)
        )
        for x in range(len(carriers))
        for y in range(len(carriers))
    }
    return TwoSidedEnrichment(source, target, carriers, minus, plus, components)


def apply_cob(f: TwoSidedEnrichment, a: VCategory) -> VCategory:
    """Change the base of an enrichment along a two-sided enrichment.  It
    has a hom for each two (object, carrier) pairs of equal extent: more
    than ``MAX_PAIRS`` is a ``SizeLimit``, before any hom is mapped."""
    if a.base is not f.source:
        raise BaseMismatch("the enrichment does not live over the span's source")
    pairs = [
        (i, x)
        for i in range(a.n_objects)
        for x in range(f.n_carriers)
        if a.extents[i] == f.minus[x]
    ]
    if len(pairs) ** 2 > MAX_PAIRS:
        raise SizeLimit(f"{len(pairs)} (object, carrier) pairs give {len(pairs) ** 2} homs, "
                        f"more than the cap {MAX_PAIRS}")
    names = [f"({a.objects[i]}|{f.carriers[x]})" for i, x in pairs]
    extents = [f.plus[x] for _, x in pairs]
    positions: dict[int, list[int]] = {}  # object of `a` -> positions of its pairs
    of_carrier: dict[int, list[int]] = {}  # carrier -> positions of its pairs
    for q, (i, x) in enumerate(pairs):
        positions.setdefault(i, []).append(q)
        of_carrier.setdefault(x, []).append(q)
    # a component that keeps bottom at bottom maps only a's non-bottom homs;
    # at the pairs of any other component every hom is mapped
    loose: dict[int, list[int]] = {x: [] for x in of_carrier}  # carrier -> positions mapped in full
    for x1 in of_carrier:
        for x2, targets in of_carrier.items():
            comp = f.component(x1, x2)
            if not is_bottom(comp(comp.source.bottom), comp.target.bottom):
                loose[x1] += targets
    homs = []
    for i1, x1 in pairs:
        row = {q: f.component(x1, pairs[q][1])(a.hom(i1, pairs[q][0])) for q in loose[x1]}
        for i2, hom in a.row_maps[i1].items():
            for q in positions.get(i2, ()):
                if q not in row:
                    row[q] = f.component(x1, pairs[q][1])(hom)
        homs.append(row)
    out = VCategory(f.target, names, extents, homs)
    out.cob_pairs = pairs  # position in `a` and carrier, for functor transport
    return out


class AdjointReport(NamedTuple):
    """Local right adjoints of a two-sided enrichment's components, keyed
    by carrier pair, and the span back from the target that they form
    when the left leg is a bijection."""

    adjoints: dict[tuple[int, int], MonotoneMap]
    span: TwoSidedEnrichment | None
    violations: list[str]

    @property
    def coherent(self) -> bool:
        return self.span is not None and not self.violations


def local_right_adjoints(f: TwoSidedEnrichment, pointwise_only: bool = False) -> AdjointReport:
    """Right Galois adjoints of every component, and whether they cohere.

    When the left leg is a bijection the adjoints form a span from the
    target back to the source, indexed by source object; they cohere
    when that span is lax, which is what makes changing base along it
    the right adjoint of the change of base along ``f``.  Callers that
    want only the pointwise adjoints pass ``pointwise_only``: the report
    then has no span and no violations, and is not ``coherent``.
    """
    if not pointwise_only and not f.left_leg_bijective():
        raise NoAdjoint("the left leg is not a bijection; pass pointwise_only")
    adjoints = {
        key: right_adjoint_of_monotone(comp)
        for key, comp in f.components.items()
    }
    if pointwise_only:
        return AdjointReport(adjoints, None, [])
    carrier_of = {u: x for x, u in enumerate(f.minus)}
    span = span_of_maps(
        f.target, f.source, list(f.source.objects), f.object_action(),
        list(range(f.source.n_objects)), lambda u, v: adjoints[carrier_of[u], carrier_of[v]],
    )
    from .cobdocs import _lax_violations  # only a coherence check runs it

    return AdjointReport(adjoints, span, _lax_violations(span))


# read here by tests/test_acceptance.py
__getattr__ = _moved(__name__, dict.fromkeys((
    "identity_tse", "right_adjoint_cob", "monoid_congruence_tse", "monoid_morphism_pairs",
), "cobdocs"))
