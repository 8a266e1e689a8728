"""Two-sided enrichments and change of base.

A two-sided enrichment between two quantaloids is a span of object sets
together with a monotone hom-component per carrier pair, lax with
respect to composition and units.  Applying one to an enrichment
changes its base; when every component has a right Galois adjoint and
the adjoints satisfy the two coherence inequalities, the change of base
has a right adjoint built from those local adjoints.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator, NamedTuple

from .documents import _once
from .errors import BaseMismatch, NoAdjoint, NotACongruence, ParseError, SizeLimit, ValidationError
from .lattice import Lattice, MonotoneMap, right_adjoint_of_monotone
from .quantaloid import LanguageQuantale, Quantaloid
from .vcat import VCategory


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


def composition_square(
    dom: Quantaloid,
    cod: Quantaloid,
    dom_obj: list[int],
    cod_obj: list[int],
    maps: dict[tuple[int, int], MonotoneMap],
    triple: tuple[int, int, int],
) -> Iterator[tuple[Lattice, Any, Any]]:
    """The two sides of the composition square of a family of hom maps.

    ``maps[x, y]`` sends hom(dom_obj[x], dom_obj[y]) of ``dom`` into
    hom(cod_obj[x], cod_obj[y]) of ``cod``.  At the carrier triple
    ``(x, y, z)`` this yields ``(lattice, lhs, rhs)`` for every ``g`` and
    ``h`` composable in ``dom``, where ``lhs = maps[x, y](g) ; maps[y, z](h)``
    is composed in ``cod``, ``rhs = maps[x, z](g ; h)`` and ``lattice`` is
    the ``cod`` hom both lie in.  Raises ``SizeLimit`` at once when one
    of the two ``dom`` homs has more than ``DEFAULT_ENUM_CAP`` elements.
    """
    x, y, z = triple
    d, c = dom_obj, cod_obj
    hom_xy, hom_yz = dom.hom(d[x], d[y]), dom.hom(d[y], d[z])
    hom_xy.ensure_enumerable()
    hom_yz.ensure_enumerable()
    lat, m_xy, m_yz, m_xz = cod.hom(c[x], c[z]), maps[x, y], maps[y, z], maps[x, z]
    return (
        (
            lat,
            cod.compose(c[x], c[y], c[z], m_xy(g), m_yz(h)),
            m_xz(dom.compose(d[x], d[y], d[z], g, h)),
        )
        for g in hom_xy.elements()
        for h in hom_yz.elements()
    )


def validate_tse(f: TwoSidedEnrichment) -> list[str]:
    """Exhaustive check of the two lax inequalities and component shapes."""
    out = []
    for (x, y), comp in f.components.items():
        if comp.source is not f.source.hom(f.minus[x], f.minus[y]):
            out.append(f"component ({x},{y}) has the wrong source lattice")
        if comp.target is not f.target.hom(f.plus[x], f.plus[y]):
            out.append(f"component ({x},{y}) has the wrong target lattice")
    for x in range(f.n_carriers):
        for y in range(f.n_carriers):
            if (x, y) not in f.components:
                out.append(f"missing component ({x},{y})")
    if out:
        return out
    for (x, y), comp in f.components.items():
        for msg in comp.check():
            out.append(f"component ({x},{y}): {msg}")
    if out:
        return out
    for x in range(f.n_carriers):
        unit_src = f.source.unit(f.minus[x])
        unit_tgt = f.target.unit(f.plus[x])
        lat = f.target.hom(f.plus[x], f.plus[x])
        if not lat.leq(unit_tgt, f.component(x, x)(unit_src)):
            out.append(f"unit square fails at carrier {f.carriers[x]}")
    for x, y, z in itertools.product(range(f.n_carriers), repeat=3):
        try:
            lax = all(
                lat.leq(lhs, rhs)
                for lat, lhs, rhs in composition_square(
                    f.source, f.target, f.minus, f.plus, f.components, (x, y, z)
                )
            )
        except SizeLimit:
            out.append(f"hom pair at carriers ({x},{y},{z}) too large to check")
            continue
        if not lax:
            out.append(f"composition square fails at carriers ({x},{y},{z})")
    return out


def identity_tse(q: Quantaloid) -> TwoSidedEnrichment:
    carriers = list(q.objects)
    n = len(carriers)
    comps = {
        (x, y): MonotoneMap.identity(q.hom(x, y))
        for x in range(n)
        for y in range(n)
    }
    return TwoSidedEnrichment(q, q, carriers, list(range(n)), list(range(n)), comps)


def apply_cob(f: TwoSidedEnrichment, a: VCategory) -> VCategory:
    """Change the base of an enrichment along a two-sided enrichment."""
    if a.base is not f.source:
        raise BaseMismatch("the enrichment does not live over the span's source")
    pairs = [
        (i, x)
        for i in range(a.n_objects)
        for x in range(f.n_carriers)
        if a.extents[i] == f.minus[x]
    ]
    names = [f"({a.objects[i]}|{f.carriers[x]})" for i, x in pairs]
    extents = [f.plus[x] for _, x in pairs]
    # a component need not keep bottom at bottom, so every pair is mapped
    homs = [
        {q: f.component(x1, x2)(a.hom(i1, i2)) for q, (i2, x2) in enumerate(pairs)}
        for (i1, x1) in pairs
    ]
    out = VCategory(f.target, names, extents, homs)
    out.cob_pairs = pairs  # position in `a` and carrier, for functor transport
    return out


class AdjointReport(NamedTuple):
    """Local right adjoints of a two-sided enrichment's components."""

    adjoints: dict[tuple[int, int], MonotoneMap]
    coherence1: bool
    coherence2: bool
    violations: list[str]

    @property
    def coherent(self) -> bool:
        return self.coherence1 and self.coherence2


def local_right_adjoints(f: TwoSidedEnrichment, pointwise_only: bool = False) -> AdjointReport:
    """Right Galois adjoints of every component, with coherence flags.

    Coherence (the adjoints laxly respecting composition and units) is
    what makes the pointwise adjoints assemble into a right adjoint to
    the change of base; it is only meaningful when the left leg is a
    bijection, which callers may waive with ``pointwise_only``.
    """
    if not pointwise_only and not f.left_leg_bijective():
        raise NoAdjoint("the left leg is not a bijection; pass pointwise_only")
    adjoints = {
        key: right_adjoint_of_monotone(comp)
        for key, comp in f.components.items()
    }
    if pointwise_only:
        return AdjointReport(adjoints, False, False, ["coherence not checked"])
    # the adjoints run from the target homs, which right_adjoint_of_monotone
    # has already found enumerable
    violations = [
        f"adjoint composition inequality fails at ({x},{y},{z})"
        for x, y, z in itertools.product(range(f.n_carriers), repeat=3)
        if not all(
            lat.leq(lhs, rhs)
            for lat, lhs, rhs in composition_square(
                f.target, f.source, f.plus, f.minus, adjoints, (x, y, z)
            )
        )
    ]
    coherence1 = not violations
    coherence2 = True
    for x in range(f.n_carriers):
        lat = f.source.hom(f.minus[x], f.minus[x])
        if not lat.leq(
            f.source.unit(f.minus[x]),
            adjoints[(x, x)](f.target.unit(f.plus[x])),
        ):
            coherence2 = False
            violations.append(f"adjoint unit inequality fails at carrier {x}")
    return AdjointReport(adjoints, coherence1, coherence2, violations)


def right_adjoint_cob(
    f: TwoSidedEnrichment,
    b: VCategory,
    report: AdjointReport | None = None,
) -> VCategory:
    """Right adjoint to the change of base, from the local adjoints."""
    if b.base is not f.target:
        raise BaseMismatch("the enrichment does not live over the span's target")
    if report is None:
        report = local_right_adjoints(f)
    if not report.coherent:
        raise NoAdjoint("the local adjoints are not coherent")
    action = f.object_action()
    carrier_of = {self_minus: x for x, self_minus in enumerate(f.minus)}
    pairs = [
        (i, v)
        for i in range(b.n_objects)
        for v in range(f.source.n_objects)
        if b.extents[i] == action[v]
    ]
    names = [f"({b.objects[i]}|{f.source.objects[v]})" for i, v in pairs]
    extents = [v for _, v in pairs]
    homs = [
        {
            q: report.adjoints[(carrier_of[v1], carrier_of[v2])](b.hom(i1, i2))
            for q, (i2, v2) in enumerate(pairs)
        }
        for (i1, v1) in pairs
    ]
    out = VCategory(f.source, names, extents, homs)
    out.cob_pairs = pairs
    return out


def require_language_bases(source: Quantaloid, target: Quantaloid) -> None:
    if not (isinstance(source, LanguageQuantale) and isinstance(target, LanguageQuantale)):
        raise NotACongruence("both bases must be truncated language quantales")


def monoid_congruence_tse(
    source: LanguageQuantale,
    target: LanguageQuantale,
    pairs: Iterable[tuple[tuple, tuple]],
) -> TwoSidedEnrichment:
    """Direct image along a congruence between truncated word monoids.

    The congruence must contain the empty-word pair and be closed under
    concatenation whenever both concatenations survive the truncation;
    the resulting span is validated because truncation can still break
    laxness for unbalanced congruences.
    """
    require_language_bases(source, target)
    rel = set()
    for m, n in pairs:
        m, n = tuple(m), tuple(n)
        if len(m) > source.k or len(n) > target.k:
            continue  # truncated away
        if any(s not in source.alphabet for s in m) or any(
            s not in target.alphabet for s in n
        ):
            raise NotACongruence(f"pair ({m},{n}) uses unknown symbols")
        rel.add((m, n))
    if ((), ()) not in rel:
        raise NotACongruence("the empty-word pair is missing")
    for (m, n), (m2, n2) in itertools.product(rel, repeat=2):
        if len(m + m2) <= source.k and len(n + n2) <= target.k:
            if (m + m2, n + n2) not in rel:
                raise NotACongruence(
                    f"not closed under concatenation at ({m + m2},{n + n2})"
                )

    by_word: dict[tuple, set] = {}
    for m, n in rel:
        by_word.setdefault(m, set()).add(n)

    def image(lang: frozenset) -> frozenset:
        out = set()
        for w in lang:
            out |= by_word.get(w, set())
        return frozenset(out)

    comp = MonotoneMap.from_function(source.hom(0, 0), target.hom(0, 0), image)
    tse = TwoSidedEnrichment(source, target, ["*"], [0], [0], {(0, 0): comp})
    problems = validate_tse(tse)
    if problems:
        raise NotACongruence(
            f"truncation breaks the lax structure: {problems[0]}"
        )
    return tse


def monoid_morphism_pairs(
    gen_map: dict[str, tuple], source: LanguageQuantale, target: LanguageQuantale
) -> list[tuple[tuple, tuple]]:
    """The graph of the word map induced by a generator assignment."""
    def apply(word: tuple) -> tuple:
        out: tuple = ()
        for s in word:
            out = out + tuple(gen_map[s])
        return out

    return [(w, apply(w)) for w in source.words if len(apply(w)) <= target.k]


def tse_from_doc(doc, resolve) -> TwoSidedEnrichment:
    """The span of a ``tse`` document: the identity, a monoid congruence or
    morphism between language quantales, or explicit components."""
    construction = doc.get("construction", "explicit")
    if construction == "identity":
        return identity_tse(resolve(doc["base"], Quantaloid))
    if construction in ("monoid-congruence", "monoid-morphism"):
        source = resolve(doc["source"], Quantaloid)
        target = resolve(doc["target"], Quantaloid)
        require_language_bases(source, target)  # before a word is read
        if construction == "monoid-congruence":
            pairs = [(source.member_from_doc(m), target.member_from_doc(n)) for m, n in doc["pairs"]]
        else:
            gen_map = {str(k): target.member_from_doc(v) for k, v in doc["map"].items()}
            pairs = monoid_morphism_pairs(gen_map, source, target)
        return monoid_congruence_tse(source, target, pairs)
    if construction != "explicit":
        raise ParseError(f"unknown span construction {construction!r}")
    source = resolve(doc["source"], Quantaloid)
    target = resolve(doc["target"], Quantaloid)
    carriers = [str(c["name"]) for c in doc["carriers"]]
    minus = [source.object_index(str(c["minus"])) for c in doc["carriers"]]
    plus = [target.object_index(str(c["plus"])) for c in doc["carriers"]]
    components = {}
    for key, pairs in doc["components"].items():
        x, y = (carriers.index(part) for part in key.split(","))
        read_source = source.element_decoder(minus[x], minus[y])
        read_target = target.element_decoder(plus[x], plus[y])
        mapping = _once(doc, f"component {key!r}", (
            (read_source(src_doc), read_target(tgt_doc)) for src_doc, tgt_doc in pairs
        ))
        components[(x, y)] = MonotoneMap(
            source.hom(minus[x], minus[y]), target.hom(plus[x], plus[y]), mapping
        )
    tse = TwoSidedEnrichment(source, target, carriers, minus, plus, components)
    problems = validate_tse(tse)
    if problems:
        raise ValidationError(f"span invalid: {problems[0]}")
    return tse
