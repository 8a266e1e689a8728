"""Two-sided enrichments that documents, commands and constructions name.

The identity span, the spans of relational images and of monoid
congruences and morphisms between truncated language quantales, the
reader of ``tse`` documents with its exhaustive check of a span's
shapes and lax squares, the right adjoint of change of base and the
``cob-apply`` and ``cob-radjoint`` commands.  Refinement along a
functor needs none of them: it builds its span with ``cob.span_of_maps``
and changes base with ``cob.apply_cob``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from .cob import MonotoneMap, TwoSidedEnrichment, apply_cob, local_right_adjoints, span_of_maps
from .errors import BaseMismatch, NoAdjoint, NotACongruence, ParseError, SizeLimit, require_valid
from .jsondocs import _keyed, _listed, _name_lookup, _once
from .lattice import Lattice
from .quantaloid import Quantaloid, name_index
from .vcat import VCategory


def composition_square(
    f: TwoSidedEnrichment, triple: tuple[int, int, int]
) -> Iterator[tuple[Lattice, Any, Any]]:
    """The two sides of a span's composition square at carriers ``(x, y, z)``.

    Yields ``(lattice, lhs, rhs)`` for every ``g`` and ``h`` composable in
    the source, where ``lhs = f(x, y)(g) ; f(y, z)(h)`` is composed in the
    target, ``rhs = f(x, z)(g ; h)`` and ``lattice`` is the target hom both
    lie in.  Raises ``SizeLimit`` at once when one of the two source homs
    has more than ``DEFAULT_ENUM_CAP`` elements.
    """
    x, y, z = triple
    d, c = f.minus, f.plus
    hom_xy, hom_yz = f.source.hom(d[x], d[y]), f.source.hom(d[y], d[z])
    hom_xy.ensure_enumerable()
    hom_yz.ensure_enumerable()
    lat = f.target.hom(c[x], c[z])
    m_xy, m_yz, m_xz = f.component(x, y), f.component(y, z), f.component(x, z)
    return (
        (
            lat,
            f.target.compose(c[x], c[y], c[z], m_xy(g), m_yz(h)),
            m_xz(f.source.compose(d[x], d[y], d[z], g, h)),
        )
        for g in hom_xy.elements()
        for h in hom_yz.elements()
    )


def validate_tse(f: TwoSidedEnrichment) -> list[str]:
    """Exhaustive check of the component shapes and the two lax inequalities."""
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
    return out or _lax_violations(f)


def _lax_violations(f: TwoSidedEnrichment) -> list[str]:
    """Where a well-shaped span's unit or composition square fails."""
    out = []
    for x in range(f.n_carriers):
        unit_src = f.source.unit(f.minus[x])
        unit_tgt = f.target.unit(f.plus[x])
        lat = f.target.hom(f.plus[x], f.plus[x])
        if not lat.leq(unit_tgt, f.component(x, x)(unit_src)):
            out.append(f"unit square fails at carrier {f.carriers[x]}")
    for x, y, z in itertools.product(range(f.n_carriers), repeat=3):
        try:
            lax = all(lat.leq(lhs, rhs) for lat, lhs, rhs in composition_square(f, (x, y, z)))
        except SizeLimit:
            out.append(f"hom pair at carriers ({x},{y},{z}) too large to check")
            continue
        if not lax:
            out.append(f"composition square fails at carriers ({x},{y},{z})")
    return out


def identity_tse(q: Quantaloid) -> TwoSidedEnrichment:
    objects = list(range(q.n_objects))
    return span_of_maps(q, q, list(q.objects), objects, objects, lambda x, y: lambda v: v)


def right_adjoint_cob(f: TwoSidedEnrichment, b: VCategory) -> VCategory:
    """Right adjoint to the change of base: ``b`` changed along the span
    of the local right adjoints, which must cohere (``NoAdjoint``)."""
    if b.base is not f.target:
        raise BaseMismatch("the enrichment does not live over the span's target")
    report = local_right_adjoints(f)
    if not report.coherent:
        raise NoAdjoint("the local adjoints are not coherent")
    return apply_cob(report.span, b)


def require_language_bases(source: Quantaloid, target: Quantaloid) -> None:
    from .language import LanguageQuantale  # only the monoid spans need it

    if not (isinstance(source, LanguageQuantale) and isinstance(target, LanguageQuantale)):
        raise NotACongruence("both bases must be truncated language quantales")


def relation_tse(
    source: Quantaloid,
    target: Quantaloid,
    carriers: list[str],
    minus: list[int],
    plus: list[int],
    relations: dict[tuple[int, int], set[tuple[Any, Any]]],
) -> TwoSidedEnrichment:
    """The span of relational images between two bases whose homs are
    powersets of members.

    ``relations[(x, y)]`` relates members of hom(minus[x], minus[y]) of
    ``source`` to members of hom(plus[x], plus[y]) of ``target``; the
    component at ``(x, y)`` sends a set to the members related to its
    own.  The span must be lax (else ``NotACongruence``): every member of
    a target unit is related to one of the source unit, and for related
    ``(m, n)`` at ``(x, y)`` and ``(m2, n2)`` at ``(y, z)`` every member of
    ``{n} ; {n2}`` is related to one of ``{m} ; {m2}``.  A component is a
    union of related members and composition preserves unions in each
    argument, so a square holds on all sets exactly when it holds on these
    singletons.
    """
    indices = range(len(carriers))
    # sorted, so that the fault reported is the same on every run
    pairs = {key: sorted(relations.get(key, ())) for key in itertools.product(indices, repeat=2)}
    tables: dict[tuple[int, int], dict[Any, set]] = {key: {} for key in pairs}
    for key, rel in pairs.items():
        for m, n in rel:
            tables[key].setdefault(m, set()).add(n)

    def image(x: int, y: int) -> Callable[[frozenset], frozenset]:
        table = tables[x, y]
        return lambda members: frozenset().union(*(table.get(m, ()) for m in members))

    for x in indices:
        if not target.unit(plus[x]) <= image(x, x)(source.unit(minus[x])):
            raise NotACongruence(f"unit square fails at carrier {carriers[x]}")
    for x, y, z in itertools.product(indices, repeat=3):
        for (m, n), (m2, n2) in itertools.product(pairs[x, y], pairs[y, z]):
            lhs = target.compose(plus[x], plus[y], plus[z], frozenset((n,)), frozenset((n2,)))
            rhs = source.compose(minus[x], minus[y], minus[z], frozenset((m,)), frozenset((m2,)))
            if not lhs <= image(x, z)(rhs):
                src, tgt = source.member_to_doc, target.member_to_doc
                raise NotACongruence(
                    f"composition square fails at carriers ({carriers[x]},{carriers[y]},"
                    f"{carriers[z]}): {tgt(n)!r} ; {tgt(n2)!r} is not below the image of "
                    f"{src(m)!r} ; {src(m2)!r}"
                )
    return span_of_maps(source, target, carriers, minus, plus, image)


def monoid_congruence_tse(
    source: Quantaloid,
    target: Quantaloid,
    pairs: Iterable[tuple[tuple, tuple]],
) -> TwoSidedEnrichment:
    """Direct image along a congruence between truncated word monoids: the
    ``relation_tse`` of the pairs whose words fit the two cutoffs, on one
    carrier.  A letter outside its alphabet is a ``NotACongruence``,
    however long its word."""
    require_language_bases(source, target)
    rel = set()
    for m, n in pairs:
        m, n = tuple(m), tuple(n)
        bad = [s for s in m if s not in source.alphabet]
        bad += [s for s in n if s not in target.alphabet]
        if bad:
            raise NotACongruence(f"pair {[list(m), list(n)]} uses the unknown letter {bad[0]!r}")
        if len(m) <= source.k and len(n) <= target.k:  # else truncated away
            rel.add((m, n))
    return relation_tse(source, target, ["*"], [0], [0], {(0, 0): rel})


def monoid_morphism_pairs(
    gen_map: dict[str, tuple], source: Quantaloid, target: Quantaloid
) -> list[tuple[tuple, tuple]]:
    """The graph of the word map induced by a generator assignment, on the
    words whose image fits the target's cutoff.  An image letter outside
    the target's alphabet is a ``NotACongruence``."""
    bad = [(a, s) for a, word in gen_map.items() for s in word if s not in target.alphabet]
    if bad:
        raise NotACongruence("letter {!r} maps to the unknown letter {!r}".format(*bad[0]))
    images = {w: tuple(s for a in w for s in gen_map[a]) for w in source.words}
    return [(w, image) for w, image in images.items() if len(image) <= target.k]


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
            pairs = [(source.member_from_doc(m), target.member_from_doc(n))
                     for m, n in _listed(doc, "pairs", doc["pairs"], "a pair of words", 2)]
        else:
            letters = name_index(source.alphabet, "letter")
            entries = _keyed(doc, "map", letters, 1, source.alphabet)
            gen_map = {source.alphabet[i]: target.member_from_doc(v) for (i,), v in entries}
            pairs = monoid_morphism_pairs(gen_map, source, target)
        return monoid_congruence_tse(source, target, pairs)
    if construction != "explicit":
        raise ParseError(f"unknown span construction {construction!r}")
    source = resolve(doc["source"], Quantaloid)
    target = resolve(doc["target"], Quantaloid)
    index = _name_lookup(doc, "carriers", doc["carriers"], "name")
    carriers = [c["name"] for c in doc["carriers"]]
    minus = [source.object_index(c["minus"]) for c in doc["carriers"]]
    plus = [target.object_index(c["plus"]) for c in doc["carriers"]]
    components = {}
    # the components' keys and values are checked by validate_tse, once
    for (x, y), pairs in _keyed(doc, "components", index, 2):
        key = f"component '{carriers[x]},{carriers[y]}'"
        mapping = _once(doc, key, (
            (source.element_from_doc(minus[x], minus[y], src_doc),
             target.element_from_doc(plus[x], plus[y], tgt_doc))
            for src_doc, tgt_doc in _listed(doc, key, pairs, "a pair of elements", 2)
        ))
        components[(x, y)] = MonotoneMap(
            source.hom(minus[x], minus[y]), target.hom(plus[x], plus[y]), mapping
        )
    tse = TwoSidedEnrichment(source, target, carriers, minus, plus, components)
    require_valid("span", validate_tse(tse))
    return tse


# the commands ``cli.COMMANDS`` routes here: each returns its verdict and details
def cmd_cob_apply(bundle, flags) -> tuple[str, dict]:
    out = apply_cob(bundle.get(flags.tse, TwoSidedEnrichment), bundle.get(flags.a, VCategory))
    return "valid", {"result": bundle.store(flags.out, out)}


def cmd_cob_radjoint(bundle, flags) -> tuple[str, dict]:
    tse, b = bundle.get(flags.tse, TwoSidedEnrichment), bundle.get(flags.b, VCategory)
    out = right_adjoint_cob(tse, b)  # NoAdjoint unless the adjoints cohere
    return "valid", {"coherent": True, "result": bundle.store(flags.out, out)}
