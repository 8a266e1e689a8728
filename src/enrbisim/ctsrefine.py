"""Functors between finite categories and refinement along them.

Refining a specification's enrichment along a functor that preserves
the chosen pullbacks is a change of base along the span of its sieve
images, each of which has a right adjoint, so the refinement preserves
surjective functional bisimulations.  Only ``cts-refine`` and the
``catfunctor`` documents need this module.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cob
from .cts import (
    CribleQuantaloid, FiniteCategory, Span, _cones_without_mediator, cts_to_vcat, sieve_base,
)
from .errors import NotExact, require_valid
from .jsondocs import _keyed
from .vcat import VCategory


class CatFunctor(NamedTuple):
    """A functor between finite categories, as explicit object/morphism maps."""

    source: FiniteCategory
    target: FiniteCategory
    obj_map: list[int]
    mor_map: list[int]

    def validate(self) -> list[str]:
        out = []
        src, tgt = self.source, self.target
        if len(self.obj_map) != src.n_objects or len(self.mor_map) != len(
            src.morphisms
        ):
            return ["map sizes disagree with the source category"]
        for f, fm in enumerate(self.mor_map):
            if tgt.mor_src(fm) != self.obj_map[src.mor_src(f)] or tgt.mor_tgt(
                fm
            ) != self.obj_map[src.mor_tgt(f)]:
                out.append(f"morphism {src.morphisms[f].name} mistyped by the map")
        if out:
            return out
        for c, i in enumerate(src.identities):
            if self.mor_map[i] != tgt.identities[self.obj_map[c]]:
                out.append(f"identity of {src.objects[c]} not preserved")
        for f in range(len(src.morphisms)):
            for g in range(len(src.morphisms)):
                if src.mor_tgt(f) != src.mor_src(g):
                    continue
                if self.mor_map[src.compose_mor(f, g)] != tgt.compose_mor(
                    self.mor_map[f], self.mor_map[g]
                ):
                    out.append(f"composition not preserved at ({f},{g})")
        return out

    def apply_span(self, s: Span) -> Span:
        return Span(
            self.obj_map[s.apex], self.mor_map[s.left], self.mor_map[s.right]
        )


def preserves_chosen_pullbacks(fun: CatFunctor) -> list[str]:
    """Each chosen square must map to a pullback square in the target."""
    out = []
    src, tgt = fun.source, fun.target
    for (f, g), (p1, p2) in src.pullbacks.items():
        tf, tg = fun.mor_map[f], fun.mor_map[g]
        tp1, tp2 = fun.mor_map[p1], fun.mor_map[p2]
        if tgt.compose_mor(tp1, tf) != tgt.compose_mor(tp2, tg):
            out.append(f"image of chosen square ({f},{g}) does not commute")
            continue
        out.extend(
            f"image of chosen square ({f},{g}) is not a pullback"
            for _ in _cones_without_mediator(tgt, tf, tg, tp1, tp2)
        )
    return out


def crible_change_tse(
    fun: CatFunctor, source_sq: CribleQuantaloid, target_sq: CribleQuantaloid
) -> cob.TwoSidedEnrichment:
    """The span between sieve quantaloids induced by an exact functor."""
    if source_sq.cat is not fun.source or target_sq.cat is not fun.target:
        raise NotExact("the sieve bases do not match the functor")
    problems = preserves_chosen_pullbacks(fun)
    if problems:
        raise NotExact(problems[0])

    def image(x, y):
        fx, fy = fun.obj_map[x], fun.obj_map[y]
        return lambda crible: target_sq.down_close(fx, fy, [fun.apply_span(s) for s in crible])

    return cob.span_of_maps(
        source_sq, target_sq, list(fun.source.objects), list(range(fun.source.n_objects)),
        list(fun.obj_map), image,
    )


def refine(
    fun: CatFunctor,
    a: VCategory,
    source_sq: CribleQuantaloid,
    target_sq: CribleQuantaloid,
) -> VCategory:
    """Change the base of a specification's enrichment along a functor.

    The functor must preserve the chosen pullbacks, and every component
    of the induced span must have a right adjoint (``NoAdjoint`` if one
    has none), which makes the refinement preserve surjective functional
    bisimulations.
    """
    if a.base is not source_sq:
        raise NotExact("the enrichment does not live over the source sieves")
    tse = crible_change_tse(fun, source_sq, target_sq)
    cob.local_right_adjoints(tse, pointwise_only=True)
    return cob.apply_cob(tse, a)


def catfunctor_from_doc(doc, resolve) -> CatFunctor:
    """The functor of a ``catfunctor`` document, by object and morphism names."""
    source = resolve(doc["source"], FiniteCategory)
    target = resolve(doc["target"], FiniteCategory)
    objects = _keyed(doc, "objects", source.object_index, 1, source.objects)
    morphisms = _keyed(doc, "morphisms", source.morphism_index, 1, [m.name for m in source.morphisms])
    obj_map = [target.object_index(t) for _, t in objects]
    mor_map = [target.morphism_index(t) for _, t in morphisms]
    fun = CatFunctor(source, target, obj_map, mor_map)
    require_valid("functor", fun.validate())
    return fun


# the command ``cli.COMMANDS`` routes here: it returns its verdict and details
def cmd_cts_refine(bundle, flags) -> tuple[str, dict]:
    fun = bundle.get(flags.functor, CatFunctor)
    cat, spec = bundle.get(flags.spec, "ctsspec")
    source_sq = sieve_base(bundle, bundle.name_of(cat))
    a = cts_to_vcat(source_sq, spec)
    out = refine(fun, a, source_sq, sieve_base(bundle, bundle.name_of(fun.target)))
    return "valid", {"result": bundle.store(flags.out, out)}
