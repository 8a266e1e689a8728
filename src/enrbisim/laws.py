"""Exhaustive checks of a base's quantaloid laws.  The structural bases
meet them by construction, so only ``validate``, ``cts-build`` and the
loading of an explicit table base import this module.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .errors import SizeLimit
from .lattice import COMPOSE_BUDGET
from .quantaloid import Quantaloid


class QuantaloidReport(NamedTuple):
    """Outcome of validating a quantaloid."""

    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


def validate_quantaloid(q: Quantaloid) -> QuantaloidReport:
    """Exhaustively check units, associativity and join preservation.

    Hom lattices over ``DEFAULT_ENUM_CAP``, and bases whose checks would
    make more than ``COMPOSE_BUDGET`` compositions, are reported as
    violations: a base that cannot be checked is not certified.
    """
    violations: list[str] = []
    n = q.n_objects
    if n == 0:
        violations.append("quantaloid has no objects")
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for u, v in pairs:
        hom = q.hom(u, v)
        try:
            hom.ensure_enumerable()
        except SizeLimit:
            violations.append(
                f"hom {q.objects[u]},{q.objects[v]} too large to validate"
            )
            continue
        violations += (f"hom {q.objects[u]},{q.objects[v]}: {msg}" for msg in hom.validate())
    if violations:
        return QuantaloidReport(violations)

    for u in range(n):
        if not q.hom(u, u).has_element(q.unit(u)):
            violations.append(f"unit of {q.objects[u]} is not in its hom")
    if violations:
        return QuantaloidReport(violations)
    work = _law_compositions([[q.hom(u, v).size for v in range(n)] for u in range(n)])
    if work > COMPOSE_BUDGET:
        violations.append(
            f"too large to validate: the law checks take {work} compositions, "
            f"over the budget of {COMPOSE_BUDGET}"
        )
        return QuantaloidReport(violations)

    # closure and unit laws
    for u, v in pairs:
        hom = q.hom(u, v)
        for f in hom.elements():
            if not hom.has_element(q.compose(u, u, v, q.unit(u), f)):
                violations.append(f"composite leaves hom {u},{v}")
            if q.compose(u, u, v, q.unit(u), f) != f:
                violations.append(
                    f"left unit law fails at {f!r} in hom {q.objects[u]},{q.objects[v]}"
                )
            if q.compose(u, v, v, f, q.unit(v)) != f:
                violations.append(
                    f"right unit law fails at {f!r} in hom {q.objects[u]},{q.objects[v]}"
                )

    # join preservation in each argument (empty and binary joins suffice
    # for finite lattices): each side fixes one factor and varies the other
    for u, v, w in itertools.product(range(n), repeat=3):
        h_uv, h_vw, h_uw = q.hom(u, v), q.hom(v, w), q.hom(u, w)
        sides = (
            (h_uv, h_vw, functools.partial(q.compose, u, v, w)),
            (h_vw, h_uv, lambda g, f: q.compose(u, v, w, f, g)),
        )
        bottom = h_uw.bottom
        for (fixed, varied, comp), message in zip(
            sides, ("tensor does not annihilate bottom", "bottom does not annihilate tensor")
        ):
            zero = varied.bottom
            if any(comp(x, zero) != bottom for x in fixed.elements()):
                violations.append(f"{message} ({u},{v},{w})")
        for (fixed, varied, comp), side in zip(sides, ("right", "left")):
            joins = [
                (y1, y2, varied.join([y1, y2]))
                for y1, y2 in itertools.combinations_with_replacement(varied.elements(), 2)
            ]
            if any(
                comp(x, y) != h_uw.join([comp(x, y1), comp(x, y2)])
                for x in fixed.elements()
                for y1, y2, y in joins
            ):
                violations.append(f"tensor not join-preserving on the {side} ({u},{v},{w})")

    # associativity over all composable triples
    for u, v, w, t in itertools.product(range(n), repeat=4):
        for f in q.hom(u, v).elements():
            for g in q.hom(v, w).elements():
                fg = q.compose(u, v, w, f, g)
                for h in q.hom(w, t).elements():
                    if q.compose(u, w, t, fg, h) != q.compose(
                        u, v, t, f, q.compose(v, w, t, g, h)
                    ):
                        violations.append(
                            f"associativity fails at objects ({u},{v},{w},{t})"
                        )
                        break
                else:
                    continue
                break
            else:
                continue
            break

    return QuantaloidReport(violations)


def _law_compositions(size: list[list[int]]) -> int:
    """Compositions ``validate_quantaloid``'s unit, join and associativity
    loops make when no law fails, from the hom sizes ``size[u][v]``."""
    n = len(size)
    work = sum(3 * size[u][v] for u in range(n) for v in range(n))
    for u, v, w in itertools.product(range(n), repeat=3):
        a, b = size[u][v], size[v][w]
        work += a + b + 3 * a * b * (b + 1) // 2 + 3 * b * a * (a + 1) // 2
    for u, v, w, t in itertools.product(range(n), repeat=4):
        work += size[u][v] * size[v][w] * (1 + 3 * size[w][t])
    return work


def cmd_validate(bundle, flags) -> tuple[str, dict]:
    """The ``validate`` command: check the named bases; every other
    document, explicit table bases included, was checked as it loaded."""
    names = flags.names or bundle.names()
    problems: dict[str, list[str]] = {}
    for name in names:
        obj = bundle.get(name)
        if bundle.kinds[name] == "quantaloid" and name not in bundle.certified:
            found = validate_quantaloid(obj).violations
            if found:
                problems[name] = list(found)
    return "valid" if not problems else "invalid", {"checked": names, "violations": problems}
