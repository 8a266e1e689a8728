"""Finite complete lattices: the interface and the enumeration caps.

Every hom-set in this package is a finite complete lattice: each subset
has a least upper bound and a greatest lower bound, the empty join being
bottom and the empty meet top.  Elements are opaque hashable values; the
concrete classes pick the representation.  The powerset, table and
down-set lattices live with the bases that use them, in ``sets``,
``tables`` and ``cts``, and monotone maps in ``cob``.

The public ``leq``/``join``/``meet`` check that every argument is an
element and then call the unchecked cores ``_leq``/``_join``/``_meet``.
Interior loops that only see elements already checked at a boundary
call the cores directly; the cores still raise ``IncompleteLattice``
when a join or meet does not exist.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Iterator

from . import _moved
from .errors import SizeLimit, UnknownElement

# Largest element count we are willing to enumerate exhaustively: every
# exhaustive check (quantaloid laws, laxness of a span, local right
# adjoints, residuals) reads this one cap.
DEFAULT_ENUM_CAP = 1 << 13
# Most generators a rel, powerset or sieve base allows a hom: a powerset
# of 12 has 2^12 elements, within DEFAULT_ENUM_CAP = 2^13.
MAX_GENERATORS = 12
# Most compositions an exhaustive check of a quantaloid's laws may make.
COMPOSE_BUDGET = 1 << 20


class Lattice:
    """Interface shared by all lattice implementations."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    def elements(self) -> Iterator[Any]:
        raise NotImplementedError

    def has_element(self, x) -> bool:
        raise NotImplementedError

    def leq(self, x, y) -> bool:
        self.check_element(x)
        self.check_element(y)
        return self._leq(x, y)

    def join(self, xs: Iterable):
        return self._join(self._checked(xs))

    def meet(self, xs: Iterable):
        return self._meet(self._checked(xs))

    def _checked(self, xs: Iterable) -> list:
        vals = list(xs)
        for x in vals:
            self.check_element(x)
        return vals

    def _leq(self, x, y) -> bool:
        raise NotImplementedError

    def _join(self, xs: Iterable):
        raise NotImplementedError

    def _meet(self, xs: Iterable):
        raise NotImplementedError

    @property
    def bottom(self):
        return self.join(())

    @property
    def top(self):
        return self.meet(())

    def is_distributive(self) -> bool:
        """Whether meet distributes over binary join, at every triple."""
        return all(
            self._meet([x, self._join([y, z])]) == self._join([self._meet([x, y]), self._meet([x, z])])
            for x, y, z in itertools.product(list(self.elements()), repeat=3)
        )

    def sample(self, rng):
        """Pick a pseudo-random element without enumerating everything."""
        raise NotImplementedError

    def validate(self) -> list[str]:
        """Structural implementations are correct by construction."""
        return []

    def check_element(self, x) -> None:
        if not self.has_element(x):
            raise UnknownElement(f"{x!r} is not an element of {self!r}")

    def ensure_enumerable(self) -> None:
        if self.size > DEFAULT_ENUM_CAP:
            raise SizeLimit(
                f"{self!r} has {self.size} elements, more than the cap {DEFAULT_ENUM_CAP}"
            )


__getattr__ = _moved(__name__, {
    "PowersetLattice": "sets", "TableLattice": "tables", "DownsetLattice": "cts",
    "MonotoneMap": "cob", "right_adjoint_of_monotone": "cob",
})
