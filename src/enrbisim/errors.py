"""Exception types shared across the package."""


class EnrbisimError(Exception):
    """Base class for every error raised by this package."""


class UnknownElement(EnrbisimError):
    """An element is not a member of the lattice it was used with."""


class UnknownObject(EnrbisimError):
    """An object name or index does not exist in the structure."""


class IncompleteLattice(EnrbisimError):
    """A join or meet was requested that the order does not provide."""


class SizeLimit(EnrbisimError):
    """An operation would enumerate more values than the configured cap."""


class NoAdjoint(EnrbisimError):
    """A monotone map has no right (or left) adjoint."""


class NotComposable(EnrbisimError):
    """Sources and targets do not line up for composition."""


class BadGrid(EnrbisimError):
    """A metric grid is missing 0 or infinity, or is not ascending."""


class BaseMismatch(EnrbisimError):
    """Two enriched structures live over different bases."""


class NotParallel(EnrbisimError):
    """The two functors or enrichments do not share source and target."""


class TypeMismatch(EnrbisimError):
    """An edge label does not live in the hom forced by its endpoints."""


class ExtentMismatch(EnrbisimError):
    """A relation pairs objects whose extents differ."""


class EndpointMismatch(EnrbisimError):
    """Relational algebra on relations with incompatible endpoints."""


class NotABisimulation(EnrbisimError):
    """A relation required to be a bisimulation is not one."""


class NotBisimilar(EnrbisimError):
    """A witness construction needs bisimilar inputs."""


class NotLocallyDistributive(EnrbisimError):
    """The base has a non-distributive hom lattice."""


class NotACongruence(EnrbisimError):
    """A relation fails the congruence closure conditions."""


class NotExact(EnrbisimError):
    """A functor does not preserve the chosen pullbacks."""


class AmbientMismatch(EnrbisimError):
    """Two spans do not share their pair of end objects."""


class InternalAssertion(EnrbisimError):
    """A condition the theory guarantees failed; indicates a bug."""


class ParseError(EnrbisimError):
    """A document or file could not be parsed."""


class ValidationError(EnrbisimError):
    """A loaded document failed validation."""


def require_valid(what: str, problems: list[str]) -> None:
    """Raise a ``ValidationError`` with the first of a validator's problems, if any."""
    if problems:
        raise ValidationError(f"{what} invalid: {problems[0]}")


class DanglingReference(EnrbisimError):
    """A document refers to a name that is not part of the bundle."""


class UnknownLabel(EnrbisimError):
    """A transition label is not part of the declared alphabet."""
