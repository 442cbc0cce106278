"""Exception types shared across the toolkit."""


class OrbitPolyError(Exception):
    """Base class for all orbitpoly errors."""


class DimensionMismatchError(OrbitPolyError):
    """Operands live in different ambient dimensions."""


class DimensionTooHighError(OrbitPolyError):
    """A geometric construction was requested above the supported dimension."""


class OrderExceededError(OrbitPolyError):
    """Generator closure passed the configured cap; the input is probably not finite."""


class RegularNotFoundError(OrbitPolyError):
    """No regular vector was found within the retry budget."""


class ZeroVectorError(OrbitPolyError):
    """A nonzero vector is required here."""


class NotCoxeterError(OrbitPolyError):
    """The group is not generated by its reflections."""


class NotRegularError(OrbitPolyError):
    """The base vector has a nontrivial stabilizer."""


class NotInChamberError(OrbitPolyError):
    """The vector lies outside the closed chamber."""


class InconsistentCriteriaError(OrbitPolyError):
    """Equivalent semigroup criteria disagreed; signals a bug or a tolerance failure."""


class GeometryError(OrbitPolyError):
    """An internal geometric consistency check failed."""


class InputFormatError(OrbitPolyError):
    """Malformed input file or group definition."""
