"""Exception types shared across the package, and the argument conversions
that raise them."""

import operator


class IfhvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(IfhvError, ValueError):
    """A value violates its domain constraints (bad fuzzy pair, bad reference point, ...)."""


class MismatchError(IfhvError, ValueError):
    """Lengths or dimensions that must agree do not."""


class DegenerateError(IfhvError, ArithmeticError):
    """The input is degenerate for the requested computation (all-zero weights,
    indistinguishable alternatives) and no meaningful result exists."""


class ParseError(IfhvError, ValueError):
    """A problem or point-set file could not be parsed."""


class ValidationError(ParseError):
    """A parsed file has inconsistent shape or invalid values."""


class VersionError(ParseError):
    """A problem file declares an unsupported schema version."""


def as_float(name: str, value) -> float:
    """`value` converted by `float`; DomainError naming `name` when it cannot be."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None


def as_count(name: str, value, minimum: int = 1) -> int:
    """`value` converted by `operator.index`, which takes integers only, and
    at least `minimum`; DomainError naming `name` otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return count
