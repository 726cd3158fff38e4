"""Exception types shared across the package, and the argument conversions
that raise them."""

import math
import operator

import numpy as np


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
    """`value` converted by `float`; DomainError naming `name` when it cannot
    be, or when it is a bool, which the problem-file reader rejects too."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a number, got {value!r}")


def as_count(name: str, value, minimum: int = 1) -> int:
    """`value` converted by `operator.index`, which takes integers only, and
    at least `minimum`; DomainError naming `name` otherwise, or for a bool."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if count < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return count


def require_positive_finite(message: str, *values: float) -> None:
    """DomainError with `message` unless every value is finite and > 0."""
    if not all(math.isfinite(value) and value > 0.0 for value in values):
        raise DomainError(message)
