"""Intuitionistic fuzzy numbers and sets.

An intuitionistic fuzzy number (IFN) is a pair (mu, nu) of membership and
non-membership degrees with mu, nu in [0, 1] and mu + nu <= 1. The residue
pi = 1 - mu - nu is the hesitancy degree. An IFS is a fixed-length sequence
of IFNs, one per element of the underlying universe (one per criterion in
decision-making use).

Comparison of IFNs is lexicographic on the score mu - nu and then the
accuracy mu + nu; the greatest IFN is (1, 0) and the smallest is (0, 1).

The IFN rules are written once here, as functions of float arrays of
(mu, nu) pairs: `check_pairs`, `_ifa`, `_product` and `_extremes`. The
pipeline applies them to whole arrays; the scalar functions are one-element
calls of them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateError, DomainError, MismatchError, as_float

# Aggregation chains can overshoot the mu + nu <= 1 simplex by a few ulps.
# Sums inside this tolerance are clamped back onto the boundary; anything
# beyond it is rejected as bad data.
SUM_TOLERANCE = 1e-9


class Ordering(enum.Enum):
    """Outcome of comparing two IFNs."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class IFN:
    """A membership / non-membership degree pair."""

    mu: float
    nu: float

    def __post_init__(self) -> None:
        mu = as_float("mu", self.mu)
        nu = as_float("nu", self.nu)
        if not (math.isfinite(mu) and math.isfinite(nu)):
            raise DomainError(f"IFN components must be finite, got ({self.mu}, {self.nu})")
        if not (0.0 <= mu <= 1.0 and 0.0 <= nu <= 1.0):
            raise DomainError(f"IFN components must lie in [0, 1], got ({mu}, {nu})")
        if mu + nu > 1.0 + SUM_TOLERANCE:
            raise DomainError(f"IFN requires mu + nu <= 1, got {mu} + {nu} = {mu + nu}")
        if mu + nu > 1.0:
            nu = 1.0 - mu  # clamp rounding overshoot onto the simplex boundary
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @property
    def pi(self) -> float:
        """Hesitancy degree 1 - mu - nu."""
        return 1.0 - self.mu - self.nu

    def as_pair(self) -> tuple[float, float]:
        return (self.mu, self.nu)

    def __repr__(self) -> str:
        return f"IFN({self.mu:g}, {self.nu:g})"


def check_pairs(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """IFN's rules on same-shape arrays of pairs; returns nu clamped as IFN clamps it.

    The first pair in flat order that is not finite, lies outside [0, 1] or
    sums past 1 + SUM_TOLERANCE raises IFN's own DomainError.
    """
    total = mu + nu
    # the range tests also reject nan and infinities
    valid = (mu >= 0.0) & (mu <= 1.0) & (nu >= 0.0) & (nu <= 1.0) & (total <= 1.0 + SUM_TOLERANCE)
    if not valid.all():
        k = int(np.argmin(valid))
        IFN(float(mu.flat[k]), float(nu.flat[k]))  # raises with IFN's message
    return np.where(total > 1.0, 1.0 - mu, nu)


def _ifa(mu: np.ndarray, nu: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted means over the leading axis of (q, ...) mu and nu arrays.

    weights is (q, ...) too, over the leading axes of mu. The total and the
    weighted sums accumulate in axis order, then there is one division.
    Callers reject weights that are negative or all zero.
    """
    weights = weights.reshape(weights.shape + (1,) * (mu.ndim - weights.ndim))
    total = mu_acc = nu_acc = 0.0
    for m, v, w in zip(mu, nu, weights):
        total = total + w
        mu_acc = mu_acc + m * w
        nu_acc = nu_acc + v * w
    mu = mu_acc / total
    return mu, check_pairs(mu, nu_acc / total)


def _product(mu_a, nu_a, mu_b, nu_b) -> tuple[np.ndarray, np.ndarray]:
    """IFN product of broadcasting pair arrays: (mu_a * mu_b, nu_a + nu_b - nu_a * nu_b).

    nu is evaluated as nu_b + nu_a * (1 - nu_b), which keeps the identity
    (1, 0) and the absorbing element (0, 1) exact in floating point.
    """
    mu = mu_a * mu_b
    return mu, check_pairs(mu, nu_b + nu_a * (1.0 - nu_b))


def _extremes(mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of the greatest and of the smallest pair in each row of (m, n) arrays.

    Pairs compare on (score, accuracy) as `compare` orders IFNs. Each side is
    a first maximum in O(mn), without a sort: among the columns of the top
    score, the first one of the top accuracy, so exact ties go to the first
    column. The smallest pair is the greatest under negated keys.
    """

    def first_max(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
        top = primary == primary.max(axis=1, keepdims=True)
        secondary = np.where(top, secondary, -np.inf)
        return np.argmax(secondary == secondary.max(axis=1, keepdims=True), axis=1)

    score, accuracy = mu - nu, mu + nu
    return first_max(score, accuracy), first_max(-score, -accuracy)


#: The greatest IFN, the positive ideal value.
PIS = IFN(1.0, 0.0)
#: The smallest IFN, the negative ideal value.
NIS = IFN(0.0, 1.0)


def hesitancy(a: IFN) -> float:
    """Hesitancy degree 1 - mu - nu, in [0, 1]."""
    return a.pi


def score(a: IFN) -> float:
    """Score mu - nu, in [-1, 1]. Primary comparison key."""
    return a.mu - a.nu


def accuracy(a: IFN) -> float:
    """Accuracy mu + nu, in [0, 1]. Tie-breaking comparison key."""
    return a.mu + a.nu


def compare(a: IFN, b: IFN) -> Ordering:
    """Compare two IFNs lexicographically on (score, accuracy)."""
    sa, sb = score(a), score(b)
    if sa < sb:
        return Ordering.LESS
    if sa > sb:
        return Ordering.GREATER
    ha, hb = accuracy(a), accuracy(b)
    if ha < hb:
        return Ordering.LESS
    if ha > hb:
        return Ordering.GREATER
    return Ordering.EQUAL


def _pairs(values: Sequence[IFN]) -> tuple[np.ndarray, np.ndarray]:
    """The mu and nu arrays of a sequence of IFNs."""
    return np.array([v.mu for v in values]), np.array([v.nu for v in values])


def multiply(a: IFN, b: IFN) -> IFN:
    """Product of two IFNs: (mu_a * mu_b, nu_a + nu_b - nu_a * nu_b), by `_product`."""
    mu, nu = _product(*_pairs((a,)), *_pairs((b,)))
    return IFN(float(mu[0]), float(nu[0]))


def ifa_aggregate(values: Sequence[IFN], weights: Sequence[float]) -> IFN:
    """Weighted arithmetic aggregation of IFNs with ordinary fuzzy weights.

    Returns (sum(mu_l * w_l) / sum(w_l), sum(nu_l * w_l) / sum(w_l)), a convex
    combination of the inputs, by `_ifa`. Weights must be non-negative; only
    their ratios matter, so uniform rescaling by any positive factor is a no-op.
    """
    if len(values) == 0:
        raise DomainError("ifa_aggregate requires at least one value")
    if len(values) != len(weights):
        raise MismatchError(
            f"got {len(values)} values but {len(weights)} weights"
        )
    floats = [as_float("weights", weight) for weight in weights]
    for weight, w in zip(weights, floats):
        if not math.isfinite(w) or w < 0.0:
            raise DomainError(f"weights must be finite and non-negative, got {weight}")
    if not any(floats):
        raise DegenerateError(
            "aggregation weights sum to zero; the evaluations carry no usable information"
        )
    mu, nu = _pairs(values)
    mu, nu = _ifa(mu[:, None], nu[:, None], np.array(floats))
    return IFN(float(mu[0]), float(nu[0]))


def select_extremes(values: Sequence[IFN]) -> tuple[IFN, IFN]:
    """Return (greatest, smallest) of a non-empty IFN sequence, by `_extremes`.

    On exact ties the earliest occurrence wins, so the result is
    deterministic in the input order.
    """
    if len(values) == 0:
        raise DomainError("select_extremes requires at least one value")
    mu, nu = _pairs(values)
    best, worst = _extremes(mu[None, :], nu[None, :])
    return values[int(best[0])], values[int(worst[0])]


@dataclass(frozen=True)
class IFS:
    """A fixed-length ordered sequence of IFNs."""

    elements: tuple[IFN, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if len(elements) == 0:
            raise DomainError("an IFS must contain at least one element")
        for element in elements:
            if not isinstance(element, IFN):
                raise DomainError(f"IFS elements must be IFN, got {type(element).__name__}")
        object.__setattr__(self, "elements", elements)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IFS":
        return cls(tuple(IFN(mu, nu) for mu, nu in pairs))

    @classmethod
    def _from_checked(cls, mu: Sequence[float], nu: Sequence[float]) -> "IFS":
        """The IFS of (mu, nu) floats that `check_pairs` has passed, nu as it
        returned them, built without checking each IFN again."""
        elements = []
        for m, v in zip(mu, nu):
            element = object.__new__(IFN)
            fields = element.__dict__
            fields["mu"] = m
            fields["nu"] = v
            elements.append(element)
        ifs = object.__new__(cls)
        ifs.__dict__["elements"] = tuple(elements)
        return ifs

    @classmethod
    def positive_ideal(cls, n: int) -> "IFS":
        """The IFS whose every element is (1, 0)."""
        return cls((PIS,) * n)

    @classmethod
    def negative_ideal(cls, n: int) -> "IFS":
        """The IFS whose every element is (0, 1)."""
        return cls((NIS,) * n)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index: int) -> IFN:
        return self.elements[index]

    def mu_values(self) -> np.ndarray:
        return np.array([e.mu for e in self.elements], dtype=float)

    def nu_values(self) -> np.ndarray:
        return np.array([e.nu for e in self.elements], dtype=float)

    def pi_values(self) -> np.ndarray:
        return np.array([e.pi for e in self.elements], dtype=float)
