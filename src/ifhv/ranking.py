"""Ranking results with explicit tie groups, all built by `build_ranking`:
HVAS (`hvas.ranking`), the comparators of `ifhv.mcdm`, and reference ranking
(`robustness.rank_by_reference`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, MismatchError, as_float

DEFAULT_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RankingResult:
    """A total order over alternatives with tie groups.

    `scores` holds each method's natural per-alternative value (net
    hypervolume, relative closeness, distance, ...); `higher_is_better`
    records its orientation. `order` lists tie groups best first; inside a
    group, alternatives keep their input order.
    """

    method: str
    scores: Mapping[str, float]
    order: tuple[tuple[str, ...], ...]
    higher_is_better: bool = True
    config_echo: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        listed = [label for group in self.order for label in group]
        if len(listed) != len(self.scores) or set(listed) != self.scores.keys():
            raise DomainError("order groups must partition the scored alternatives")

    def order_string(self) -> str:
        """Human form of the order, e.g. 'X3 > X2 = X1'."""
        return " > ".join(" = ".join(group) for group in self.order)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "scores": dict(self.scores),
            "order": [list(group) for group in self.order],
            "order_string": self.order_string(),
            "higher_is_better": self.higher_is_better,
            "config": dict(self.config_echo),
        }


def ranks_from_order(order: Sequence[Sequence[str]]) -> dict[str, int]:
    """1-based rank per label of tie groups listed best first.

    Tied labels share a rank, and the next group's rank skips past them.
    """
    out: dict[str, int] = {}
    position = 1
    for group in order:
        for label in group:
            out[label] = position
        position += len(group)
    return out


def check_tie_tolerance(tie_tolerance: float) -> float:
    """`tie_tolerance` as a float; DomainError unless it is non-negative and finite."""
    tie_tolerance = as_float("tie_tolerance", tie_tolerance)
    if not (math.isfinite(tie_tolerance) and tie_tolerance >= 0.0):
        raise DomainError(
            "tie_tolerance: a tie tolerance must be a non-negative finite number, "
            f"got {tie_tolerance}"
        )
    return tie_tolerance


def _tie_groups(labels: Sequence[str], scores, higher_is_better: bool, tie_tolerance: float):
    """The checked float scores, and each input's tie group (0 for the best)
    under a `tie_tolerance` that `check_tie_tolerance` has passed."""
    values = np.asarray(scores, dtype=float)
    if values.shape != (len(labels),):
        raise MismatchError(f"got {len(labels)} labels but {values.size} scores")
    if len(labels) == 0:
        raise DomainError("cannot rank an empty collection")
    if len(set(labels)) != len(labels):
        raise DomainError("alternative labels must be unique")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DomainError(f"score of '{labels[bad]}' is not finite: {values[bad]}")

    order = np.argsort(-values if higher_is_better else values, kind="stable")
    ranked = values[order]
    # A gap above the tolerance starts a group, since the group's first member
    # is at least as far; inside runs of smaller gaps, compare with that member.
    starts = np.append(True, np.abs(np.diff(ranked)) > tie_tolerance)
    for i in np.flatnonzero(~starts).tolist():
        if starts[i - 1]:
            head = ranked[i - 1]
        starts[i] = not abs(ranked[i] - head) <= tie_tolerance
    groups = np.empty(len(order), dtype=np.intp)
    groups[order] = np.cumsum(starts) - 1
    return values, groups


def build_ranking(
    method: str,
    labels: Sequence[str],
    scores: Sequence[float] | np.ndarray,
    higher_is_better: bool = True,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    config_echo: Mapping[str, object] | None = None,
) -> RankingResult:
    """Sort labels by score and group them into ties.

    Scores within `tie_tolerance` (absolute) of a group's first member join
    that group. Within a group, labels keep their original input order, so
    the result is invariant under relabeling of the inputs. Every score must
    be finite, and so must the non-negative `tie_tolerance`. The result's
    echo is `config_echo` followed by the float `tie_tolerance` it used.
    """
    tie_tolerance = check_tie_tolerance(tie_tolerance)
    values, groups = _tie_groups(labels, scores, higher_is_better, tie_tolerance)
    ordered = [labels[i] for i in np.argsort(groups, kind="stable").tolist()]
    bounds = np.append(0, np.cumsum(np.bincount(groups))).tolist()
    return RankingResult(
        method=method,
        scores=dict(zip(labels, values.tolist())),
        order=tuple([tuple(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]),
        higher_is_better=higher_is_better,
        config_echo={**(config_echo or {}), "tie_tolerance": tie_tolerance},
    )
