"""Ranking results with explicit tie groups."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import DomainError, MismatchError


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
        if sorted(listed) != sorted(self.scores):
            raise DomainError("order groups must partition the scored alternatives")

    def order_string(self) -> str:
        """Human form of the order, e.g. 'X3 > X2 = X1'."""
        return " > ".join(" = ".join(group) for group in self.order)

    def ranks(self) -> dict[str, int]:
        """1-based rank per alternative; tied alternatives share a rank."""
        return ranks_from_order(self.order)

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


def build_ranking(
    method: str,
    labels: Sequence[str],
    scores: Sequence[float],
    higher_is_better: bool = True,
    tie_tolerance: float = 1e-9,
    config_echo: Mapping[str, object] | None = None,
) -> RankingResult:
    """Sort labels by score and group them into ties.

    Scores within `tie_tolerance` (absolute) of a group's first member join
    that group. Within a group, labels keep their original input order, so
    the result is invariant under relabeling of the inputs.
    """
    if len(labels) != len(scores):
        raise MismatchError(f"got {len(labels)} labels but {len(scores)} scores")
    if len(labels) == 0:
        raise DomainError("cannot rank an empty collection")
    if len(set(labels)) != len(labels):
        raise DomainError("alternative labels must be unique")

    sign = -1.0 if higher_is_better else 1.0
    indices = sorted(range(len(labels)), key=lambda i: (sign * float(scores[i]), i))

    groups: list[list[int]] = []
    head_score = None
    for i in indices:
        value = float(scores[i])
        if head_score is not None and abs(value - head_score) <= tie_tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
            head_score = value

    order = tuple(tuple(labels[i] for i in sorted(group)) for group in groups)
    return RankingResult(
        method=method,
        scores={label: float(value) for label, value in zip(labels, scores)},
        order=order,
        higher_is_better=higher_is_better,
        config_echo=dict(config_echo or {}),
    )
