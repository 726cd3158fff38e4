"""Exact-arithmetic references in `Fraction`: the HVAS pipeline, steps 1-5,
and the hypervolume of a point set.

HVAS uses only +, -, * and /, so from exact inputs every step is exact and no
pair needs clamping. A problem is read either from its JSON text, where
`parse_float=Fraction` keeps every decimal as written (`from_text`), or from
a `DecisionProblem`'s float arrays, each float converted exactly
(`from_problem`). Both give an `ExactProblem` of nested lists indexed as the
arrays are: evaluations [dm][criterion][alternative], importance
[dm][criterion], expertise [dm][criterion].
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import NamedTuple

from ifhv import CriterionKind, DecisionProblem, HVConfig

Pair = tuple[Fraction, Fraction]


class ExactProblem(NamedTuple):
    alternatives: list[str]
    cost: list[bool]  # per criterion
    evaluations: list[list[list[Pair]]]
    importance: list[list[Pair]]
    expertise: list[list[Fraction]]


def from_text(text: str) -> ExactProblem:
    """The problem of a problem file's JSON text, in the keyed layout that
    `serialize_problem` writes."""
    data = json.loads(text, parse_float=Fraction, parse_int=Fraction)
    alternatives, dms = data["alternatives"], data["dms"]
    ids = [criterion["id"] for criterion in data["criteria"]]
    return ExactProblem(
        alternatives,
        [criterion["kind"] == "cost" for criterion in data["criteria"]],
        [[[tuple(data["evaluations"][dm][c][a]) for a in alternatives] for c in ids] for dm in dms],
        [[tuple(data["importance"][dm][c]) for c in ids] for dm in dms],
        [[data["expertise"][dm][c] for c in ids] for dm in dms],
    )


def from_problem(problem: DecisionProblem) -> ExactProblem:
    """The problem of `problem`'s float arrays, each float converted exactly."""

    def pair(values: list[float]) -> Pair:
        return Fraction(values[0]), Fraction(values[1])

    return ExactProblem(
        list(problem.alternatives),
        [criterion.kind is CriterionKind.COST for criterion in problem.criteria],
        [
            [[pair(values) for values in row] for row in per_dm]
            for per_dm in problem.evaluation_array.tolist()
        ],
        [[pair(values) for values in per_dm] for per_dm in problem.importance_array.tolist()],
        [[Fraction(x) for x in per_dm] for per_dm in problem.expertise_array.tolist()],
    )


def _mean(pairs: list[Pair], weights: list[Fraction]) -> Pair:
    total = sum(weights)
    return (
        sum(mu * w for (mu, _), w in zip(pairs, weights)) / total,
        sum(nu * w for (_, nu), w in zip(pairs, weights)) / total,
    )


def weighted(problem: ExactProblem) -> list[list[Pair]]:
    """Steps 1-4: the weighted pair of each [criterion][alternative]."""
    matrix = []
    for j, cost in enumerate(problem.cost):
        weights = [per_dm[j] for per_dm in problem.expertise]
        w_mu, w_nu = _mean([per_dm[j] for per_dm in problem.importance], weights)
        row = []
        for i in range(len(problem.alternatives)):
            mu, nu = _mean([per_dm[j][i] for per_dm in problem.evaluations], weights)
            if cost:
                mu, nu = nu, mu
            row.append((mu * w_mu, nu + w_nu - nu * w_nu))
        matrix.append(row)
    return matrix


def hv_net(profile: list[Pair], cfg: HVConfig) -> Fraction:
    """Step 5 for one alternative: hv_mu - hv_nu - alpha * hv_pi."""
    hv_mu = hv_nu = hv_pi = Fraction(1)
    for (mu, nu), r in zip(profile, cfg.reference_for(len(profile))):
        r = Fraction(r)
        hv_mu *= mu - r
        hv_nu *= nu - r
        hv_pi *= 1 - mu - nu - r
    return hv_mu - hv_nu - Fraction(cfg.alpha) * hv_pi


def columns(matrix: list[list[Pair]]) -> list[list[Pair]]:
    """Each alternative's profile: its column of a [criterion][alternative] matrix."""
    return [list(column) for column in zip(*matrix)]


def hvas_scores(problem: ExactProblem, cfg: HVConfig | None = None) -> list[Fraction]:
    """The exact HVAS score of every alternative, in input order."""
    cfg = cfg if cfg is not None else HVConfig()
    return [hv_net(profile, cfg) for profile in columns(weighted(problem))]


def hamming(a: list[Pair], b: list[Pair]) -> Fraction:
    """(1/(2n)) * sum_i (|dmu_i| + |dnu_i|), as `ifhv.hamming` defines it."""
    total = sum(abs(x[0] - y[0]) + abs(x[1] - y[1]) for x, y in zip(a, b))
    return total / (2 * len(a))


def hv_inclusion_exclusion(points, r) -> Fraction:
    """The union volume of the boxes [r, p], by inclusion-exclusion over all
    non-empty subsets of points, each coordinate converted exactly."""
    offsets = [[Fraction(x) - Fraction(y) for x, y in zip(p, r)] for p in points]
    total = Fraction(0)
    for size in range(1, len(offsets) + 1):
        for subset in combinations(offsets, size):
            box = prod(min(column) for column in zip(*subset))
            total += box if size % 2 else -box
    return total
