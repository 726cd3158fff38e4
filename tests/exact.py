"""Exact-arithmetic references in `Fraction`: the HVAS pipeline, steps 1-5,
the built-in distance measures (the Euclidean ones squared), the hypervolume
of a point set, CODAS's assessments, and TOPSIS and VIKOR under `hamming`.

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
from ifhv.ifs import _extremes

Pair = tuple[Fraction, Fraction]


def gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), for u = 2**-53."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


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


def euclidean_squared(a: list[Pair], b: list[Pair], hesitancy: bool) -> Fraction:
    """The square of `ifhv.euclidean3` (with the hesitancy difference) or of
    `ifhv.euclidean2` (without): (1/(2n)) * sum_i (dmu_i^2 + dnu_i^2 [+ dpi_i^2])."""
    total = Fraction(0)
    for (mu_a, nu_a), (mu_b, nu_b) in zip(a, b):
        total += (mu_a - mu_b) ** 2 + (nu_a - nu_b) ** 2
        if hesitancy:
            total += (nu_b + mu_b - nu_a - mu_a) ** 2
    return total / (2 * len(a))


def hausdorff(a: list[Pair], b: list[Pair]) -> Fraction:
    """(1/n) * sum_i max(|dmu_i|, |dnu_i|), as `ifhv.hausdorff` defines it."""
    return sum(max(abs(x[0] - y[0]), abs(x[1] - y[1])) for x, y in zip(a, b)) / len(a)


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


def codas_assessments(primary, secondary, tau: float) -> list[Fraction]:
    """H_i = sum_k (E_i - E_k) + (T_i - T_k where abs(E_i - E_k) < tau), by
    the pairwise definition, for float E = primary, T = secondary and tau,
    each converted exactly. The window test is the float one that
    `ifhv.mcdm` makes, so the two differ only in how they round the sums."""
    e, t = [float(x) for x in primary], [float(x) for x in secondary]
    exact_e, exact_t = [Fraction(x) for x in e], [Fraction(x) for x in t]
    total = sum(exact_e)
    return [
        len(e) * exact_e[i] - total
        + sum(exact_t[i] - exact_t[k] for k in range(len(e)) if abs(e[i] - e[k]) < tau)
        for i in range(len(e))
    ]


def solution_profiles(problem: DecisionProblem) -> tuple[list[list[Pair]], list[Pair], list[Pair]]:
    """Each alternative's profile in `problem`'s float weighted matrix, and the
    positive and negative solution profiles of the columns that
    `ifs._extremes` picks from it, each float converted exactly."""
    mu, nu = problem.weighted
    matrix = [
        [(Fraction(x), Fraction(y)) for x, y in zip(row_mu, row_nu)]
        for row_mu, row_nu in zip(mu.tolist(), nu.tolist())
    ]
    best, worst = _extremes(mu, nu)
    ps = [row[j] for row, j in zip(matrix, best.tolist())]
    ns = [row[j] for row, j in zip(matrix, worst.tolist())]
    return columns(matrix), ps, ns


def topsis_hamming(problem: DecisionProblem) -> list[Fraction]:
    """TOPSIS's closeness d(A, NS) / (d(A, PS) + d(A, NS)) under `hamming`,
    for every alternative of `solution_profiles(problem)`."""
    profiles, ps, ns = solution_profiles(problem)
    return [hamming(a, ns) / (hamming(a, ps) + hamming(a, ns)) for a in profiles]


def vikor_indices(problem: DecisionProblem) -> tuple[list[Fraction], list[Fraction]]:
    """VIKOR's group utility S and individual regret R under `hamming`, for
    every alternative of `solution_profiles(problem)`: the sum and the
    maximum of its gaps d(A_j, PS_j) / d(PS_j, NS_j), 0 where the span is 0."""
    profiles, ps, ns = solution_profiles(problem)
    spans = [hamming([p], [q]) for p, q in zip(ps, ns)]
    gaps = [
        [hamming([x], [p]) / span if span else Fraction(0) for x, p, span in zip(a, ps, spans)]
        for a in profiles
    ]
    return [sum(row) for row in gaps], [max(row) for row in gaps]


def vikor_q(utilities: list[Fraction], regrets: list[Fraction], v: float) -> list[Fraction]:
    """VIKOR's Q: v and 1 - v weigh S and R each normalised over its span,
    a term without span is dropped and the remaining weight renormalised,
    as `ifhv.vikor` does; Q is 0 where nothing is left."""
    terms = []
    for weight, values in ((Fraction(v), utilities), (1 - Fraction(v), regrets)):
        best, worst = min(values), max(values)
        if worst > best:
            terms.append((weight, [(x - best) / (worst - best) for x in values]))
    total = sum(weight for weight, _ in terms)
    if total == 0:
        return [Fraction(0)] * len(utilities)
    return [
        sum(weight * values[i] for weight, values in terms) / total for i in range(len(utilities))
    ]
