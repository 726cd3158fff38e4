"""One reference per step of the decision pipeline, and exact references for
the built-in distance measures (the Euclidean ones squared), the hypervolume
of a point set and CODAS's assessments.

Steps 1-4 (`weighted`), step 5 (`hv_spaces`), the solution profiles, TOPSIS's
closeness and VIKOR's S, R and Q are generic over the number type: in
`Fraction` every step is exact, for the derived error bounds; in `float` they
run in the operation order of `ifhv`'s array core, which must match them bit
for bit. Their sums are explicit loops from the int 0, as the array core
adds; the built-in `sum` compensates float rounding from Python 3.12 on. A
config's float constants are converted by the `number` argument. Only public
names come from `ifhv`.

A problem is read either from its JSON text, where `parse_float=Fraction`
keeps every decimal as written (`from_text`), or from a `DecisionProblem`'s
float arrays, each float converted by `number` (`from_problem`). Both give a
`Problem` of nested lists indexed as the arrays are: evaluations
[dm][criterion][alternative], importance [dm][criterion], expertise
[dm][criterion].
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import NamedTuple

import numpy as np

from ifhv import CriterionKind, DecisionProblem, HVConfig

Pair = tuple  # (mu, nu), both Fraction or both float


def gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), for u = 2**-53."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


class Problem(NamedTuple):
    alternatives: list[str]
    cost: list[bool]  # per criterion
    evaluations: list[list[list[Pair]]]
    importance: list[list[Pair]]
    expertise: list[list]


def from_text(text: str) -> Problem:
    """The exact problem of a problem file's JSON text, in the keyed layout
    that `serialize_problem` writes."""
    data = json.loads(text, parse_float=Fraction, parse_int=Fraction)
    alternatives, dms = data["alternatives"], data["dms"]
    ids = [criterion["id"] for criterion in data["criteria"]]
    return Problem(
        alternatives,
        [criterion["kind"] == "cost" for criterion in data["criteria"]],
        [[[tuple(data["evaluations"][dm][c][a]) for a in alternatives] for c in ids] for dm in dms],
        [[tuple(data["importance"][dm][c]) for c in ids] for dm in dms],
        [[data["expertise"][dm][c] for c in ids] for dm in dms],
    )


def from_problem(problem: DecisionProblem, number=Fraction) -> Problem:
    """The problem of `problem`'s float arrays, each float converted by `number`."""

    def pair(values: list[float]) -> Pair:
        return number(values[0]), number(values[1])

    return Problem(
        list(problem.alternatives),
        [criterion.kind is CriterionKind.COST for criterion in problem.criteria],
        [
            [[pair(values) for values in row] for row in per_dm]
            for per_dm in problem.evaluation_array.tolist()
        ],
        [[pair(values) for values in per_dm] for per_dm in problem.importance_array.tolist()],
        [[number(x) for x in per_dm] for per_dm in problem.expertise_array.tolist()],
    )


def weighted_of(problem: DecisionProblem, number=Fraction) -> list[list[Pair]]:
    """`problem`'s float weighted matrix, [criterion][alternative], each float
    converted by `number`."""
    mu, nu = problem.weighted
    return [
        [(number(x), number(y)) for x, y in zip(row_mu, row_nu)]
        for row_mu, row_nu in zip(mu.tolist(), nu.tolist())
    ]


def _summed(values):
    """The sum of `values`, added from left to right."""
    total = 0
    for value in values:
        total += value
    return total


def _clamped(mu, nu) -> Pair:
    """The pair with nu clamped as `IFN` clamps an overshoot of mu + nu over 1."""
    return mu, (1 - mu if mu + nu > 1 else nu)


def _mean(pairs: list[Pair], weights: list) -> Pair:
    """The weighted mean of the DMs' pairs: each part summed DM by DM, then
    divided once by the summed weights."""
    total = mu = nu = 0
    for (a, b), weight in zip(pairs, weights):
        total += weight
        mu += a * weight
        nu += b * weight
    return _clamped(mu / total, nu / total)


def weighted(problem: Problem) -> list[list[Pair]]:
    """Steps 1-4: the weighted pair of each [criterion][alternative], the mean
    evaluation (swapped on a cost criterion) times the mean importance."""
    matrix = []
    for j, cost in enumerate(problem.cost):
        weights = [per_dm[j] for per_dm in problem.expertise]
        w_mu, w_nu = _mean([per_dm[j] for per_dm in problem.importance], weights)
        row = []
        for i in range(len(problem.alternatives)):
            mu, nu = _mean([per_dm[j][i] for per_dm in problem.evaluations], weights)
            if cost:
                mu, nu = nu, mu
            row.append(_clamped(mu * w_mu, w_nu + nu * (1 - w_nu)))
        matrix.append(row)
    return matrix


def hv_spaces(profile: list[Pair], cfg: HVConfig, number=Fraction) -> tuple:
    """Step 5 for one alternative: (hv_mu, hv_nu, hv_pi, hv_net), each space's
    hypervolume a product over the criteria in order, and
    hv_net = hv_mu - hv_nu - alpha * hv_pi."""
    hv_mu = hv_nu = hv_pi = 1
    for (mu, nu), r in zip(profile, cfg.reference_for(len(profile))):
        r = number(r)
        hv_mu *= mu - r
        hv_nu *= nu - r
        hv_pi *= 1 - mu - nu - r
    return hv_mu, hv_nu, hv_pi, hv_mu - hv_nu - number(cfg.alpha) * hv_pi


def columns(matrix: list[list[Pair]]) -> list[list[Pair]]:
    """Each alternative's profile: its column of a [criterion][alternative] matrix."""
    return [list(column) for column in zip(*matrix)]


def hvas_scores(problem: Problem, cfg: HVConfig | None = None) -> list[Fraction]:
    """The exact HVAS score of every alternative of a `Fraction` problem, in input order."""
    cfg = cfg if cfg is not None else HVConfig()
    return [hv_spaces(profile, cfg)[3] for profile in columns(weighted(problem))]


def extremes(row: list[Pair]) -> tuple[int, int]:
    """The first column of the greatest and of the smallest pair in `row`,
    pairs compared on (mu - nu, mu + nu)."""
    key = [(mu - nu, mu + nu) for mu, nu in row]
    return key.index(max(key)), key.index(min(key))


def solution_profiles(matrix: list[list[Pair]]) -> tuple[list[list[Pair]], list[Pair], list[Pair]]:
    """Each alternative's profile in a [criterion][alternative] matrix, and the
    positive and negative solution profiles PS and NS: each criterion's
    greatest and smallest pair."""
    picks = [extremes(row) for row in matrix]
    ps = [row[best] for row, (best, _) in zip(matrix, picks)]
    ns = [row[worst] for row, (_, worst) in zip(matrix, picks)]
    return columns(matrix), ps, ns


def closeness(profiles: list[list[Pair]], ps: list[Pair], ns: list[Pair], d) -> list:
    """TOPSIS's closeness d(A, NS) / (d(A, PS) + d(A, NS)) of every profile A,
    for a distance `d` between two profiles; ZeroDivisionError where both
    distances of an A are 0."""
    result = []
    for a in profiles:
        to_ps, to_ns = d(a, ps), d(a, ns)
        result.append(to_ns / (to_ps + to_ns))
    return result


def vikor_indices(profiles: list[list[Pair]], ps: list[Pair], ns: list[Pair], d) -> tuple:
    """VIKOR's group utility S and individual regret R of every profile, for a
    distance `d` between two profiles: the sum, criterion by criterion, and
    the maximum of its gaps d(A_j, PS_j) / d(PS_j, NS_j), each 0 (the span
    itself) where the span is 0."""
    spans = [d([p], [q]) for p, q in zip(ps, ns)]
    utilities, regrets = [], []
    for a in profiles:
        gaps = [d([x], [p]) / span if span else span for x, p, span in zip(a, ps, spans)]
        utilities.append(_summed(gaps))
        regrets.append(max(gaps))
    return utilities, regrets


def vikor_q(utilities: list, regrets: list, v: float, number=Fraction) -> list:
    """VIKOR's Q: v and 1 - v weigh S and R each normalised over its span,
    a term without span is dropped and the remaining weight renormalised,
    as `ifhv.vikor` does; Q is 0 where nothing is left."""
    v = number(v)
    terms = []
    for weight, values in ((v, utilities), (1 - v, regrets)):
        best, worst = min(values), max(values)
        if worst > best:
            terms.append((weight, [(x - best) / (worst - best) for x in values]))
    total = _summed(weight for weight, _ in terms)
    if total == 0:
        return [number(0)] * len(utilities)
    return [
        _summed(weight * values[i] for weight, values in terms) / total
        for i in range(len(utilities))
    ]


def pairwise_codas(primary: np.ndarray, secondary: np.ndarray, tau: float) -> np.ndarray:
    """CODAS assessments of float arrays by the pairwise definition, O(n^2):
    the sum over k of h_ik = (E_i - E_k) + (T_i - T_k where abs(E_i - E_k) < tau)."""
    h = primary[:, None] - primary[None, :]
    tie_break = secondary[:, None] - secondary[None, :]
    tie_break *= np.abs(h) < tau
    h += tie_break
    return h.sum(axis=1)


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
