"""HVAS, `hv_set`, CODAS, and TOPSIS and VIKOR under `hamming`, against their
exact-arithmetic references (`exact.py`)."""

from fractions import Fraction

import numpy as np

from ifhv import (
    CompareConfig,
    DegenerateError,
    HVConfig,
    hamming,
    hv_set,
    parse_problem,
    rank,
    topsis,
    vikor,
)
from ifhv.mcdm import _codas_assessments
from ifhv.fixtures import table1_path
import exact
from exact import gamma
from gen import random_problem

# Largest |float score - exact score| allowed, about 45 ulps of 1.0. The
# 200 problems below stay under 1.2e-15; their scores lie within [-8, 8].
SCORE_BOUND = 1e-14
# Largest |hv_set - exact| / exact allowed on float coordinates. The 40
# float sets below stay under 3.0e-16.
HV_RELATIVE_BOUND = 1e-14


def ordered_groups(labels, scores) -> list[set[str]]:
    """Tie groups of `labels`, best first, by exactly equal scores."""
    groups: list[tuple[set[str], Fraction]] = []
    for label, value in sorted(zip(labels, scores), key=lambda item: -item[1]):
        if groups and groups[-1][1] == value:
            groups[-1][0].add(label)
        else:
            groups.append(({label}, value))
    return [group for group, _ in groups]


def test_table1_scores_are_exact_from_the_decimal_text():
    problem = exact.from_text(table1_path().read_text())
    assert exact.hvas_scores(problem) == [Fraction(-9, 25), Fraction(-21, 50), Fraction(-29, 100)]


def test_table1_hamming_tie_to_nis_is_a_rational_tie():
    problem = exact.from_text(table1_path().read_text())
    x1, x2, x3 = exact.columns(exact.weighted(problem))
    nis = [(Fraction(0), Fraction(1))] * len(x1)
    assert exact.hamming(x1, nis) == exact.hamming(x2, nis) == Fraction(17, 40)
    assert exact.hamming(x3, nis) == Fraction(9, 20)


def test_table1_float_arrays_stay_within_the_bound():
    problem = parse_problem(table1_path())
    scores = rank(problem).scores
    expected = exact.hvas_scores(exact.from_problem(problem))
    for label, value in zip(problem.alternatives, expected):
        assert abs(Fraction(scores[label]) - value) <= SCORE_BOUND


def test_rank_scores_within_bound_of_exact_on_random_problems():
    rng = np.random.default_rng(21)
    worst = Fraction(0)
    for _ in range(200):
        problem = random_problem(rng)
        cfg = HVConfig(tie_tolerance=0.0)
        result = rank(problem, cfg)
        expected = exact.hvas_scores(exact.from_problem(problem), cfg)
        for label, value in zip(problem.alternatives, expected):
            worst = max(worst, abs(Fraction(result.scores[label]) - value))
        assert [set(group) for group in result.order] == ordered_groups(
            problem.alternatives, expected
        )
    assert worst <= SCORE_BOUND


def seeded_point_sets(rng, grid: bool):
    """40 sets of k <= 10 points in m <= 8 dimensions with their references:
    on the grid, coordinates are multiples of 1/8 in [0, 1] and reference
    coordinates lie in {-1, -1/2, 0}; otherwise all are floats."""
    for _ in range(40):
        k, m = int(rng.integers(1, 11)), int(rng.integers(1, 9))
        if grid:
            r = rng.choice([-1.0, -0.5, 0.0], m)
            points = rng.integers(0, 9, (k, m)) / 8.0
        else:
            r = -rng.random(m)
            points = r + rng.random((k, m))
        yield points.tolist(), r.tolist()


def test_hv_set_is_exact_on_a_dyadic_grid():
    # Offsets from the reference are multiples of 1/8 of at most 2, so every
    # intermediate is a multiple of 2**-24 of at most 2**8 and no step rounds.
    for points, r in seeded_point_sets(np.random.default_rng(25), grid=True):
        assert Fraction(hv_set(points, r)) == exact.hv_inclusion_exclusion(points, r), (points, r)


def test_hv_set_within_relative_bound_of_exact_on_floats():
    for points, r in seeded_point_sets(np.random.default_rng(26), grid=False):
        expected = exact.hv_inclusion_exclusion(points, r)
        error = abs(Fraction(hv_set(points, r)) - expected)
        assert error <= Fraction(HV_RELATIVE_BOUND) * expected, (points, r)


def codas_bound(primary, secondary, windows) -> list[Fraction]:
    """A bound on |float H_i - exact H_i| for `_codas_assessments`, from its
    operation count (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., ch. 3), with u = 2**-53 and
    gamma_k = k u / (1 - k u):

        gamma_{n+2} * (n |E_i| + sum |E| + c_i |T_i| + 2 sum |T|)

    where c_i is the size of the window of i. Each sum of n terms, in any
    order, carries gamma_{n-1} times the sum of its magnitudes; the
    differences of two prefix sums of T carry twice that; and the products
    n E_i and c_i T_i and the three differences and sums that combine the
    terms add one rounding each."""
    n = len(primary)
    u = Fraction(1, 2**53)
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    sum_e = sum(abs(Fraction(float(x))) for x in primary)
    sum_t = sum(abs(Fraction(float(x))) for x in secondary)
    return [
        gamma * (n * abs(Fraction(float(e))) + sum_e + c * abs(Fraction(float(t))) + 2 * sum_t)
        for e, t, c in zip(primary, secondary, windows)
    ]


def test_codas_assessments_within_derived_bound_of_exact():
    rng = np.random.default_rng(26)
    for _ in range(60):
        n = int(rng.integers(1, 50))
        primary = rng.random(n) * rng.choice([1e-3, 0.3, 1.0])
        primary[rng.integers(0, n, n // 3)] = primary[rng.integers(0, n)]  # a run of equal values
        secondary = rng.random(n)
        i, k = rng.integers(0, n, 2)
        # a computed gap puts the float test on a window edge; 0 empties every window
        for tau in (min(abs(float(primary[i] - primary[k])), 1.0), 0.0, 0.02):
            got = _codas_assessments(primary, secondary, tau)
            expected = exact.codas_assessments(primary, secondary, tau)
            windows = (np.abs(primary[:, None] - primary[None, :]) < tau).sum(axis=1)
            for value, reference, bound in zip(
                got, expected, codas_bound(primary, secondary, windows)
            ):
                assert abs(Fraction(float(value)) - reference) <= bound


def vikor_bound(utilities, regrets, v: float, m: int, q) -> list[Fraction]:
    """A bound on |float Q_i - exact Q_i| for `ifhv.vikor` under `hamming` on
    m criteria, from its operation count (Higham, ch. 3), with the exact S, R
    and Q of `exact.vikor_indices` and `exact.vikor_q`.

    A gap is a one-element distance over a span, each two roundings, then a
    division: relative error gamma_5. So R carries gamma_5 and the sum S
    gamma_{m+4}; both are sums or maxima of non-negative terms. With g that
    bound, the normalised term t = (x - best) / (worst - best) is computed
    from a numerator and a denominator off by at most g (x + best) and
    g sigma, sigma = worst + best, and three roundings, so

        |t_float - t| <= eta + gamma_3 (t + eta),
        eta = 2 g sigma / (worst - best - g sigma).

    Weighting, summing and renormalising add at most six roundings to a sum
    of non-negative terms, so with e the weighted mean of the two terms'
    bounds, |Q_float - Q| <= e + gamma_6 (Q + e)."""
    terms = []
    for weight, values, g in (
        (Fraction(v), utilities, gamma(m + 4)),
        (1 - Fraction(v), regrets, gamma(5)),
    ):
        best, worst = min(values), max(values)
        if worst > best:
            sigma = worst + best
            assert worst - best > g * sigma  # the bound needs the span to exceed its error
            eta = 2 * g * sigma / (worst - best - g * sigma)
            terms.append(
                (weight, [eta + gamma(3) * ((x - best) / (worst - best) + eta) for x in values])
            )
    total = sum(weight for weight, _ in terms)
    if total == 0:
        return [Fraction(0)] * len(q)
    errors = [sum(weight * bounds[i] for weight, bounds in terms) / total for i in range(len(q))]
    return [e + gamma(6) * (value + e) for e, value in zip(errors, q)]


def hamming_problems():
    """Table1 and 200 seeded problems, each with a VIKOR v: the default for
    table1 and every other problem, a uniform draw otherwise."""
    yield parse_problem(table1_path()), 0.5
    rng = np.random.default_rng(27)
    for index in range(200):
        yield random_problem(rng), 0.5 if index % 2 else float(rng.random())


def test_topsis_and_vikor_under_hamming_within_derived_bound_of_exact():
    # TOPSIS: each distance is a mean of m non-negative terms of two roundings,
    # relative error gamma_{m+2}; the sum of the two distances adds one and
    # the division another, so |C_float - C| <= gamma_{2m+6} C.
    checked = 0
    for problem, v in hamming_problems():
        cfg = CompareConfig(v=v, measure_primary=hamming, tie_tolerance=0.0)
        try:
            closeness, compromise = topsis(problem, cfg), vikor(problem, cfg)
        except DegenerateError:
            continue
        checked += 1
        m, labels = problem.n_criteria, problem.alternatives
        profiles, ps, ns = exact.solution_profiles(exact.weighted_of(problem))
        for label, value in zip(labels, exact.closeness(profiles, ps, ns, exact.hamming)):
            assert abs(Fraction(closeness.scores[label]) - value) <= gamma(2 * m + 6) * value
        utilities, regrets = exact.vikor_indices(profiles, ps, ns, exact.hamming)
        q = exact.vikor_q(utilities, regrets, v)
        for label, value, bound in zip(labels, q, vikor_bound(utilities, regrets, v, m, q)):
            assert abs(Fraction(compromise.scores[label]) - value) <= bound, (label, v)
    assert checked == 201  # table1 and every seeded problem


def test_table1_vikor_under_hamming_is_exactly_utility_alone():
    profiles, ps, ns = exact.solution_profiles(exact.weighted_of(parse_problem(table1_path())))
    utilities, regrets = exact.vikor_indices(profiles, ps, ns, exact.hamming)
    assert len(set(regrets)) == 1  # R has no span, so Q is S normalised
    assert exact.vikor_q(utilities, regrets, 0.5) == [0, 1, 0]
