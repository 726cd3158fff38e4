"""HVAS and `hv_set` against their exact-arithmetic references (`exact.py`)."""

from fractions import Fraction

import numpy as np

from ifhv import HVConfig, hv_set, parse_problem, rank
from ifhv.fixtures import table1_path
import exact
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
