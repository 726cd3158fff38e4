"""HVAS against its exact-arithmetic reference (`exact.py`)."""

from fractions import Fraction

import numpy as np

from ifhv import HVConfig, parse_problem, rank
from ifhv.fixtures import table1_path
import exact
from gen import random_problem

# Largest |float score - exact score| allowed, about 45 ulps of 1.0. The
# 200 problems below stay under 1.2e-15; their scores lie within [-8, 8].
SCORE_BOUND = 1e-14


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
