"""Acceptance gate: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts inline.
Criteria with runtime budgets assert them with perf_counter.
"""

import functools
import time

import numpy as np
import pytest

from ifhv import (
    IFS,
    HVConfig,
    audit,
    check_axioms,
    euclidean2,
    euclidean3,
    hamming,
    hausdorff,
    hv_inclusion_exclusion,
    hv_net,
    hv_set,
    ifa_aggregate,
    mc_oracle,
    multiply,
    rank,
    rank_by_reference,
    run_methods,
    ReferenceKind,
)
from ifhv.distances import sample_simplex
from gen import (
    problem_with_dominated_pair,
    random_ifn,
    random_problem,
    spread_problem,
)
from test_hvas import flip_problem


def criterion(number: int, description: str):
    """Print a single PASS/FAIL verdict line for one acceptance criterion."""

    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def reference_sets():
    x1 = IFS.from_pairs([(0.2, 0.4), (0.1, 0.2)])
    x2 = IFS.from_pairs([(0.3, 0.6), (0.4, 0.4)])
    x3 = IFS.from_pairs([(0.2, 0.7), (0.6, 0.3)])
    return [x1, x2, x3]


@criterion(1, "net hypervolumes of the three reference sets at r=(-1,-1), alpha=0")
def test_criterion_1_net_hypervolume_scores(reference_sets):
    start = time.perf_counter()
    config = HVConfig(reference=(-1.0, -1.0), alpha=0.0)
    values = [hv_net(x, config).hv_net for x in reference_sets]
    elapsed = time.perf_counter() - start
    assert values[0] == pytest.approx(-0.36, abs=0.005)
    assert values[1] == pytest.approx(-0.42, abs=0.005)
    assert values[2] == pytest.approx(-0.29, abs=0.005)
    assert elapsed < 1.0


@criterion(2, "hamming distances of the reference sets to both ideals")
def test_criterion_2_hamming_columns(reference_sets):
    pis, nis = IFS.positive_ideal(2), IFS.negative_ideal(2)
    expected = [(0.5750, 0.4250), (0.5750, 0.4250), (0.5500, 0.4500)]
    for x, (to_pis, to_nis) in zip(reference_sets, expected):
        assert hamming(x, pis) == pytest.approx(to_pis, abs=1e-4)
        assert hamming(x, nis) == pytest.approx(to_nis, abs=1e-4)


@criterion(3, "ranking orders: net-HV total order and the exact hamming tie")
def test_criterion_3_ranking_orders(reference_sets):
    by_hv = sorted(
        ("X1", "X2", "X3"),
        key=lambda name: hv_net(reference_sets[int(name[1]) - 1]).hv_net,
        reverse=True,
    )
    assert by_hv == ["X3", "X1", "X2"]

    for ref in (ReferenceKind.PIS, ReferenceKind.NIS):
        result = rank_by_reference(reference_sets, hamming, ref)
        groups = [set(group) for group in result.order]
        assert groups == [{"X3"}, {"X1", "X2"}]  # X3 first, X1 and X2 exactly tied


@criterion(4, "audit finds counterexamples for every nonlinear measure, none for hamming")
def test_criterion_4_robustness_audits():
    start = time.perf_counter()
    for measure in (euclidean2, euclidean3, hausdorff):
        report = audit(measure, budget=10_000, eps=1e-9, delta=1e-3, seed=0)
        assert not report.is_robust_on_budget
        assert len(report.counterexamples) >= 1
        for example in report.counterexamples:
            assert example.verify(measure, eps=1e-9, delta=1e-3)
    survivor = audit(hamming, budget=100_000, eps=1e-9, delta=1e-6, seed=0)
    assert survivor.is_robust_on_budget
    assert survivor.counterexamples == ()
    assert time.perf_counter() - start < 30.0


@criterion(5, "hv_set agrees with inclusion-exclusion and the Monte Carlo oracle")
def test_criterion_5_hypervolume_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    for _ in range(100):
        m = int(rng.integers(1, 5))
        count = int(rng.integers(1, 6))
        reference = -rng.random(m)
        points = [reference + rng.random(m) * 2.0 for _ in range(count)]
        exact = hv_set(points, reference)
        assert abs(exact - hv_inclusion_exclusion(points, reference)) <= 1e-9

    agreements = 0
    for index in range(100):
        m = int(rng.integers(2, 5))
        count = int(rng.integers(1, 9))
        reference = -rng.random(m)
        points = [reference + rng.random(m) * 2.0 for _ in range(count)]
        exact = hv_set(points, reference)
        estimate, stderr = mc_oracle(points, reference, samples=1_000_000, seed=index)
        if abs(exact - estimate) <= 3.0 * stderr:
            agreements += 1
    assert agreements >= 95
    assert time.perf_counter() - start < 120.0


@criterion(6, "property suites: closure, metric axioms, complement-sum, dominance, invariances")
def test_criterion_6_property_suites():
    rng = np.random.default_rng(101)

    # closure of multiply and ifa_aggregate on 10^4 random cases each
    for _ in range(10_000):
        product = multiply(random_ifn(rng), random_ifn(rng))
        assert 0.0 <= product.mu <= 1.0 and 0.0 <= product.nu <= 1.0
        assert product.mu + product.nu <= 1.0
    for _ in range(10_000):
        k = int(rng.integers(1, 5))
        values = [random_ifn(rng) for _ in range(k)]
        weights = rng.uniform(0.01, 1.0, k)
        combined = ifa_aggregate(values, weights)
        assert 0.0 <= combined.mu <= 1.0 and 0.0 <= combined.nu <= 1.0
        assert combined.mu + combined.nu <= 1.0

    # metric axioms for every built-in measure on 10^5 random triples
    for measure in (hamming, euclidean2, euclidean3, hausdorff):
        report = check_axioms(measure, samples=100_000, seed=102)
        assert report.all_ok, f"{measure.name} violated an axiom"

    # hamming complement-sum on 10^5 random sets
    for n in (1, 2, 3, 4):
        mu, nu = sample_simplex(rng, (25_000, n))
        to_pis = hamming.evaluate_many(mu, nu, np.ones_like(mu), np.zeros_like(nu))
        to_nis = hamming.evaluate_many(mu, nu, np.zeros_like(mu), np.ones_like(nu))
        assert np.max(np.abs(to_pis + to_nis - 1.0)) <= 1e-12

    # pipeline dominance consistency on 10^4 random problems (planted pair
    # keeps the property non-vacuous in every problem)
    for _ in range(10_000):
        problem, better, worse = problem_with_dominated_pair(rng)
        mu, nu = problem.weighted
        b_col, w_col = (
            IFS.from_pairs(zip(mu[:, i], nu[:, i]))
            for i in map(problem.alternatives.index, (better, worse))
        )
        jm = range(problem.n_criteria)
        assert all(b_col[j].mu >= w_col[j].mu and b_col[j].nu <= w_col[j].nu for j in jm)
        assert hv_net(b_col).hv_net >= hv_net(w_col).hv_net - 1e-12

    # invariance suite: criterion-kind symmetry and permutation equivariance
    for _ in range(300):
        problem = random_problem(rng)
        base = rank(problem)
        flipped = rank(flip_problem(problem))
        assert flipped.order == base.order
        for label in problem.alternatives:
            assert flipped.scores[label] == pytest.approx(base.scores[label], abs=1e-12)

        perm = list(rng.permutation(problem.n_alternatives))
        permuted_problem = type(problem).from_arrays(
            alternatives=tuple(problem.alternatives[i] for i in perm),
            criteria=problem.criteria,
            dms=problem.dms,
            evaluations=problem.evaluation_array[:, :, perm],
            importance=problem.importance_array,
            expertise=problem.expertise_array,
        )
        permuted = rank(permuted_problem)
        for label in problem.alternatives:
            assert permuted.scores[label] == pytest.approx(base.scores[label], abs=1e-12)
        assert [sorted(g) for g in permuted.order] == [sorted(g) for g in base.order]


@criterion(7, "all four methods agree on the best and worst of synthetic problems")
def test_criterion_7_method_consensus_on_extremes():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        problem, strong, weak = spread_problem(rng)
        for result in run_methods(problem, ["hvas", "topsis", "vikor", "codas"]):
            assert result.order[0] == (strong,), f"{result.method} missed the dominant"
            assert result.order[-1] == (weak,), f"{result.method} missed the dominated"
