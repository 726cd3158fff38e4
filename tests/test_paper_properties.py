"""Properties that follow from the paper's definitions, each over 200 seeds.

The audit is a search, so besides checking the witnesses it reports, pin
that it finds them: every nonlinear built-in fails at a small budget, and
the linear Hamming distance never does. Net hypervolume is affine in the
perception factor alpha, and for a single criterion it reduces to
mu - nu - alpha * (pi - r), so HVAS orders by mu - nu - alpha * pi whatever
the reference r.
"""

import numpy as np
import pytest

from ifhv import IFS, HVConfig, audit, euclidean2, euclidean3, hamming, hausdorff, hv_net, rank
from ifhv.distances import sample_simplex
from ifhv.ranking import build_ranking
from gen import random_problem

SEEDS = range(200)


@pytest.mark.parametrize("measure", (euclidean2, euclidean3, hausdorff), ids=lambda m: m.name)
def test_audit_finds_ten_witnesses_that_verify(measure):
    for seed in SEEDS:
        report = audit(measure, budget=2000, seed=seed)
        assert len(report.counterexamples) == 10, seed
        assert all(c.verify(measure, report.eps, report.delta) for c in report.counterexamples)


def test_hamming_audit_is_robust():
    for seed in SEEDS:
        report = audit(hamming, budget=2000, seed=seed)
        assert (report.is_robust_on_budget, report.samples_used) == (True, 2000), seed


def random_reference(rng: np.random.Generator, m: int) -> tuple[float, ...] | None:
    """The default reference, the origin, or a random one in [-1, 0]^m."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return None
    return (0.0,) * m if kind == 1 else tuple((-rng.random(m)).tolist())


def test_hv_net_is_affine_in_alpha():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        x = IFS.from_pairs(zip(*(values.tolist() for values in sample_simplex(rng, m))))
        reference = random_reference(rng, m)
        at_0, at_1 = (hv_net(x, HVConfig(reference, alpha)).hv_net for alpha in (0.0, 1.0))
        for alpha in (-1.0, -0.3, 0.5, float(rng.uniform(-1.0, 1.0))):
            score = hv_net(x, HVConfig(reference, alpha)).hv_net
            assert score == pytest.approx((1.0 - alpha) * at_0 + alpha * at_1, abs=1e-12)


def test_one_criterion_ranks_by_mu_minus_nu_minus_alpha_pi():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_alternatives=int(rng.integers(2, 12)), n_criteria=1)
        alpha = float(rng.choice([-1.0, 0.0, 0.5, 1.0, rng.uniform(-1.0, 1.0)]))
        (mu,), (nu,) = problem.weighted
        key = mu - nu - alpha * (1.0 - mu - nu)
        expected = build_ranking("hvas", problem.alternatives, key).order
        for reference in (None, (0.0,), (-float(rng.random()),)):
            cfg = HVConfig(reference, alpha)
            result = rank(problem, cfg)
            r = cfg.reference_for(1)[0]
            assert list(result.scores.values()) == pytest.approx(key + alpha * r, abs=1e-12)
            assert result.order == expected, seed
