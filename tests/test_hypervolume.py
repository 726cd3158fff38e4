"""Tests for exact hypervolume, the cross-check oracles, and net-HV scoring."""

import numpy as np
import pytest

import ifhv.hypervolume as hypervolume
from ifhv import (
    IFS,
    DomainError,
    HVConfig,
    MismatchError,
    hv_inclusion_exclusion,
    hv_net,
    hv_point,
    hv_set,
    mc_oracle,
)


class TestHvPoint:
    def test_box_from_negative_reference(self):
        assert hv_point((0.2, 0.1), (-1, -1)) == pytest.approx(1.32, abs=1e-12)

    def test_degenerate_box(self):
        assert hv_point((0.5, 0.5), (0.5, 0.5)) == 0.0

    def test_cube(self):
        assert hv_point((0.5, 0.5, 0.5), (0, 0, 0)) == pytest.approx(0.125)

    def test_dominance_violation(self):
        with pytest.raises(DomainError):
            hv_point((0.2, -2.0), (-1, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchError):
            hv_point((0.2, 0.1, 0.3), (-1, -1))


class TestHvSet:
    def test_two_overlapping_boxes(self):
        # 0.10 + 0.10 - 0.04 by inclusion-exclusion
        assert hv_set([(0.5, 0.2), (0.2, 0.5)], (0, 0)) == pytest.approx(0.16, abs=1e-12)

    def test_empty_set(self):
        assert hv_set([], (0, 0)) == 0.0

    def test_dominated_point_ignored_exactly(self):
        base = hv_set([(0.5, 0.5)], (0, 0))
        assert base == pytest.approx(0.25)
        assert hv_set([(0.5, 0.5), (0.4, 0.4)], (0, 0)) == base

    def test_single_point_matches_hv_point(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            r = -rng.random(m)
            p = r + rng.random(m) * 2.0
            assert hv_set([p], r) == pytest.approx(hv_point(p, r), abs=1e-12)

    def test_monotone_in_points(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            r = np.zeros(m)
            points = [rng.random(m) for _ in range(int(rng.integers(1, 6)))]
            value = hv_set(points, r)
            grown = hv_set(points + [rng.random(m)], r)
            assert grown >= value - 1e-12

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            points = [rng.random(m) for _ in range(4)]
            r = -rng.random(m)
            base = hv_set(points, r)
            perm = rng.permutation(m)
            permuted = [np.asarray(p)[perm] for p in points]
            assert hv_set(permuted, np.asarray(r)[perm]) == pytest.approx(base, abs=1e-12)

    def test_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            count = int(rng.integers(1, 6))
            r = -rng.random(m)
            points = [r + rng.random(m) * 2.0 for _ in range(count)]
            assert hv_set(points, r) == pytest.approx(
                hv_inclusion_exclusion(points, r), abs=1e-9
            )
        # coordinates on a coarse grid: duplicate rows and ties on some axes
        for _ in range(200):
            m = int(rng.integers(1, 5))
            points = [rng.integers(0, 3, m) / 2.0 for _ in range(int(rng.integers(2, 9)))]
            points += [points[int(i)] for i in rng.integers(0, len(points), 2)]
            r = np.zeros(m)
            assert hv_set(points, r) == pytest.approx(
                hv_inclusion_exclusion(points, r), abs=1e-9
            )

    def test_pareto_max_keeps_first_of_equal_rows(self):
        v = np.array([[1.0, 1.0], [0.5, 2.0], [1.0, 1.0], [0.5, 1.0], [0.5, 2.0], [2.0, 0.5]])
        assert hypervolume._pareto_max(v).tolist() == [[1.0, 1.0], [0.5, 2.0], [2.0, 0.5]]

    def test_reference_validation(self):
        with pytest.raises(DomainError):
            hv_set([(0.5, 0.2), (-0.5, 0.2)], (0, 0))
        with pytest.raises(MismatchError):
            hv_set([(0.5, 0.2), (0.5, 0.2, 0.1)], (0, 0))


class TestInclusionExclusion:
    def test_small_cases(self):
        assert hv_inclusion_exclusion([(0.5, 0.2), (0.2, 0.5)], (0, 0)) == pytest.approx(0.16)
        assert hv_inclusion_exclusion([], (0, 0)) == 0.0

    def test_point_cap(self):
        points = [(float(i + 1), 1.0) for i in range(21)]
        with pytest.raises(DomainError):
            hv_inclusion_exclusion(points, (0, 0))


class TestMcOracle:
    def test_empty_set(self):
        assert mc_oracle([], (0, 0)) == (0.0, 0.0)

    def test_single_point_exact(self):
        # the union fills its whole bounding box, so every sample hits
        estimate, stderr = mc_oracle([(0.5, 0.25)], (0, 0), samples=10_000, seed=1)
        assert estimate == pytest.approx(0.125, abs=1e-12)
        assert stderr == 0.0

    def test_two_box_union(self):
        points = [(0.5, 0.2), (0.2, 0.5)]
        estimate, stderr = mc_oracle(points, (0, 0), samples=200_000, seed=2)
        assert abs(estimate - 0.16) <= 3.0 * stderr

    def test_deterministic_under_seed(self):
        points = [(0.7, 0.3), (0.4, 0.9)]
        assert mc_oracle(points, (0, 0), 50_000, seed=3) == mc_oracle(points, (0, 0), 50_000, seed=3)

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            mc_oracle([(1.0, 1.0)], (0, 0), samples=0)

    @pytest.mark.parametrize("cap", (1, 50, 1001))
    def test_chunk_cap_keeps_the_sample_stream(self, monkeypatch, cap):
        rng = np.random.default_rng(4)
        points = [tuple(p) for p in rng.random((9, 3))]
        expected = mc_oracle(points, (0, 0, 0), samples=3001, seed=5)
        monkeypatch.setattr(hypervolume, "MC_CHUNK_ELEMENTS", cap)
        assert mc_oracle(points, (0, 0, 0), samples=3001, seed=5) == expected


class TestHVConfig:
    def test_defaults(self):
        cfg = HVConfig()
        assert cfg.reference is None
        assert cfg.alpha == 0.0
        assert cfg.reference_for(3) == (-1.0, -1.0, -1.0)

    def test_positive_reference_rejected(self):
        with pytest.raises(DomainError):
            HVConfig(reference=(0.5, -1.0))

    def test_zero_reference_allowed(self):
        assert HVConfig(reference=(0.0, -1.0)).reference == (0.0, -1.0)

    @pytest.mark.parametrize("alpha", [-1.5, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError):
            HVConfig(alpha=alpha)

    def test_reference_dimension_check(self):
        with pytest.raises(MismatchError):
            HVConfig(reference=(-1.0, -1.0)).reference_for(3)


class TestHvNet:
    @pytest.fixture
    def reference_sets(self):
        x1 = IFS.from_pairs([(0.2, 0.4), (0.1, 0.2)])
        x2 = IFS.from_pairs([(0.3, 0.6), (0.4, 0.4)])
        x3 = IFS.from_pairs([(0.2, 0.7), (0.6, 0.3)])
        return x1, x2, x3

    def test_reference_values(self, reference_sets):
        x1, x2, x3 = reference_sets
        assert hv_net(x1).hv_net == pytest.approx(-0.36, abs=1e-12)
        assert hv_net(x2).hv_net == pytest.approx(-0.42, abs=1e-12)
        assert hv_net(x3).hv_net == pytest.approx(-0.29, abs=1e-12)

    def test_component_volumes(self, reference_sets):
        x1, _, _ = reference_sets
        parts = hv_net(x1)
        assert parts.hv_mu == pytest.approx(1.2 * 1.1, abs=1e-12)
        assert parts.hv_nu == pytest.approx(1.4 * 1.2, abs=1e-12)
        assert parts.hv_pi == pytest.approx(1.4 * 1.7, abs=1e-12)

    def test_alpha_term(self, reference_sets):
        x1, _, _ = reference_sets
        parts = hv_net(x1, HVConfig(alpha=1.0))
        # 1.32 - 1.68 - 2.38
        assert parts.hv_net == pytest.approx(-2.74, abs=1e-12)

    def test_combination_identity(self):
        rng = np.random.default_rng(34)
        from ifhv.distances import sample_simplex

        for _ in range(500):
            m = int(rng.integers(1, 6))
            mu, nu = sample_simplex(rng, m)
            x = IFS.from_pairs(zip(mu, nu))
            alpha = float(rng.uniform(-1, 1))
            parts = hv_net(x, HVConfig(alpha=alpha))
            assert abs(parts.hv_net - (parts.hv_mu - parts.hv_nu - alpha * parts.hv_pi)) <= 1e-12

    def test_factor_bounds_with_default_reference(self):
        rng = np.random.default_rng(35)
        from ifhv.distances import sample_simplex

        for _ in range(500):
            m = int(rng.integers(1, 5))
            mu, nu = sample_simplex(rng, m)
            parts = hv_net(IFS.from_pairs(zip(mu, nu)))
            assert 1.0 <= parts.hv_mu <= 2.0 ** m + 1e-12
            assert 1.0 <= parts.hv_nu <= 2.0 ** m + 1e-12

    def test_dominance_consistency(self):
        rng = np.random.default_rng(36)
        from ifhv.distances import sample_simplex

        for _ in range(1000):
            m = int(rng.integers(1, 5))
            mu, nu = sample_simplex(rng, m)
            better = IFS.from_pairs(zip(mu, nu))
            worse_mu = mu * rng.uniform(0.0, 1.0, m)
            worse_nu = nu + (1.0 - nu) * rng.uniform(0.0, 1.0, m)
            over = worse_mu + worse_nu > 1.0
            worse_nu[over] = 1.0 - worse_mu[over]
            worse = IFS.from_pairs(zip(worse_mu, worse_nu))
            assert hv_net(better).hv_net >= hv_net(worse).hv_net - 1e-12

    def test_dimension_mismatch(self, reference_sets):
        x1, _, _ = reference_sets
        with pytest.raises(MismatchError):
            hv_net(x1, HVConfig(reference=(-1.0, -1.0, -1.0)))
