"""Tests for exact hypervolume, the cross-check oracles, and net-HV scoring."""

import math
import time
from dataclasses import astuple

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
from gen import traced_peak


def mc_reference(points, r, samples, seed, chunk=997):
    """mc_oracle's result by testing every sample against every point."""
    arr, ra = np.asarray(points, dtype=float), np.asarray(r, dtype=float)
    span = arr.max(axis=0) - ra
    box_volume = float(np.prod(span))
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, chunk):
        q = ra + rng.random((min(chunk, samples - start), ra.size)) * span
        hits += int(np.count_nonzero(np.any(np.all(q[:, None, :] <= arr[None], axis=-1), axis=-1)))
    fraction = hits / samples
    return fraction * box_volume, box_volume * math.sqrt(fraction * (1.0 - fraction) / samples)


def pareto_reference(v):
    """_pareto_max as one unblocked (k, k, m) expression."""
    ge = np.all(v[:, None, :] <= v[None, :, :], axis=-1)
    equal = ge & ge.T
    drop = (ge & ~equal).any(axis=1) | np.tril(equal, -1).any(axis=1)
    return v[~drop]


def front(rng, k, m):
    g = np.abs(rng.standard_normal((k, m))) + 1e-3
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def check_front_against_monte_carlo(points, samples, seed):
    """hv_set of a front at reference 0 takes under 5 s and lies within 4
    binomial standard errors of mc_oracle's estimate."""
    r = np.zeros(points.shape[1])
    start = time.perf_counter()
    value = hv_set(points, r)
    assert time.perf_counter() - start < 5.0
    estimate, _ = mc_oracle(points, r, samples=samples, seed=seed)
    box = float(np.prod(points.max(axis=0) - r))
    fraction = value / box
    assert 0.0 < fraction < 1.0
    stderr = box * math.sqrt(fraction * (1.0 - fraction) / samples)
    assert abs(value - estimate) <= 4.0 * stderr


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

    @pytest.mark.parametrize("m", (3, 4, 5, 6, 7, 8))
    def test_matches_inclusion_exclusion_up_to_six_dimensions(self, m):
        # the name predates m = 7 and 8; it is kept so the test ids stay stable
        rng = np.random.default_rng(37 + m)
        for trial in range(60):
            k = int(rng.integers(1, 13))
            r = -rng.random(m) if trial % 2 else np.zeros(m)
            if trial % 3 == 0:  # a coarse grid: ties on every axis, duplicate rows
                points = r + rng.integers(0, 3, (k, m)) / 2.0
                points = np.vstack([points, points[rng.integers(0, k, 2)]])
            else:
                points = r + rng.random((k, m))
            # some coordinates on the reference, which makes flat boxes
            on_reference = rng.random(points.shape) < 0.1
            points[on_reference] = np.broadcast_to(r, points.shape)[on_reference]
            assert hv_set(points, r) == pytest.approx(
                hv_inclusion_exclusion(points, r), rel=1e-9, abs=1e-9
            )

    def test_front_stress_agrees_with_monte_carlo(self):
        # k = 20 000 mutually non-dominated points in 3-D, where the HV3D
        # sweep is O(k log k)
        check_front_against_monte_carlo(front(np.random.default_rng(38), 20_000, 3), 20_000, 39)

    def test_eight_dimensional_front_agrees_with_monte_carlo(self):
        # k = 50 mutually non-dominated points in 8-D: the time bound fails a
        # recursion whose cost grows by a factor of about k per dimension
        check_front_against_monte_carlo(front(np.random.default_rng(44), 50, 8), 200_000, 45)

    def test_tied_last_coordinate_costs_one_sweep_per_level(self, monkeypatch):
        # 2000 points whose heads form a 3-D front and whose last coordinate
        # takes two values: one HV3D sweep per level, not one per point, and
        # none for the empty set above the top.
        k = 2000
        levels = np.tile([0.5, 1.0], k // 2)
        points = np.column_stack((front(np.random.default_rng(47), k, 3), levels))
        sweeps = []
        sweep = hypervolume._hv3d
        monkeypatch.setattr(hypervolume, "_hv3d", lambda v: sweeps.append(len(v)) or sweep(v))
        value = hv_set(points, np.zeros(4))
        assert sweeps == [k, k // 2]
        high = points[points[:, 3] == 1.0, :3]
        expected = 0.5 * hv_set(points[:, :3], np.zeros(3)) + 0.5 * hv_set(high, np.zeros(3))
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rows", (1, 2, 3))
    def test_sweep_blocks_keep_every_bit(self, monkeypatch, rows):
        # HV3D reads PARETO_BLOCK_ELEMENTS // 120 rows a block; blocks of 1 to
        # 3 rows split its levels and its runs of tied z at every place
        rng = np.random.default_rng(48)
        sets = []
        for k in (1, 2, 3, 4, 7, 40, 300):
            sets.append(np.column_stack((front(rng, k, 2), rng.integers(1, 4, k) / 2.0)))
            sets.append(rng.integers(0, 3, (k, 3)) / 2.0)
            sets.append(front(rng, k, 2))
            sets.append(rng.integers(0, 3, (k, 2)) / 2.0)
        expected = [hv_set(points, np.zeros(points.shape[1])).hex() for points in sets]
        monkeypatch.setattr(hypervolume, "PARETO_BLOCK_ELEMENTS", 120 * rows)
        assert [hv_set(points, np.zeros(points.shape[1])).hex() for points in sets] == expected

    @pytest.mark.parametrize("shape", ("cloud", "front"))
    def test_sweep_peak_stays_below_twice_the_array(self, shape):
        # the offsets from the reference are one array; the sort order and a
        # block of Python floats stay under one more
        rng = np.random.default_rng(49)
        points = rng.random((100_000, 3)) if shape == "cloud" else front(rng, 100_000, 3)
        assert traced_peak(hv_set, points, np.zeros(3))[1] < 2 * points.nbytes

    def test_recursion_keeps_comparisons_within_the_block_cap(self, monkeypatch):
        # Every limit set of a 5-D front goes through _pareto_max. With a
        # small cap the peak stays below the (k - 1, k - 1, m - 1) booleans
        # that one unblocked comparison of the first limit set would hold.
        monkeypatch.setattr(hypervolume, "PARETO_BLOCK_ELEMENTS", 2**12)
        k, m = 300, 5
        points = front(np.random.default_rng(46), k, m)
        assert traced_peak(hv_set, points, np.zeros(m))[1] < (k - 1) ** 2 * (m - 1)

    @pytest.mark.parametrize("cap", (1, 7, 100, None))
    def test_pareto_max_matches_unblocked(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(hypervolume, "PARETO_BLOCK_ELEMENTS", cap)
        rng = np.random.default_rng(40)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 40))
            v = rng.integers(0, 3, (k, m)) / 2.0 if rng.random() < 0.5 else rng.random((k, m))
            assert np.array_equal(hypervolume._pareto_max(v), pareto_reference(v))

    def test_pareto_max_memory_is_bounded(self):
        v = np.random.default_rng(41).random((4000, 4))
        assert traced_peak(hypervolume._pareto_max, v)[1] < 16 * 2**20

    def test_pareto_max_keeps_first_of_equal_rows(self):
        v = np.array([[1.0, 1.0], [0.5, 2.0], [1.0, 1.0], [0.5, 1.0], [0.5, 2.0], [2.0, 0.5]])
        assert hypervolume._pareto_max(v).tolist() == [[1.0, 1.0], [0.5, 2.0], [2.0, 0.5]]

    def test_reference_validation(self):
        with pytest.raises(DomainError, match="^point 1: point does not dominate the reference$"):
            hv_set([(0.5, 0.2), (-0.5, 0.2)], (0, 0))
        with pytest.raises(DomainError, match="^point 2: coordinates must be finite$"):
            hv_set([(0.5, 0.2), (0.5, 0.2), (math.nan, -0.5)], (0, 0))
        with pytest.raises(MismatchError):
            hv_set([(0.5, 0.2), (0.5, 0.2, 0.1)], (0, 0))
        with pytest.raises(MismatchError, match="reference has 3 coordinates but the points have 2"):
            hv_set([(0.5, 0.2)], (0, 0, 0))

    @pytest.mark.parametrize("check", (hv_set, hv_inclusion_exclusion, mc_oracle))
    def test_every_entry_point_shares_the_validator(self, check):
        with pytest.raises(DomainError, match="^point 0: coordinates must be finite$"):
            check([(math.inf, 0.2)], (0, 0))

    @pytest.mark.parametrize(
        "check",
        (hv_set, hv_inclusion_exclusion, mc_oracle, lambda points, r: hv_point(points[0], r)),
        ids=("hv_set", "hv_inclusion_exclusion", "mc_oracle", "hv_point"),
    )
    @pytest.mark.parametrize(
        "points, r",
        [
            ([(1e200, 1e200)], (-1, -1)),  # the box's volume overflows
            ([(0.5, 0.2)], (-1e308, -1e308)),  # the reference alone makes it overflow
            # a finite volume of 1e100, but the first two widths' area overflows
            ([(1e200, 1e200, 1e-300)], (0, 0, 0)),
            ([(1e308, 0.5)], (-1e308, 0)),  # a width that overflows by itself
        ],
    )
    def test_a_box_beyond_the_float_range_is_rejected(self, check, points, r):
        with pytest.raises(DomainError, match="exceeds the float range$"):
            check(points, r)

    def test_a_box_just_within_the_float_range_is_measured(self):
        points = [(2.0**512, 2.0**510), (2.0**511, 2.0**511)]  # a box of 2**1023
        assert hv_set(points, (0, 0)) == 3 * 2.0**1021
        estimate, stderr = mc_oracle(points, (0, 0), samples=1000, seed=0)
        assert math.isfinite(estimate) and math.isfinite(stderr)
        assert hv_point((1e300, 1e-300), (0, 0)) == pytest.approx(1.0)


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

    @pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6))
    @pytest.mark.parametrize("k", (1, 7, 64, 65, 2000))
    def test_bit_equal_to_all_points_reference(self, monkeypatch, k, m):
        rng = np.random.default_rng(k * 10 + m)
        # odd k on a grid: ties in box volume and duplicate rows
        points = rng.integers(0, 4, (k, m)) / 3.0 if k % 2 else rng.random((k, m))
        samples = 601
        for r in (np.zeros(m), -rng.random(m)):
            expected = mc_reference(points, r, samples, seed=m)
            for cap in (None, 1, 50, 1001):
                if cap is not None:
                    monkeypatch.setattr(hypervolume, "MC_CHUNK_ELEMENTS", cap)
                assert mc_oracle(points, r, samples=samples, seed=m) == expected
                monkeypatch.undo()

    @pytest.mark.parametrize("reference", (-1.0, 0.0))
    @pytest.mark.parametrize("k, m", ((200, 3), (60, 4), (12, 6), (2000, 3)))
    def test_bit_equal_on_benchmark_shapes(self, k, m, reference):
        """Sphere fronts and a cloud of the benchmark's shapes: on the fronts
        many samples miss every box and pass through every point block."""
        rng = np.random.default_rng(k * 10 + m)
        points = rng.random((k, m)) if k == 2000 else front(rng, k, m)
        r = np.full(m, reference)
        expected = mc_reference(points, r, 20_000, seed=k)
        assert mc_oracle(points, r, samples=20_000, seed=k) == expected

    def test_memory_is_bounded_on_a_large_cloud(self):
        points = np.random.default_rng(42).random((20_000, 3))
        assert traced_peak(mc_oracle, points, (0.0, 0.0, 0.0), 50_000, 1)[1] < 8 * 2**20

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

    @pytest.mark.parametrize(
        "reference", [(-1e308, -1e308), (-(2.0**1023),), (-2.0,) * 1024]
    )
    def test_reference_whose_net_hypervolume_overflows_rejected(self, reference):
        # 2 * prod(1 - r) bounds |hv_net|
        with pytest.raises(DomainError, match=r"can exceed the float range: 2 \* prod"):
            HVConfig(reference=reference)

    def test_reference_at_the_overflow_bound_allowed(self):
        cfg = HVConfig(reference=(-(2.0**1022),), alpha=-1.0)
        parts = hv_net(IFS.from_pairs([(1.0, 0.0)]), cfg)
        assert astuple(parts) == (2.0**1022,) * 4  # 1 + 2**1022 rounds to 2**1022

    def test_zero_reference_allowed(self):
        assert HVConfig(reference=(0.0, -1.0)).reference == (0.0, -1.0)

    @pytest.mark.parametrize("alpha", [-1.5, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(DomainError):
            HVConfig(alpha=alpha)

    def test_reference_dimension_check(self):
        with pytest.raises(MismatchError):
            HVConfig(reference=(-1.0, -1.0)).reference_for(3)

    def test_alpha_and_tie_tolerance_are_stored_as_floats(self):
        cfg = HVConfig(alpha=np.float32(0.5), tie_tolerance=np.float32(1e-6))
        assert (type(cfg.alpha), type(cfg.tie_tolerance)) == (float, float)
        assert cfg.tie_tolerance == float(np.float32(1e-6))
        assert HVConfig(tie_tolerance=0).tie_tolerance == 0.0


class TestHvNet:
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

    def test_bit_equal_to_three_single_point_volumes(self):
        """The array formula gives what hv_point gives on each space's vector."""
        rng = np.random.default_rng(37)
        from ifhv.distances import sample_simplex

        for _ in range(600):
            m = int(rng.integers(1, 25))
            mu, nu = sample_simplex(rng, m)
            x = IFS.from_pairs(zip(mu, nu))
            reference = tuple(-rng.random(m)) if rng.random() < 0.5 else None
            cfg = HVConfig(reference=reference, alpha=float(rng.choice([0.0, 0.5, -1.0])))
            r = cfg.reference_for(m)
            hv_mu = hv_point(x.mu_values(), r)
            hv_nu = hv_point(x.nu_values(), r)
            hv_pi = hv_point(x.pi_values(), r)
            expected = (hv_mu, hv_nu, hv_pi, hv_mu - hv_nu - cfg.alpha * hv_pi)
            assert astuple(hv_net(x, cfg)) == expected

    def test_dimension_mismatch(self, reference_sets):
        x1, _, _ = reference_sets
        with pytest.raises(MismatchError):
            hv_net(x1, HVConfig(reference=(-1.0, -1.0, -1.0)))

    @pytest.mark.parametrize(
        "pair, k, alpha",
        [
            ((0.9, 0.05), 1200, 0.0),  # hv_mu = 1.9 ** 1200
            ((0.5, 0.0), 1750, -1.0),  # each space 1.44e308, hv_mu + hv_pi beyond
        ],
    )
    def test_hypervolume_beyond_the_float_range_rejected(self, pair, k, alpha):
        # with warnings as errors, a numpy overflow warning would fail this too
        x = IFS.from_pairs([pair] * k)
        with pytest.raises(DomainError, match=f"over {k} coordinates .* exceed the float range"):
            hv_net(x, HVConfig(alpha=alpha))
