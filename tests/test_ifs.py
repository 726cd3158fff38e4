"""Tests for IFN/IFS construction, derived functions, and aggregation."""

import numpy as np
import pytest

from ifhv import (
    IFN,
    IFS,
    NIS,
    PIS,
    DegenerateError,
    DomainError,
    MismatchError,
    Ordering,
    accuracy,
    compare,
    hesitancy,
    ifa_aggregate,
    multiply,
    score,
    select_extremes,
)
from gen import random_ifn


class TestConstruction:
    def test_plain_pair(self):
        a = IFN(0.2, 0.4)
        assert a.mu == 0.2
        assert a.nu == 0.4

    def test_ideal_points(self):
        assert IFN(1, 0) == PIS
        assert IFN(0, 1) == NIS

    def test_repr(self):
        assert repr(IFN(0.25, 0.5)) == "IFN(0.25, 0.5)"

    def test_sum_above_one_rejected(self):
        with pytest.raises(DomainError):
            IFN(0.7, 0.5)

    @pytest.mark.parametrize("mu,nu", [(-0.1, 0.5), (0.5, 1.1), (1.5, 0.0), (0.0, -0.2)])
    def test_out_of_range_rejected(self, mu, nu):
        with pytest.raises(DomainError):
            IFN(mu, nu)

    @pytest.mark.parametrize("mu,nu", [(float("nan"), 0.1), (0.1, float("inf"))])
    def test_non_finite_rejected(self, mu, nu):
        with pytest.raises(DomainError):
            IFN(mu, nu)

    def test_rounding_overshoot_clamped_to_boundary(self):
        a = IFN(0.7, 0.3 + 5e-10)
        assert a.mu + a.nu == 1.0
        assert a.nu == 1.0 - a.mu

    def test_overshoot_beyond_tolerance_rejected(self):
        with pytest.raises(DomainError):
            IFN(0.7, 0.3 + 1e-8)


class TestDerivedFunctions:
    def test_hesitancy_values(self):
        assert hesitancy(IFN(0.2, 0.4)) == pytest.approx(0.4)
        assert hesitancy(IFN(1, 0)) == 0.0
        assert hesitancy(IFN(0, 0)) == 1.0

    def test_score_values(self):
        assert score(IFN(1, 0)) == 1.0
        assert score(IFN(0.3, 0.6)) == pytest.approx(-0.3)
        assert score(IFN(0.4, 0.4)) == 0.0

    def test_accuracy_values(self):
        assert accuracy(IFN(0.4, 0.4)) == pytest.approx(0.8)
        assert accuracy(IFN(0, 0)) == 0.0
        assert accuracy(IFN(1, 0)) == 1.0

    def test_components_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = random_ifn(rng)
            assert abs(a.mu + a.nu + a.pi - 1.0) <= 1e-12


class TestCompare:
    def test_score_decides(self):
        assert compare(IFN(0.3, 0.6), IFN(0.6, 0.3)) is Ordering.LESS

    def test_accuracy_breaks_score_ties(self):
        assert compare(IFN(0.4, 0.4), IFN(0.3, 0.3)) is Ordering.GREATER

    def test_equal(self):
        assert compare(IFN(0.2, 0.2), IFN(0.2, 0.2)) is Ordering.EQUAL

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        flipped = {Ordering.LESS: Ordering.GREATER,
                   Ordering.EQUAL: Ordering.EQUAL,
                   Ordering.GREATER: Ordering.LESS}
        for _ in range(2000):
            a, b = random_ifn(rng), random_ifn(rng)
            assert compare(b, a) is flipped[compare(a, b)]

    def test_transitivity(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a, b, c = (random_ifn(rng) for _ in range(3))
            if compare(a, b) is not Ordering.GREATER and compare(b, c) is not Ordering.GREATER:
                assert compare(a, c) is not Ordering.GREATER


class TestMultiply:
    def test_plain_product(self):
        # (0.5*0.4, 0.3 + 0.2 - 0.3*0.2) = (0.20, 0.44)
        out = multiply(IFN(0.5, 0.3), IFN(0.4, 0.2))
        assert out.mu == pytest.approx(0.20)
        assert out.nu == pytest.approx(0.44)

    def test_identity_element(self):
        a = IFN(0.3, 0.5)
        assert multiply(a, PIS) == a

    def test_absorbing_element(self):
        assert multiply(IFN(0.3, 0.5), NIS) == NIS

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            a, b, c = (random_ifn(rng) for _ in range(3))
            ab, ba = multiply(a, b), multiply(b, a)
            assert ab.mu == pytest.approx(ba.mu, abs=1e-12)
            assert ab.nu == pytest.approx(ba.nu, abs=1e-12)
            left = multiply(multiply(a, b), c)
            right = multiply(a, multiply(b, c))
            assert left.mu == pytest.approx(right.mu, abs=1e-12)
            assert left.nu == pytest.approx(right.nu, abs=1e-12)

    def test_closure_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            out = multiply(random_ifn(rng), random_ifn(rng))
            assert 0.0 <= out.mu <= 1.0
            assert 0.0 <= out.nu <= 1.0
            assert out.mu + out.nu <= 1.0


class TestIfaAggregate:
    def test_single_input_identity(self):
        assert ifa_aggregate([IFN(0.4, 0.2)], [1.0]) == IFN(0.4, 0.2)

    def test_equal_weights_average(self):
        out = ifa_aggregate([IFN(0.4, 0.2), IFN(0.8, 0.0)], [0.5, 0.5])
        assert out.mu == pytest.approx(0.6)
        assert out.nu == pytest.approx(0.1)

    def test_zero_weights_degenerate(self):
        with pytest.raises(DegenerateError):
            ifa_aggregate([IFN(0.4, 0.2), IFN(0.8, 0.0)], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(MismatchError):
            ifa_aggregate([IFN(0.4, 0.2)], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ifa_aggregate([], [])

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            ifa_aggregate([IFN(0.4, 0.2)], [-0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DomainError, match="finite and non-negative"):
            ifa_aggregate([IFN(0.4, 0.2), IFN(0.8, 0.0)], [0.5, bad])

    def test_check_order(self):
        # empty list, then length mismatch, then a bad weight, then all zero
        value = IFN(0.4, 0.2)
        with pytest.raises(DomainError, match="at least one value"):
            ifa_aggregate([], [float("nan")])
        with pytest.raises(MismatchError):
            ifa_aggregate([value], [float("nan"), 0.0])
        for weights in ([0.0, float("nan")], [0.0, -1.0], [float("inf"), 0.0]):
            with pytest.raises(DomainError, match="finite and non-negative"):
                ifa_aggregate([value, value], weights)
        with pytest.raises(DegenerateError, match="sum to zero"):
            ifa_aggregate([value, value], [0.0, 0.0])

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            k = int(rng.integers(1, 6))
            values = [random_ifn(rng) for _ in range(k)]
            weights = rng.uniform(0.01, 1.0, k)
            factor = float(rng.uniform(0.001, 1000.0))
            base = ifa_aggregate(values, weights)
            scaled = ifa_aggregate(values, weights * factor)
            assert scaled.mu == pytest.approx(base.mu, abs=1e-12)
            assert scaled.nu == pytest.approx(base.nu, abs=1e-12)

    def test_closure_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            k = int(rng.integers(1, 5))
            values = [random_ifn(rng) for _ in range(k)]
            weights = rng.uniform(0.0, 1.0, k)
            if weights.sum() == 0.0:
                continue
            out = ifa_aggregate(values, weights)
            assert 0.0 <= out.mu <= 1.0
            assert 0.0 <= out.nu <= 1.0
            assert out.mu + out.nu <= 1.0


class TestSelectExtremes:
    def test_basic(self):
        values = [IFN(0.3, 0.6), IFN(0.6, 0.3), IFN(0.4, 0.4)]
        best, worst = select_extremes(values)
        assert best == IFN(0.6, 0.3)
        assert worst == IFN(0.3, 0.6)

    def test_singleton(self):
        best, worst = select_extremes([IFN(0.2, 0.4)])
        assert best == worst == IFN(0.2, 0.4)

    def test_accuracy_tiebreak(self):
        best, worst = select_extremes([IFN(0.4, 0.4), IFN(0.3, 0.3)])
        assert best == IFN(0.4, 0.4)
        assert worst == IFN(0.3, 0.3)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            select_extremes([])

    def test_first_occurrence_wins_ties(self):
        first, second = IFN(0.5, 0.2), IFN(0.5, 0.2)
        best, worst = select_extremes([first, second])
        assert best is first
        assert worst is first

    def test_earliest_extremes_under_compare(self):
        # dyadic values make scores tie exactly, so accuracy decides; drawing
        # from few values makes exact duplicates
        rng = np.random.default_rng(9)
        pool = [IFN(a / 8, b / 8) for a in range(9) for b in range(9 - a)]
        for _ in range(500):
            picks = rng.integers(0, len(pool), int(rng.integers(1, 10)))
            row = [IFN(pool[k].mu, pool[k].nu) for k in picks]
            greatest = next(
                a for a in row if all(compare(a, b) is not Ordering.LESS for b in row)
            )
            smallest = next(
                a for a in row if all(compare(a, b) is not Ordering.GREATER for b in row)
            )
            best, worst = select_extremes(row)
            assert best is greatest and worst is smallest

    def test_extremes_bound_every_input(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            values = [random_ifn(rng) for _ in range(int(rng.integers(1, 8)))]
            best, worst = select_extremes(values)
            for value in values:
                assert compare(value, best) is not Ordering.GREATER
                assert compare(value, worst) is not Ordering.LESS


class TestIFS:
    def test_from_pairs_and_access(self):
        x = IFS.from_pairs([(0.2, 0.4), (0.1, 0.2)])
        assert len(x) == 2
        assert x[0] == IFN(0.2, 0.4)
        assert list(x.mu_values()) == [0.2, 0.1]
        assert list(x.nu_values()) == [0.4, 0.2]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            IFS(())

    def test_ideal_constructors(self):
        assert all(e == PIS for e in IFS.positive_ideal(3))
        assert all(e == NIS for e in IFS.negative_ideal(3))

    def test_non_ifn_elements_rejected(self):
        with pytest.raises(DomainError):
            IFS(((0.2, 0.4),))
