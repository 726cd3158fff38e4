"""Tests for the built-in distance measures, the registry, and check_axioms."""

import math
import platform
import sys

import numpy as np
import pytest

import ifhv.distances as distances
from ifhv import (
    IFS,
    DistanceMeasure,
    DomainError,
    MismatchError,
    MeasureKind,
    available_measures,
    check_axioms,
    euclidean2,
    euclidean3,
    get_measure,
    hamming,
    hausdorff,
    register_function,
)
from ifhv.distances import register, sample_simplex

from gen import hausdorff_squared, minkowski3, registered, run_python, traced_peak


PIS2 = IFS.positive_ideal(2)
NIS2 = IFS.negative_ideal(2)
PLUGIN = "plugin-minkowski3"


class TestHamming:
    def test_against_positive_ideal(self, reference_sets):
        x1, x2, x3 = reference_sets
        # (|0.2-1| + |0.4-0| + |0.1-1| + |0.2-0|) / 4 = 2.3 / 4
        assert hamming(x1, PIS2) == pytest.approx(0.5750, abs=1e-12)
        assert hamming(x2, PIS2) == pytest.approx(0.5750, abs=1e-12)
        assert hamming(x3, PIS2) == pytest.approx(0.5500, abs=1e-12)

    def test_against_negative_ideal(self, reference_sets):
        x1, x2, x3 = reference_sets
        assert hamming(x1, NIS2) == pytest.approx(0.4250, abs=1e-12)
        assert hamming(x2, NIS2) == pytest.approx(0.4250, abs=1e-12)
        assert hamming(x3, NIS2) == pytest.approx(0.4500, abs=1e-12)

    def test_complement_sum_is_one(self):
        # linearity: d(A, PIS-seq) + d(A, NIS-seq) = 1 for every A
        rng = np.random.default_rng(11)
        for _ in range(5000):
            n = int(rng.integers(1, 6))
            mu, nu = sample_simplex(rng, n)
            a = IFS.from_pairs(zip(mu, nu))
            total = hamming(a, IFS.positive_ideal(n)) + hamming(a, IFS.negative_ideal(n))
            assert abs(total - 1.0) <= 1e-12


class TestEuclidean2:
    def test_against_positive_ideal(self, reference_sets):
        x1, _, _ = reference_sets
        # sqrt((0.8^2 + 0.4^2 + 0.9^2 + 0.2^2) / 4) = sqrt(1.65 / 4)
        assert euclidean2(x1, PIS2) == pytest.approx(np.sqrt(1.65 / 4), abs=1e-12)
        assert euclidean2(x1, PIS2) == pytest.approx(0.6423, abs=5e-5)

    def test_single_element(self):
        a = IFS.from_pairs([(0.0, 0.5)])
        # sqrt((0 + 0.25) / 2)
        assert euclidean2(a, IFS.negative_ideal(1)) == pytest.approx(0.35355, abs=5e-6)


class TestEuclidean3:
    def test_full_hesitancy_to_ideal(self):
        a = IFS.from_pairs([(0.0, 0.0)])
        # dmu=1, dnu=0, dpi=1 -> sqrt(2/2) = 1
        assert euclidean3(a, IFS.positive_ideal(1)) == pytest.approx(1.0, abs=1e-12)

    def test_partial_hesitancy(self):
        a = IFS.from_pairs([(0.2, 0.4)])
        # sqrt((0.64 + 0.16 + 0.16) / 2)
        assert euclidean3(a, IFS.positive_ideal(1)) == pytest.approx(0.69282, abs=5e-6)


class TestHausdorff:
    def test_against_ideals(self, reference_sets):
        x1, _, _ = reference_sets
        # (max(0.8, 0.4) + max(0.9, 0.2)) / 2
        assert hausdorff(x1, PIS2) == pytest.approx(0.85, abs=1e-12)
        # (max(0.2, 0.6) + max(0.1, 0.8)) / 2
        assert hausdorff(x1, NIS2) == pytest.approx(0.70, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_plain_python_square_keeps_the_bits(self, n):
        # the tests' plugin `gen.hausdorff_squared`; the first 20 pairs are equal
        a_mu, a_nu = sample_simplex(np.random.default_rng(70 + n), (500, n))
        b_mu, b_nu = sample_simplex(np.random.default_rng(80 + n), (500, n))
        b_mu[:20], b_nu[:20] = a_mu[:20], a_nu[:20]
        for am, an, bm, bn in zip(*(x.tolist() for x in (a_mu, a_nu, b_mu, b_nu))):
            a, b = IFS.from_pairs(zip(am, an)), IFS.from_pairs(zip(bm, bn))
            assert hausdorff_squared(a, b).hex() == (hausdorff(a, b) ** 2).hex()


ALL_BUILTINS = (hamming, euclidean2, euclidean3, hausdorff)


class TestCommonBehavior:
    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_self_distance_zero(self, measure, reference_sets):
        for x in reference_sets:
            assert measure(x, x) == 0.0

    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_length_mismatch_rejected(self, measure):
        with pytest.raises(MismatchError):
            measure(IFS.positive_ideal(2), IFS.positive_ideal(3))

    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_range_and_permutation_equivariance(self, measure):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            a_mu, a_nu = sample_simplex(rng, n)
            b_mu, b_nu = sample_simplex(rng, n)
            a = IFS.from_pairs(zip(a_mu, a_nu))
            b = IFS.from_pairs(zip(b_mu, b_nu))
            d = measure(a, b)
            assert 0.0 <= d <= 1.0
            perm = rng.permutation(n)
            a_p = IFS(tuple(a[int(i)] for i in perm))
            b_p = IFS(tuple(b[int(i)] for i in perm))
            assert measure(a_p, b_p) == pytest.approx(d, abs=1e-12)

    @pytest.mark.parametrize("name", [m.name for m in ALL_BUILTINS] + [PLUGIN])
    def test_batch_entry_points_match_evaluate(self, name):
        # evaluate, pair_many and evaluate_many are one path: bit-equal on
        # 1-D, 2-D and 3-D inputs, for kernels and per-pair plugins alike
        measure = get_measure(name) if name != PLUGIN else registered(PLUGIN, minkowski3)
        rng = np.random.default_rng(13)
        a_mu, a_nu = sample_simplex(rng, (5, 10, 3))
        b_mu, b_nu = sample_simplex(rng, (5, 10, 3))
        batch = measure.evaluate_many(a_mu, a_nu, b_mu, b_nu)
        assert batch.shape == (5, 10)
        single = measure.pair_many(a_mu[..., 0], a_nu[..., 0], b_mu[..., 0], b_nu[..., 0])
        assert single.shape == (5, 10)
        for i in range(5):
            slab = (a_mu[i], a_nu[i], b_mu[i], b_nu[i])
            assert np.array_equal(measure.evaluate_many(*slab), batch[i])
            assert np.array_equal(measure.pair_many(*(x[:, 0] for x in slab)), single[i])
            for k in range(10):
                row = tuple(x[k] for x in slab)
                a = IFS.from_pairs(zip(row[0], row[1]))
                b = IFS.from_pairs(zip(row[2], row[3]))
                assert measure.evaluate_many(*row) == batch[i, k] == measure(a, b)
                assert measure.pair_many(*(x[0] for x in row)) == single[i, k]
                assert single[i, k] == measure(IFS((a[0],)), IFS((b[0],)))
        # one set broadcast against many equals its explicit copies
        solution = (b_mu[0, 0], b_nu[0, 0])
        explicit = (np.broadcast_to(part, a_mu.shape) for part in solution)
        assert np.array_equal(
            measure.evaluate_many(a_mu, a_nu, *solution),
            measure.evaluate_many(a_mu, a_nu, *explicit),
        )

    def test_kinds(self):
        assert hamming.kind is MeasureKind.LINEAR
        assert all(m.kind is MeasureKind.NONLINEAR for m in (euclidean2, euclidean3, hausdorff))


def log_uniform(shape, seed):
    """Seeded positive values spread evenly in log scale over [1e-300, 1]."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(1e-300), 0.0, size=shape))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def old_euclidean3(dmu, dnu):
    dpi = -(dmu + dnu)
    return np.sqrt(np.mean(0.5 * (dmu * dmu + dnu * dnu + dpi * dpi), axis=-1))


# The kernels as they were written before `_mean_last`, with `np.mean`.
OLD_KERNELS = {
    "hamming": lambda dmu, dnu: np.mean(0.5 * (np.abs(dmu) + np.abs(dnu)), axis=-1),
    "euclidean2": lambda dmu, dnu: np.sqrt(np.mean(0.5 * (dmu * dmu + dnu * dnu), axis=-1)),
    "euclidean3": old_euclidean3,
    "hausdorff": lambda dmu, dnu: np.mean(np.maximum(np.abs(dmu), np.abs(dnu)), axis=-1),
}


class TestMeanLast:
    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("lead", [(4096,), (64, 48)], ids=str)
    def test_bit_equal_to_np_mean(self, n, lead):
        x = log_uniform(lead + (n,), seed=n)
        assert same_bits(distances._mean_last(x), np.mean(x, axis=-1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bit_equal_on_one_row_mixed_signs_and_negative_zeros(self, n):
        row = log_uniform((n,), seed=100 + n)
        assert type(distances._mean_last(row)) is np.float64
        assert same_bits(distances._mean_last(row), np.mean(row, axis=-1))
        # numpy's sum starts from 0.0, so a row of -0.0 has mean 0.0
        rows = np.stack([row, -row, row * np.where(np.arange(n) % 2, -1.0, 1.0), np.full(n, -0.0)])
        assert same_bits(distances._mean_last(rows), np.mean(rows, axis=-1))

    def test_empty_axis_and_0d_keep_numpy_behaviour(self):
        with pytest.warns(RuntimeWarning):
            expected = np.mean(np.zeros((3, 0)), axis=-1)
        with pytest.warns(RuntimeWarning):
            assert same_bits(distances._mean_last(np.zeros((3, 0))), expected)
        with pytest.raises(Exception) as numpy_error:
            np.mean(np.array(0.5), axis=-1)
        with pytest.raises(numpy_error.type):
            distances._mean_last(np.array(0.5))

    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_kernels_bit_equal_to_their_np_mean_form(self, measure):
        for n in range(1, 11):
            for lead in ((), (257,), (9, 31)):
                a_mu, a_nu = sample_simplex(np.random.default_rng(n), lead + (n,))
                b_mu, b_nu = sample_simplex(np.random.default_rng(50 + n), lead + (n,))
                dmu, dnu = a_mu - b_mu, a_nu - b_nu
                # the kernel works in place on its inputs, so it gets copies
                got = measure._kernel(dmu.copy(), dnu.copy())
                assert same_bits(got, OLD_KERNELS[measure.name](dmu, dnu))


def masked_sample_simplex(rng, shape):
    """The reflection through boolean masks: the oracle of `sample_simplex`."""
    mu = rng.random(shape)
    nu = rng.random(shape)
    over = mu + nu > 1.0
    mu[over], nu[over] = 1.0 - mu[over], 1.0 - nu[over]
    over = mu + nu > 1.0
    nu[over] = 1.0 - mu[over]
    return mu, nu


class TestSampleSimplex:
    @pytest.mark.parametrize("shape", [4096, (300, 4), (7, 1), 0], ids=str)
    def test_bytes_equal_masked_formula(self, shape):
        for seed in range(200):
            got = sample_simplex(np.random.default_rng(seed), shape)
            want = masked_sample_simplex(np.random.default_rng(seed), shape)
            for x, y in zip(got, want):
                assert x.shape == y.shape
                assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape", [4096, (300, 4), (7, 1), 0], ids=str)
    def test_out_gives_the_same_bits(self, shape):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            out = (np.full(shape, np.nan), np.full(shape, np.nan))
            got = sample_simplex(rng, shape, out=out)
            assert got[0] is out[0] and got[1] is out[1]
            want = sample_simplex(np.random.default_rng(seed), shape)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
            # the generator stands where the call without `out` leaves it
            stream = np.random.default_rng(seed).random(2 * int(np.prod(shape)) + 1)
            assert rng.random() == stream[-1]

    def test_reflection_lands_inside_exactly(self):
        # the masked formula pins pairs still over 1 after the reflection;
        # with draws on the 2**-53 grid there are none to pin
        rng = np.random.default_rng(5)
        mu, nu = rng.random(1_000_000), rng.random(1_000_000)
        assert not np.any((mu * 2.0**53) % 1.0)
        over = mu + nu > 1.0
        assert np.all((1.0 - mu[over]) + (1.0 - nu[over]) <= 1.0)
        mu, nu = sample_simplex(np.random.default_rng(5), 1_000_000)
        assert mu.min() >= 0.0 and nu.min() >= 0.0
        assert (mu + nu).max() <= 1.0


def from_pairs_oracle(func, a_mu, a_nu, b_mu, b_nu):
    """The per-pair path as two `IFS.from_pairs` per pair, pair by pair."""
    shape = np.broadcast_shapes(a_mu.shape, a_nu.shape, b_mu.shape, b_nu.shape)
    rows = (np.broadcast_to(x, shape).reshape(-1, shape[-1]).tolist()
            for x in (a_mu, a_nu, b_mu, b_nu))
    out = [func(IFS.from_pairs(zip(am, an)), IFS.from_pairs(zip(bm, bn)))
           for am, an, bm, bn in zip(*rows)]
    return np.array(out, float).reshape(shape[:-1])


class TestPluginPath:
    """`evaluate_many` on a plugin function: one bulk check, then the sets."""

    @staticmethod
    def recording():
        """minkowski3, and the list of the set pairs it was called with."""
        seen = []

        def func(a, b):
            seen.append((a, b))
            return minkowski3(a, b)

        return func, seen

    def test_sets_equal_from_pairs(self):
        func, seen = self.recording()
        measure = DistanceMeasure("recording", MeasureKind.NONLINEAR, None, func)
        rng = np.random.default_rng(31)
        a_mu, a_nu = sample_simplex(rng, (4, 6, 3))
        b_mu, b_nu = sample_simplex(rng, (6, 3))
        # sums in (1, 1 + 1e-9] are clamped as IFN clamps them
        a_mu[0, 0], a_nu[0, 0] = 0.7, np.nextafter(0.3, 1.0) + 5e-10
        b_mu[1, 2], b_nu[1, 2] = 0.25, 0.75 + 5e-10
        got = measure.evaluate_many(a_mu, a_nu, b_mu, b_nu)
        oracle, expected_sets = self.recording()
        want = from_pairs_oracle(oracle, a_mu, a_nu, b_mu, b_nu)
        assert got.tobytes() == want.tobytes()
        assert seen == expected_sets
        assert len(seen) == 24
        clamped = seen[0][0][0]
        assert clamped.nu == 1.0 - 0.7 and clamped.mu + clamped.nu <= 1.0
        for a, b in seen:
            for element in (*a, *b):
                assert type(element.mu) is float and type(element.nu) is float

    @pytest.mark.parametrize(
        "bad",
        [
            [("a", 1, 0, 0.7, 0.5)],  # a bad pair in a
            [("b", 0, 1, 1.2, 0.0)],  # a bad pair in b
            [("b", 0, 2, 0.6, 0.6), ("a", 1, 0, 0.2, 0.9)],  # the earlier row wins
            [("a", 0, 2, 0.5, 0.6), ("b", 0, 0, 0.5, 0.6)],  # a before b in a row
            [("a", 1, 1, np.nan, 0.1)],
            [("b", 2, 0, 0.1, np.inf)],
            [("a", 0, 1, -0.0, -1e-300)],
            [("b", 1, 2, 0.5, 0.5 + 2e-9)],  # just past the clamp tolerance
        ],
    )
    def test_first_bad_pair_message(self, bad):
        func, seen = self.recording()
        measure = DistanceMeasure("recording", MeasureKind.NONLINEAR, None, func)
        rng = np.random.default_rng(32)
        arrays = {"a": sample_simplex(rng, (3, 3)), "b": sample_simplex(rng, (3, 3))}
        for side, row, col, mu, nu in bad:
            arrays[side][0][row, col], arrays[side][1][row, col] = mu, nu
        args = (*arrays["a"], *arrays["b"])
        with pytest.raises(DomainError) as expected:
            from_pairs_oracle(minkowski3, *args)
        with pytest.raises(DomainError) as got:
            measure.evaluate_many(*args)
        assert str(got.value) == str(expected.value)
        assert seen == []

    def test_empty_sets_and_empty_batches(self):
        func, seen = self.recording()
        measure = DistanceMeasure("recording", MeasureKind.NONLINEAR, None, func)
        with pytest.raises(DomainError, match="at least one element"):
            measure.evaluate_many(np.zeros((2, 0)), np.zeros((2, 0)), 0.0, 1.0)
        assert measure.evaluate_many(np.zeros((0, 3)), np.zeros((0, 3)), 0.0, 1.0).shape == (0,)
        assert seen == []

    def test_sets_are_built_one_pair_at_a_time(self):
        rng = np.random.default_rng(33)
        a_mu, a_nu = sample_simplex(rng, 20_000)
        b_mu, b_nu = sample_simplex(rng, 20_000)
        measure = registered(PLUGIN, minkowski3)
        measure.pair_many(a_mu[:10], a_nu[:10], b_mu[:10], b_nu[:10])
        out, peak = traced_peak(measure.pair_many, a_mu, a_nu, b_mu, b_nu)
        assert out.shape == (20_000,)
        # the inputs are 4 x 160 KB; all 40 000 sets at once take about 24 MB
        assert peak < 4 * 2**20


NOT_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFinitePlugin:
    """A plugin's result that is not a finite distance is an error, wherever
    the measure is evaluated."""

    @staticmethod
    def returning(value):
        return DistanceMeasure("not-finite", MeasureKind.NONLINEAR, None, lambda a, b: value)

    @pytest.mark.parametrize("value", NOT_FINITE, ids=str)
    def test_evaluate_many_names_measure_and_value(self, value):
        measure = self.returning(value)
        with pytest.raises(DomainError, match=f"^distance measure 'not-finite' returned {value};"):
            measure.evaluate_many(np.full((2, 3), 0.2), np.full((2, 3), 0.3), 1.0, 0.0)
        with pytest.raises(DomainError, match="'not-finite' returned"):
            measure(IFS.from_pairs([(0.2, 0.3)]), IFS.positive_ideal(1))

    def test_first_non_finite_result_is_named(self):
        values = iter([0.5, -math.inf, math.nan])
        measure = DistanceMeasure("mixed", MeasureKind.NONLINEAR, None, lambda a, b: next(values))
        with pytest.raises(DomainError, match="^distance measure 'mixed' returned -inf;"):
            measure.pair_many([0.1, 0.2, 0.3], 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("value", NOT_FINITE, ids=str)
    def test_check_axioms_raises(self, value):
        with pytest.raises(DomainError, match="'not-finite' returned"):
            check_axioms(self.returning(value), samples=50, seed=3)


AxisError = getattr(np, "exceptions", np).AxisError  # np.AxisError before numpy 1.25


class TestEvaluateManyContract:
    """The kernels work in place, on difference arrays that `evaluate_many`
    makes for them: a caller's arrays never change, and broadcasting and
    numpy's errors stay as they were."""

    @staticmethod
    def inputs():
        """(a_mu, a_nu, b_mu, b_nu): mu of shape (1, 3) against nu of shape
        (5, 3), every value below 0.5 so that each broadcast pair is a valid
        IFN."""
        rng = np.random.default_rng(31)
        a_mu, b_mu = 0.5 * rng.random((2, 1, 3))
        a_nu, b_nu = 0.5 * rng.random((2, 5, 3))
        return a_mu, a_nu, b_mu, b_nu

    @pytest.mark.parametrize("name", [m.name for m in ALL_BUILTINS] + [PLUGIN])
    def test_callers_arrays_are_unchanged(self, name):
        measure = get_measure(name) if name != PLUGIN else registered(PLUGIN, minkowski3)
        arrays = self.inputs()
        kept = [x.copy() for x in arrays]
        batch = measure.evaluate_many(*arrays)
        single = measure.pair_many(*(x[..., 0] for x in arrays))
        a = IFS.from_pairs(zip(arrays[0][0], arrays[1][0]))
        b = IFS.from_pairs(zip(arrays[2][0], arrays[3][0]))
        assert measure(a, b) == measure.evaluate(a, b) == batch[0]
        assert single.shape == batch.shape == (5,)
        assert all(same_bits(x, y) for x, y in zip(arrays, kept))
        assert (a.mu_values().tolist(), b.nu_values().tolist()) == (
            kept[0][0].tolist(), kept[3][0].tolist()
        )

    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_mixed_broadcasting_keeps_its_results(self, measure):
        a_mu, a_nu, b_mu, b_nu = self.inputs()
        old = OLD_KERNELS[measure.name]
        # the differences as the kernels received them when they allocated
        # per step: mu (1, 3) against nu (5, 3), then one set against five
        for arrays in ((a_mu, a_nu, b_mu, b_nu), (a_mu, b_mu, a_nu, b_nu)):
            want = old(arrays[0] - arrays[2], arrays[1] - arrays[3])
            assert same_bits(measure.evaluate_many(*arrays), want)
        want = old(a_mu[..., :1] - b_mu[..., :1], a_nu[..., :1] - b_nu[..., :1])
        single = measure.pair_many(a_mu[..., 0], a_nu[..., 0], b_mu[..., 0], b_nu[..., 0])
        assert same_bits(single, want)

    @pytest.mark.parametrize("name", [m.name for m in ALL_BUILTINS] + [PLUGIN])
    def test_alternative_major_views_keep_every_bit(self, name):
        # the comparators pass the transposes of the weighted (m, n) matrix;
        # m runs past 8, where the kernels' mean moves from `_mean_last` to
        # np.mean, and no distance may depend on the views' layout
        measure = get_measure(name) if name != PLUGIN else registered(PLUGIN, minkowski3)
        rng = np.random.default_rng(30)
        for m in range(1, 21):
            mu, nu = sample_simplex(rng, (m, 5))
            ps = sample_simplex(rng, m)
            views = measure.evaluate_many(mu.T, nu.T, *ps)
            assert same_bits(views, measure.evaluate_many(mu.T.copy(), nu.T.copy(), *ps))
            solution = IFS.from_pairs(zip(*ps))
            columns = (IFS.from_pairs(zip(*column)) for column in zip(mu.T, nu.T))
            assert same_bits(views, np.array([measure(a, solution) for a in columns]))

    def test_plugin_mixed_broadcasting_matches_its_oracle(self):
        arrays = self.inputs()
        measure = registered(PLUGIN, minkowski3)
        assert same_bits(measure.evaluate_many(*arrays), from_pairs_oracle(minkowski3, *arrays))

    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_0d_input_raises_numpys_axis_error(self, measure):
        with pytest.raises(AxisError):
            measure.evaluate_many(0.2, 0.3, 0.4, 0.1)
        with pytest.raises(AxisError):
            measure.evaluate_many(np.array(0.2), 0.3, np.array(0.4), 0.1)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_measures()
        for measure in ALL_BUILTINS:
            assert measure.name in names
            assert get_measure(measure.name) is measure

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            get_measure("no-such-measure")

    def test_duplicate_name_rejected(self):
        with pytest.raises(DomainError):
            register(DistanceMeasure("hamming", MeasureKind.LINEAR, None, lambda a, b: 0.0))

    @pytest.mark.parametrize(
        "name, func, kind, message",
        [
            ("plugin-kind-str", minkowski3, "linear",
             "measure 'plugin-kind-str': kind must be a MeasureKind, got 'linear'"),
            ("", minkowski3, MeasureKind.NONLINEAR,
             "a measure name must be a non-empty string, got ''"),
            (3, minkowski3, MeasureKind.NONLINEAR,
             "a measure name must be a non-empty string, got 3"),
            ("plugin-func-int", 5, MeasureKind.NONLINEAR,
             "measure 'plugin-func-int': the kernel or function must be callable, got 5"),
        ],
        ids=["kind-str", "name-empty", "name-int", "func-int"],
    )
    def test_bad_name_or_kind_is_not_registered(self, name, func, kind, message):
        before = available_measures()
        with pytest.raises(DomainError, match=f"^{message}$"):
            register_function(name, func, kind=kind)
        assert available_measures() == before

    def test_plugin_function_round_trip(self):
        measure = registered("plugin-half-hamming", lambda a, b: 0.5 * hamming(a, b))
        a = IFS.from_pairs([(0.2, 0.4)])
        b = IFS.from_pairs([(0.6, 0.1)])
        assert measure(a, b) == pytest.approx(0.5 * hamming(a, b))
        # fallback batch paths loop over evaluate
        out = measure.pair_many(np.array([0.2]), np.array([0.4]), np.array([0.6]), np.array([0.1]))
        assert out[0] == pytest.approx(0.5 * hamming(a, b))


class TestCheckAxioms:
    @pytest.mark.parametrize("measure", ALL_BUILTINS, ids=lambda m: m.name)
    def test_builtins_pass(self, measure):
        report = check_axioms(measure, samples=10_000, seed=17)
        assert report.all_ok
        assert report.witnesses == ()

    def test_asymmetric_measure_caught(self):
        skew = DistanceMeasure(
            "skew-test", MeasureKind.NONLINEAR, None,
            lambda a, b: float(np.clip(np.mean(a.mu_values() - b.mu_values()) + 0.5, 0, 1)),
        )
        report = check_axioms(skew, samples=2000, seed=18)
        assert not report.symmetry_ok
        assert len(report.witnesses) > 0
        assert any(w.axiom == "symmetry" for w in report.witnesses)

    def test_identity_violation_caught(self):
        offset = DistanceMeasure(
            "offset-test", MeasureKind.NONLINEAR, None,
            lambda a, b: hamming(a, b) + 0.1,
        )
        report = check_axioms(offset, samples=500, seed=19)
        assert not report.identity_ok

    def test_identity_sees_a_gap_in_any_element(self, monkeypatch):
        # B repeats A in every element but the last, and the measure reads the
        # first element only, so d(A, B) = 0 for pairs only the last tells apart
        drawn = []

        def b_differs_in_the_last_element(rng, shape, *, out=None):
            mu, nu = sample_simplex(rng, shape, out=out)
            drawn.append((mu, nu))
            if len(drawn) % 3 == 2:
                (a_mu, a_nu), _ = drawn[-2:]
                mu[:, :-1] = a_mu[:, :-1]
                nu[:, :-1] = a_nu[:, :-1]
            return mu, nu

        first_only = DistanceMeasure(
            "first-element-test", MeasureKind.NONLINEAR, None,
            lambda a, b: hamming(IFS((a[0],)), IFS((b[0],))),
        )
        monkeypatch.setattr(distances, "sample_simplex", b_differs_in_the_last_element)
        report = check_axioms(first_only, samples=200, seed=26, lengths=(3,))
        assert not report.identity_ok
        assert [w.axiom for w in report.witnesses] == ["identity"] * 10

    def test_triangle_violation_caught(self):
        squared = DistanceMeasure(
            "squared-test", MeasureKind.NONLINEAR, None,
            lambda a, b: hamming(a, b) ** 2,
        )
        report = check_axioms(squared, samples=5000, seed=20)
        assert not report.triangle_ok

    def test_deterministic_under_seed(self):
        first = check_axioms(hamming, samples=1000, seed=21)
        second = check_axioms(hamming, samples=1000, seed=21)
        assert first == second

    def test_witness_cap(self):
        always_bad = DistanceMeasure(
            "bad-test", MeasureKind.NONLINEAR, None,
            lambda a, b: float(np.mean(a.mu_values())),
        )
        report = check_axioms(always_bad, samples=2000, seed=22)
        assert len(report.witnesses) <= 10

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            check_axioms(hamming, samples=0)

    @pytest.mark.parametrize("lengths", [(), (0,), (1, -2), (2.5,)], ids=repr)
    def test_bad_lengths(self, lengths):
        with pytest.raises(DomainError, match="lengths must be a non-empty sequence of positive"):
            check_axioms(hamming, samples=10, lengths=lengths)

    def test_lengths_accept_numpy_integers(self):
        as_ints = check_axioms(hausdorff, samples=200, seed=3, lengths=(2, 5))
        assert check_axioms(hausdorff, samples=200, seed=3, lengths=np.array([2, 5])) == as_ints

    def test_chunks_keep_verdicts_and_witness_cap(self, monkeypatch):
        squared = DistanceMeasure(
            "squared-chunk-test", MeasureKind.NONLINEAR, None,
            lambda a, b: hamming(a, b) ** 2,
        )
        one_sided = DistanceMeasure(
            "one-sided-chunk-test", MeasureKind.NONLINEAR, None,
            lambda a, b: float(np.mean(a.mu_values())),
        )
        single = check_axioms(squared, samples=3000, seed=23)
        small = check_axioms(one_sided, samples=64, seed=24)
        monkeypatch.setattr(distances, "SAMPLE_CHUNK", 64)
        chunked = check_axioms(squared, samples=3000, seed=23)
        assert (chunked.symmetry_ok, chunked.identity_ok, chunked.triangle_ok) == (
            single.symmetry_ok, single.identity_ok, single.triangle_ok
        )
        assert not chunked.triangle_ok
        assert len(chunked.witnesses) == 10
        # one chunk draws exactly what a single batch of its size would
        assert small.witnesses
        assert check_axioms(one_sided, samples=64, seed=24) == small

    def test_kernel_measures_keep_their_draws_and_witnesses(self):
        # Kernel measures run on the probe's work arrays. Over three chunks
        # and four lengths they report the witnesses that they reported when
        # every group drew new arrays (values recorded from that version).
        def squared_euclidean(dmu, dnu):
            return np.mean(0.5 * (dmu * dmu + dnu * dnu), axis=-1)

        def lopsided(dmu, dnu):
            # asymmetric on the rare rows whose first mu difference is > 0.95
            bump = 1e-6 * (dmu[..., 0] > 0.95)
            return euclidean2._kernel(dmu, dnu) + bump

        squared = check_axioms(
            DistanceMeasure("squared-euclidean-test", MeasureKind.NONLINEAR, squared_euclidean),
            samples=40_000, seed=7,
        )
        assert squared.symmetry_ok and squared.identity_ok and not squared.triangle_ok
        assert [(w.axiom, len(w.sets[0]), w.values) for w in squared.witnesses] == [
            ("triangle", 1, (0.0801716735336428, 0.008957723418635793, 0.04068980955219316)),
            ("triangle", 1, (0.08661179055507523, 0.007223091901624779, 0.05422373418677001)),
            ("triangle", 1, (0.28641586644072725, 0.09989316815995888, 0.053715872083352295)),
            ("triangle", 1, (0.16546148303596817, 0.12686436975984408, 0.008380173690700696)),
            ("triangle", 1, (0.2270369221958454, 0.06551363865083004, 0.048803167766564695)),
            ("triangle", 1, (0.2904821326774464, 0.009105638970223047, 0.27550946011787814)),
            ("triangle", 1, (0.07608675226076206, 0.026372249775530435, 0.017450829249933845)),
            ("triangle", 1, (0.14022677730959954, 0.06740178512185038, 0.013197820923805163)),
            ("triangle", 1, (0.20744981735026594, 0.09387520194108115, 0.07097857567943082)),
            ("triangle", 1, (0.407405644070337, 0.00736462937375889, 0.3968886881040114)),
        ]
        assert squared.witnesses[-1].sets == (
            ((0.9024206551052555, 0.01872477051219723),),
            ((0.008913286443923862, 0.14700520662221883),),
            ((0.04553795285051965, 0.26271126764809316),),
        )
        # 5, 7 and 9 witnesses after the first, second and third chunk
        rare = check_axioms(
            DistanceMeasure("lopsided-test", MeasureKind.NONLINEAR, lopsided),
            samples=40_000, seed=10,
        )
        assert not rare.symmetry_ok and rare.identity_ok and rare.triangle_ok
        assert [(w.axiom, len(w.sets[0]), w.values) for w in rare.witnesses] == [
            ("symmetry", 1, (0.785268701701055, 0.785269701701055)),
            ("symmetry", 1, (0.6977470296016418, 0.6977460296016418)),
            ("symmetry", 1, (0.7720804714449951, 0.7720814714449952)),
            ("symmetry", 3, (0.5727386271976134, 0.5727376271976133)),
            ("symmetry", 4, (0.3962120813971079, 0.39621308139710787)),
            ("symmetry", 1, (0.6729104885149272, 0.6729094885149272)),
            ("symmetry", 2, (0.5294412763225218, 0.5294402763225218)),
            ("symmetry", 3, (0.5325946742231636, 0.5325936742231636)),
            ("symmetry", 3, (0.5486352023300441, 0.5486362023300442)),
        ]
        assert rare.witnesses[-1].sets == (
            ((0.014260309102142044, 0.7489597243837455), (0.21453430441754096, 0.5808546757851806),
             (0.5361899687246714, 0.42517305920401005)),
            ((0.9673871883448909, 0.005108395943238531), (0.3818282403125315, 0.023150086435228756),
             (0.554738750746738, 0.355372361693853)),
        )

    def test_a_kernel_may_return_a_view_of_its_inputs(self):
        def view(dmu, dnu):
            return np.abs(dmu, out=dmu)[..., 0]

        def fresh(dmu, dnu):
            return np.abs(dmu[..., 0])

        got, want = (
            check_axioms(
                DistanceMeasure("first-mu-test", MeasureKind.NONLINEAR, k), samples=3000, seed=27
            )
            for k in (view, fresh)
        )
        assert got == want and got.all_ok

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc's malloc only"
    )
    def test_page_faults_stay_bounded_under_a_fixed_mmap_threshold(self):
        # With glibc's mmap threshold fixed at 128 KiB, every array of the
        # probe's (count, n) groups is mapped and unmapped on its own, so an
        # array allocated per step faults its pages in again on every use.
        # The probe's work arrays are allocated once per call: 600-2 000
        # minor faults a call against 12 500-14 700 with arrays per step.
        code = (
            "import resource\n"
            "from ifhv import check_axioms, euclidean3\n"
            "check_axioms(euclidean3, samples=100_000, seed=7)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "check_axioms(euclidean3, samples=100_000, seed=7)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        done = run_python(
            "-c", code, env={"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "262144"}
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 5_000

    def test_memory_is_flat_in_samples(self):
        check_axioms(hausdorff, samples=1_000)
        report, peak = traced_peak(check_axioms, hausdorff, samples=300_000, seed=25)
        assert report.all_ok
        assert peak < 8 * 2**20
