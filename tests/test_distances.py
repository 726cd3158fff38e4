"""Tests for the built-in distance measures, the registry, and check_axioms."""

import tracemalloc

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

from gen import minkowski3


@pytest.fixture
def reference_sets():
    x1 = IFS.from_pairs([(0.2, 0.4), (0.1, 0.2)])
    x2 = IFS.from_pairs([(0.3, 0.6), (0.4, 0.4)])
    x3 = IFS.from_pairs([(0.2, 0.7), (0.6, 0.3)])
    return x1, x2, x3


PIS2 = IFS.positive_ideal(2)
NIS2 = IFS.negative_ideal(2)
PLUGIN = "plugin-minkowski3"


def plugin() -> DistanceMeasure:
    """A per-pair plugin measure, registered on first use."""
    if PLUGIN not in available_measures():
        register_function(PLUGIN, minkowski3)
    return get_measure(PLUGIN)


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

    def test_self_distance_zero(self, reference_sets):
        for x in reference_sets:
            assert hamming(x, x) == 0.0

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

    def test_self_distance_zero(self, reference_sets):
        for x in reference_sets:
            assert euclidean2(x, x) == 0.0


class TestEuclidean3:
    def test_full_hesitancy_to_ideal(self):
        a = IFS.from_pairs([(0.0, 0.0)])
        # dmu=1, dnu=0, dpi=1 -> sqrt(2/2) = 1
        assert euclidean3(a, IFS.positive_ideal(1)) == pytest.approx(1.0, abs=1e-12)

    def test_partial_hesitancy(self):
        a = IFS.from_pairs([(0.2, 0.4)])
        # sqrt((0.64 + 0.16 + 0.16) / 2)
        assert euclidean3(a, IFS.positive_ideal(1)) == pytest.approx(0.69282, abs=5e-6)

    def test_self_distance_zero(self, reference_sets):
        for x in reference_sets:
            assert euclidean3(x, x) == 0.0


class TestHausdorff:
    def test_against_ideals(self, reference_sets):
        x1, _, _ = reference_sets
        # (max(0.8, 0.4) + max(0.9, 0.2)) / 2
        assert hausdorff(x1, PIS2) == pytest.approx(0.85, abs=1e-12)
        # (max(0.2, 0.6) + max(0.1, 0.8)) / 2
        assert hausdorff(x1, NIS2) == pytest.approx(0.70, abs=1e-12)

    def test_self_distance_zero(self, reference_sets):
        for x in reference_sets:
            assert hausdorff(x, x) == 0.0


ALL_BUILTINS = (hamming, euclidean2, euclidean3, hausdorff)


class TestCommonBehavior:
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
        measure = get_measure(name) if name != PLUGIN else plugin()
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
                assert same_bits(measure._kernel(dmu, dnu), OLD_KERNELS[measure.name](dmu, dnu))


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
        measure = plugin()
        measure.pair_many(a_mu[:10], a_nu[:10], b_mu[:10], b_nu[:10])
        tracemalloc.start()
        try:
            out = measure.pair_many(a_mu, a_nu, b_mu, b_nu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (20_000,)
        # the inputs are 4 x 160 KB; all 40 000 sets at once take about 24 MB
        assert peak < 4 * 2**20


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

    def test_plugin_function_round_trip(self):
        name = "plugin-half-hamming"
        if name not in available_measures():
            from ifhv import register_function

            register_function(name, lambda a, b: 0.5 * hamming(a, b))
        measure = get_measure(name)
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

        def b_differs_in_the_last_element(rng, shape):
            mu, nu = sample_simplex(rng, shape)
            drawn.append((mu, nu))
            if len(drawn) % 3 == 2:
                (a_mu, a_nu), _ = drawn[-2:]
                mu = np.concatenate([a_mu[:, :-1], mu[:, -1:]], axis=1)
                nu = np.concatenate([a_nu[:, :-1], nu[:, -1:]], axis=1)
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

    def test_memory_is_flat_in_samples(self):
        check_axioms(hausdorff, samples=1_000)
        tracemalloc.start()
        try:
            report = check_axioms(hausdorff, samples=300_000, seed=25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_ok
        assert peak < 8 * 2**20
