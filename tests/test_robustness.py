"""Tests for reference-point ranking, the robustness check, and the auditor."""

import hashlib
import math

import numpy as np
import pytest

import ifhv.robustness as robustness
from ifhv import (
    IFN,
    IFS,
    DistanceMeasure,
    DomainError,
    MeasureKind,
    MismatchError,
    ReferenceKind,
    audit,
    euclidean2,
    euclidean3,
    hamming,
    hausdorff,
    iso_nis_pairs,
    parse_problem,
    rank_by_reference,
    robustness_check,
)
from ifhv.distances import SAMPLE_CHUNK, get_measure, sample_simplex
from ifhv.fixtures import table1_path
from ifhv.ranking import build_ranking

from gen import hausdorff_squared, minkowski3, registered, traced_peak

BUILTINS = (hamming, euclidean2, euclidean3, hausdorff)


class TestRankByReference:
    def test_hamming_pis_order_with_tie(self, reference_sets):
        result = rank_by_reference(reference_sets, hamming, ReferenceKind.PIS)
        assert result.order == (("X3",), ("X1", "X2"))
        assert result.scores == pytest.approx({"X1": 0.575, "X2": 0.575, "X3": 0.55})
        assert not result.higher_is_better

    def test_hamming_nis_order_with_tie(self, reference_sets):
        result = rank_by_reference(reference_sets, hamming, ReferenceKind.NIS)
        assert result.order == (("X3",), ("X1", "X2"))
        assert result.higher_is_better

    def test_euclidean2_pis_order(self, reference_sets):
        result = rank_by_reference(reference_sets, euclidean2, ReferenceKind.PIS)
        # hand-computed: sqrt(1.37/4)=0.5852 < sqrt(1.38/4)=0.5874 < sqrt(1.65/4)=0.6423
        assert result.order == (("X2",), ("X3",), ("X1",))
        assert result.scores["X2"] == pytest.approx(0.5852, abs=5e-5)
        assert result.scores["X3"] == pytest.approx(0.5874, abs=5e-5)
        assert result.scores["X1"] == pytest.approx(0.6423, abs=5e-5)

    def test_euclidean2_nis_order(self, reference_sets):
        result = rank_by_reference(reference_sets, euclidean2, ReferenceKind.NIS)
        assert result.order == (("X1",), ("X3",), ("X2",))

    def test_relabeling_invariance(self, reference_sets):
        rng = np.random.default_rng(40)
        base = rank_by_reference(reference_sets, euclidean2, ReferenceKind.PIS)
        for _ in range(20):
            perm = list(rng.permutation(3))
            shuffled = [reference_sets[i] for i in perm]
            labels = [f"X{i + 1}" for i in perm]
            result = rank_by_reference(shuffled, euclidean2, ReferenceKind.PIS, labels=labels)
            assert [sorted(g) for g in result.order] == [sorted(g) for g in base.order]

    def test_length_mismatch(self, reference_sets):
        with pytest.raises(MismatchError):
            rank_by_reference(reference_sets + [IFS.positive_ideal(3)], hamming, ReferenceKind.PIS)

    def test_empty_collection(self):
        with pytest.raises(DomainError):
            rank_by_reference([], hamming, ReferenceKind.PIS)


LOOP_PLUGIN = "plugin-scaled-hausdorff"


def scaled_hausdorff(a, b):
    """A per-pair plugin measure, registered as LOOP_PLUGIN on first use."""
    return 0.5 * hausdorff(a, b)


def looped_ranking(sets, measure, ref):
    """rank_by_reference as it was: one `evaluate` call per set."""
    ideal = ref.expand(len(sets[0]))
    labels = [f"X{i + 1}" for i in range(len(sets))]
    scores = [measure.evaluate(s, ideal) for s in sets]
    return build_ranking("loop", labels, scores, higher_is_better=ref is ReferenceKind.NIS)


def looped_verdict(sets, measure) -> bool:
    """robustness_check as it was: two full rankings, their orders compared."""
    pis, nis = (looped_ranking(sets, measure, ref).order for ref in ReferenceKind)
    return pis == nis


class TestOneBatchCall:
    @pytest.mark.parametrize("name", ["hamming", "euclidean2", "euclidean3", "hausdorff", LOOP_PLUGIN])
    def test_bit_equal_to_per_set_loop(self, name):
        measure = registered(name, scaled_hausdorff) if name == LOOP_PLUGIN else get_measure(name)
        rng = np.random.default_rng(43)
        for n in (1, 5, 13, 40):
            count = 30 if name == LOOP_PLUGIN else 400
            sets = [IFS.from_pairs(zip(*sample_simplex(rng, n))) for _ in range(count)]
            sets += sets[:3]  # exact repeats tie
            for ref in ReferenceKind:
                expected = looped_ranking(sets, measure, ref)
                result = rank_by_reference(sets, measure, ref)
                assert [result.scores[label] for label in expected.scores] == list(
                    expected.scores.values()
                )
                assert result.order == expected.order
            assert robustness_check(sets, measure) is looped_verdict(sets, measure)

    def test_one_evaluate_many_call(self, monkeypatch, reference_sets):
        calls = []
        original = DistanceMeasure.evaluate_many
        monkeypatch.setattr(
            DistanceMeasure,
            "evaluate_many",
            lambda self, *args: calls.append(args[0].shape) or original(self, *args),
        )
        rank_by_reference(reference_sets * 100, hamming, ReferenceKind.PIS)
        assert calls == [(300, 2)]

    def test_table1_hamming_tie(self):
        problem = parse_problem(table1_path())
        sets = [
            IFS(tuple(row[i] for row in problem.evaluations[0]))
            for i in range(problem.n_alternatives)
        ]
        for ref in ReferenceKind:
            result = rank_by_reference(sets, hamming, ref, labels=problem.alternatives)
            assert result.order == (("X3",), ("X1", "X2"))
            assert list(result.scores.values()) == list(
                looped_ranking(sets, hamming, ref).scores.values()
            )
        assert robustness_check(sets, hamming, labels=problem.alternatives) is True


class TestRobustnessCheck:
    def test_hamming_is_robust_here(self, reference_sets):
        assert robustness_check(reference_sets, hamming) is True

    def test_euclidean2_is_not(self, reference_sets):
        assert robustness_check(reference_sets, euclidean2) is False

    def test_singleton_trivially_robust(self):
        assert robustness_check([IFS.from_pairs([(0.2, 0.3)])], euclidean2) is True


def grid_collection(seed: int) -> list[IFS]:
    """2-40 sets of length 1-6 with (mu, nu) on the 0.01 grid, so that exact
    distance ties are frequent."""
    rng = np.random.default_rng(seed)
    size, length = int(rng.integers(2, 41)), int(rng.integers(1, 7))
    cells = rng.integers(0, 101, size=(size, length, 2))
    over = cells.sum(axis=-1) > 100
    cells[over] = 100 - cells[over]
    return [IFS.from_pairs((a / 100, b / 100) for a, b in s) for s in cells.tolist()]


@pytest.fixture(scope="module")
def grid_collections():
    return [grid_collection(seed) for seed in range(200)]


def chain_plugin(pis_scores, nis_scores) -> DistanceMeasure:
    """A plugin that gives the set whose one element has mu = 0.1 * (i + 1)
    the i-th score against each ideal."""

    def distance(a: IFS, ideal: IFS) -> float:
        scores = pis_scores if ideal[0].mu == 1.0 else nis_scores
        return scores[round(a[0].mu * 10) - 1]

    return DistanceMeasure("chain", MeasureKind.NONLINEAR, _func=distance)


NAN_FOR_X2 = chain_plugin([0.1, math.nan, 0.2], [0.1, 0.2, 0.3])


def _raise(a, b):
    raise ValueError("plugin failed")


RAISING = DistanceMeasure("raising", MeasureKind.NONLINEAR, _func=_raise)


class TestRobustnessCheckByTieGroups:
    @pytest.mark.parametrize("name", ["hamming", "euclidean2", "euclidean3", "hausdorff", LOOP_PLUGIN])
    def test_agrees_with_the_two_ranking_oracle(self, name, grid_collections):
        measure = registered(name, scaled_hausdorff) if name == LOOP_PLUGIN else get_measure(name)
        for sets in grid_collections:
            assert robustness_check(sets, measure) is looped_verdict(sets, measure)

    def test_hamming_always_agrees_and_euclidean2_does_not(self, grid_collections):
        assert all(robustness_check(sets, hamming) for sets in grid_collections)
        assert not all(robustness_check(sets, euclidean2) for sets in grid_collections)

    def test_builds_no_ranking_and_measures_once_per_reference(self, monkeypatch, reference_sets):
        built, calls, stacked = [], [], []
        post_init = robustness.RankingResult.__post_init__
        evaluate_many = DistanceMeasure.evaluate_many
        stack = robustness._stacked
        monkeypatch.setattr(
            robustness.RankingResult,
            "__post_init__",
            lambda self: built.append(self) or post_init(self),
        )
        monkeypatch.setattr(
            DistanceMeasure,
            "evaluate_many",
            lambda self, *args: calls.append(args[0].shape) or evaluate_many(self, *args),
        )
        monkeypatch.setattr(robustness, "_stacked", lambda *args: stacked.append(1) or stack(*args))
        assert robustness_check(reference_sets * 100, euclidean2) is False
        assert (built, calls, stacked) == ([], [(300, 2), (300, 2)], [1])
        rank_by_reference(reference_sets, euclidean2, ReferenceKind.PIS)
        assert len(built) == 1  # the counter sees the rankings that are built

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda sets: robustness_check(sets, NAN_FOR_X2, labels=["A", "B", "C"]),
                DomainError,
                "distance measure 'chain' returned nan; a distance must be finite",
            ),
            (
                lambda sets: robustness_check(sets, hamming, tie_tolerance=-1.0),
                DomainError,
                "tie_tolerance: a tie tolerance must be a non-negative finite number, got -1.0",
            ),
            (  # measuring comes before the tolerance check, as in `rank_by_reference`
                lambda sets: robustness_check(sets, RAISING, tie_tolerance=-1.0),
                ValueError,
                "plugin failed",
            ),
            (
                lambda sets: robustness_check(sets, hamming, labels=["A", "B"]),
                MismatchError,
                "got 2 labels but 3 scores",
            ),
            (
                lambda sets: robustness_check(sets, hamming, labels=["A", "B", "A"]),
                DomainError,
                "alternative labels must be unique",
            ),
            (
                lambda sets: robustness_check([], hamming),
                DomainError,
                "cannot rank an empty collection of sets",
            ),
            (
                lambda sets: robustness_check(sets + [IFS.positive_ideal(2)], hamming),
                MismatchError,
                "all sets must have the same length",
            ),
        ],
        ids=[
            "nan-plugin", "tie-tolerance", "plugin-before-tolerance", "label-count",
            "duplicate-labels", "empty", "ragged",
        ],
    )
    def test_errors_are_those_of_the_two_rankings(self, call, error, message):
        sets = [IFS.from_pairs([(0.1 * (i + 1), 0.0)]) for i in range(3)]
        with pytest.raises(error) as raised:
            call(sets)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "pis_scores, nis_scores, agree",
        [
            # PIS, ascending: head X1 takes X2 (0.6e-9 away), X3 (1.2e-9) starts
            # a group. NIS, descending: head X1 takes X2, X3 starts a group.
            ([0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9], [0.5 + 1.2e-9, 0.5 + 0.6e-9, 0.5], True),
            # The same NIS chain, but PIS now heads it from X3: {X3, X2} > {X1}.
            ([0.5 + 1.2e-9, 0.5 + 0.6e-9, 0.5], [0.5 + 1.2e-9, 0.5 + 0.6e-9, 0.5], False),
        ],
    )
    def test_chained_near_ties_follow_the_group_head(self, pis_scores, nis_scores, agree):
        sets = [IFS.from_pairs([(0.1 * (i + 1), 0.0)]) for i in range(3)]
        measure = chain_plugin(pis_scores, nis_scores)
        pis = rank_by_reference(sets, measure, ReferenceKind.PIS)
        nis = rank_by_reference(sets, measure, ReferenceKind.NIS)
        assert nis.order == (("X1", "X2"), ("X3",))
        assert pis.order == ((("X1", "X2"), ("X3",)) if agree else (("X2", "X3"), ("X1",)))
        assert robustness_check(sets, measure) is looped_verdict(sets, measure) is agree


class TestKnownCounterexample:
    def test_circle_pair_for_euclidean2(self):
        # (0, 0.5) and the boundary point at the same euclidean2-distance
        # sqrt(0.125) from (0, 1); their distances to (1, 0) differ.
        boundary_mu = math.sqrt(0.125)
        a = IFS.from_pairs([(0.0, 0.5)])
        b = IFS.from_pairs([(boundary_mu, 1.0 - boundary_mu)])
        nis, pis = IFS.negative_ideal(1), IFS.positive_ideal(1)
        assert euclidean2(a, nis) == pytest.approx(0.35355, abs=5e-6)
        assert euclidean2(b, nis) == pytest.approx(euclidean2(a, nis), abs=1e-12)
        assert euclidean2(a, pis) == pytest.approx(0.79057, abs=5e-6)
        assert euclidean2(b, pis) == pytest.approx(0.64645, abs=5e-6)
        assert abs(euclidean2(a, pis) - euclidean2(b, pis)) > 1e-3


class TestAudit:
    @pytest.mark.parametrize("measure", (euclidean2, euclidean3, hausdorff), ids=lambda m: m.name)
    def test_nonlinear_measures_fail(self, measure):
        report = audit(measure, budget=10_000, eps=1e-9, delta=1e-3, seed=7)
        assert not report.is_robust_on_budget
        assert 1 <= len(report.counterexamples) <= 10
        assert report.samples_used <= report.budget

    def test_counterexamples_self_verify(self):
        report = audit(euclidean2, budget=5000, eps=1e-9, delta=1e-3, seed=8)
        for c in report.counterexamples:
            assert c.verify(euclidean2, eps=1e-9, delta=1e-3)

    def test_hamming_survives(self):
        report = audit(hamming, budget=100_000, eps=1e-9, delta=1e-6, seed=9)
        assert report.is_robust_on_budget
        assert report.counterexamples == ()
        assert report.samples_used == 100_000

    @pytest.mark.parametrize("value", (math.nan, math.inf), ids=str)
    def test_non_finite_plugin_is_an_error(self, value):
        measure = DistanceMeasure("not-finite", MeasureKind.NONLINEAR, None, lambda a, b: value)
        with pytest.raises(DomainError, match=f"^distance measure 'not-finite' returned {value};"):
            audit(measure, budget=200, seed=5)

    def test_deterministic_under_seed(self):
        assert audit(euclidean2, budget=2000, seed=10) == audit(euclidean2, budget=2000, seed=10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            audit(euclidean2, budget=0)
        with pytest.raises(ValueError):
            audit(euclidean2, budget=10, eps=0.0)
        with pytest.raises(ValueError):
            audit(euclidean2, budget=10, delta=-1.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_tolerances_rejected(self, bad):
        with pytest.raises(ValueError):
            audit(euclidean2, budget=100, eps=bad)
        with pytest.raises(ValueError):
            audit(euclidean2, budget=100, delta=bad)

    def test_counterexamples_stay_in_valid_region(self):
        report = audit(hausdorff, budget=5000, seed=11)
        for c in report.counterexamples:
            for point in (c.a, c.b):
                assert 0.0 <= point.mu <= 1.0
                assert 0.0 <= point.nu <= 1.0
                assert point.mu + point.nu <= 1.0

    def test_chunk_draws_into_work_rows_give_the_same_bits(self):
        # the audit draws every chunk into the rows of one (4, chunk) array
        rng, fresh = np.random.default_rng(12), np.random.default_rng(12)
        work = np.empty((4, 300))
        for take in (300, 300, 17):
            got = robustness._draw_attempts(rng, take, work[:, :take])
            want = robustness._draw_attempts(fresh, take)
            assert all(x.base is work for x in got)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def _squared_euclidean(a, b):
    return sum((x.mu - y.mu) ** 2 + (x.nu - y.nu) ** 2 for x, y in zip(a, b)) / (2 * len(a))


# not homogeneous of degree 1, so the closed form misses and bisection solves
BISECTION_PLUGIN = DistanceMeasure(
    "squared-euclidean-pin-test", MeasureKind.NONLINEAR, None, _squared_euclidean
)

# (measure, count, seed, tol) -> (pairs kept, sha256 over each key and its
# array's little-endian float64 bytes, in key order)
FROZEN_PAIRS = {
    ("hamming", 5000, 0, 1e-12):
        (4182, "dbe88a19234ac385d8dabf0a28526fbee88ec778c136ed47a5a80a46237536ea"),
    ("hamming", 777, 21, 1e-9):
        (662, "9584f859a18d6128cfb47ed5b9acac080f43769a5eaa5d5ca66b3d0a107a27c2"),
    ("euclidean2", 5000, 1, 1e-12):
        (4494, "4f1ae4a3900eef0dbcd6904c70218407cf9e23b97e293a6193860b459253078a"),
    ("euclidean2", 999, 22, 1e-9):
        (902, "f8bf23f9af51261105473b74da4a51f3273e2c74c8249592f5d47d4d13e16f77"),
    ("euclidean2", 2000, 25, 1e-16):
        (1589, "89b871bb1b6de0659cfd687e8e79ddd3254db9bf054c32e3144e626e8823109c"),
    ("hausdorff", 5000, 2, 1e-12):
        (5000, "34a79ae1b7849acd5a2f761234db8596923afcc2b358d06645039f1c201619bc"),
    ("hausdorff", 1234, 23, 1e-6):
        (1234, "5ba64a3f7915f178182d3a4e287a5981fcb3ba886c3de28fde6e184597d906b1"),
    (BISECTION_PLUGIN.name, 200, 3, 1e-12):
        (170, "d9b0b2845b9314ffd74f4395038a0b057b0b1131142ba9e32b730de56ed94a1a"),
    (BISECTION_PLUGIN.name, 150, 24, 1e-9):
        (136, "f4af32a4ee1e2f9cff103cc6b119118930c2f518d1e70cccab951226e3605423"),
}


class TestIsoNisPairs:
    def test_hamming_equal_nis_implies_equal_pis(self):
        # the linearity property behind robustness, on constructed pairs
        built = iso_nis_pairs(hamming, count=100_000, seed=12, tol=1e-12)
        assert built["a_mu"].size > 50_000  # construction succeeds generically
        pis_a = hamming.pair_many(
            built["a_mu"], built["a_nu"],
            np.ones_like(built["a_mu"]), np.zeros_like(built["a_mu"]),
        )
        pis_b = hamming.pair_many(
            built["b_mu"], built["b_nu"],
            np.ones_like(built["b_mu"]), np.zeros_like(built["b_mu"]),
        )
        assert np.max(np.abs(pis_a - pis_b)) <= 1e-12

    def test_construction_hits_target_distance(self):
        built = iso_nis_pairs(euclidean2, count=10_000, seed=13, tol=1e-10)
        assert np.max(np.abs(built["d_nis_a"] - built["d_nis_b"])) <= 1e-10

    def test_bad_count(self):
        with pytest.raises(ValueError):
            iso_nis_pairs(hamming, count=0)

    @pytest.mark.parametrize("case", FROZEN_PAIRS, ids=lambda case: "-".join(map(str, case)))
    def test_pairs_are_frozen(self, case):
        name, count, seed, tol = case
        kept, digest = FROZEN_PAIRS[case]
        measure = BISECTION_PLUGIN if name == BISECTION_PLUGIN.name else get_measure(name)
        built = iso_nis_pairs(measure, count=count, seed=seed, tol=tol)
        assert list(built) == ["a_mu", "a_nu", "b_mu", "b_nu", "d_nis_a", "d_nis_b"]
        assert built["a_mu"].size == kept
        h = hashlib.sha256()
        for key, value in built.items():
            h.update(key.encode())
            h.update(value.astype("<f8").tobytes())
        assert h.hexdigest() == digest


def _reference_partners(measure, a_mu, a_nu, dir_mu, dir_nu):
    """Partners by a plain 100-step bisection on every ray, with no closed form."""
    zeros, ones = np.zeros(a_mu.size), np.ones(a_mu.size)

    def nis(s):
        return measure.pair_many(s * dir_mu, 1.0 + s * (dir_nu - 1.0), zeros, ones)

    target = measure.pair_many(a_mu, a_nu, zeros, ones)
    drop = 1.0 - dir_nu
    s_max = np.where(drop > 0.0, 1.0 / np.maximum(drop, 1e-300), 0.0)
    feasible = nis(s_max) >= target
    lo, hi = np.zeros(a_mu.size), np.where(feasible, s_max, 0.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = nis(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    s = 0.5 * (lo + hi)
    b_mu = np.clip(s * dir_mu, 0.0, 1.0)
    b_nu = np.clip(1.0 + s * (dir_nu - 1.0), 0.0, 1.0)
    b_nu = np.where(b_mu + b_nu > 1.0, 1.0 - b_mu, b_nu)
    return target, b_mu, b_nu, measure.pair_many(b_mu, b_nu, zeros, ones), feasible


def _reference_violations(measure, budget, seed, chunk, eps=1e-9, delta=1e-3):
    """The audit scan with reference partners and no early stop: every
    (attempt index, a, b) that violates, drawing anchors and then directions
    per chunk of `chunk` attempts."""
    rng = np.random.default_rng(seed)
    found = []
    for start in range(0, budget, chunk):
        count = min(chunk, budget - start)
        a_mu, a_nu = sample_simplex(rng, count)
        dir_mu, dir_nu = sample_simplex(rng, count)
        target, b_mu, b_nu, d_nis_b, feasible = _reference_partners(
            measure, a_mu, a_nu, dir_mu, dir_nu
        )
        ones, zeros = np.ones(count), np.zeros(count)
        gap = (measure.pair_many(a_mu, a_nu, ones, zeros)
               - measure.pair_many(b_mu, b_nu, ones, zeros))
        ok = feasible & (np.abs(target - d_nis_b) <= eps)
        for i in np.flatnonzero(ok & (np.abs(gap) > delta)):
            found.append((start + int(i), (a_mu[i], a_nu[i]), (b_mu[i], b_nu[i])))
    return found


def _counting_sample_simplex(monkeypatch):
    drawn = []

    def counting(rng, shape, *, out=None):
        mu, nu = sample_simplex(rng, shape, out=out)
        drawn.append(mu.size)
        return mu, nu

    monkeypatch.setattr(robustness, "sample_simplex", counting)
    return drawn


def _counting_partners(monkeypatch):
    """Record the attempts each `_iso_nis_partners` call gets."""
    evaluated = []
    partners = robustness._iso_nis_partners

    def counting(measure, a_mu, *rest):
        evaluated.append(a_mu.size)
        return partners(measure, a_mu, *rest)

    monkeypatch.setattr(robustness, "_iso_nis_partners", counting)
    return evaluated


class TestClosedFormScan:
    @pytest.mark.parametrize("measure", (euclidean2, euclidean3, hausdorff), ids=lambda m: m.name)
    @pytest.mark.parametrize("seed,budget", ((0, 10_000), (3, 2_000), (4, SAMPLE_CHUNK)))
    def test_matches_bisection_reference(self, measure, seed, budget):
        report = audit(measure, budget=budget, seed=seed)
        expected = _reference_violations(measure, budget, seed, chunk=budget)[:10]
        assert len(report.counterexamples) == len(expected) == 10
        assert report.samples_used == expected[-1][0] + 1
        for c, (_, a, b) in zip(report.counterexamples, expected):
            assert np.allclose((c.a.mu, c.a.nu), a, rtol=0.0, atol=1e-15)
            assert np.allclose((c.b.mu, c.b.nu), b, rtol=0.0, atol=1e-15)
            assert c.verify(measure, eps=1e-9, delta=1e-3)

    def test_samples_used_across_chunks(self, monkeypatch):
        monkeypatch.setattr(robustness, "SAMPLE_CHUNK", 7)
        drawn = _counting_sample_simplex(monkeypatch)
        report = audit(euclidean2, budget=300, seed=2)
        expected = _reference_violations(euclidean2, 300, seed=2, chunk=7)
        assert report.samples_used == expected[9][0] + 1
        # the scan stopped after the chunk holding the 10th witness
        evaluated = sum(drawn) // 2
        assert report.samples_used <= evaluated < report.samples_used + 7
        anchors = [(c.a.mu, c.a.nu) for c in report.counterexamples]
        assert anchors == [(float(a[0]), float(a[1])) for _, a, _ in expected[:10]]

    def test_early_stop_evaluates_one_chunk(self, monkeypatch):
        drawn = _counting_sample_simplex(monkeypatch)
        report = audit(euclidean2, budget=200_000, seed=1)
        assert report.samples_used <= SAMPLE_CHUNK
        assert drawn == [SAMPLE_CHUNK, SAMPLE_CHUNK]

    def test_robust_measure_scans_the_whole_budget(self, monkeypatch):
        drawn = _counting_sample_simplex(monkeypatch)
        evaluated = _counting_partners(monkeypatch)
        report = audit(hamming, budget=3 * SAMPLE_CHUNK + 5, delta=1e-6, seed=3)
        assert report.is_robust_on_budget
        assert report.samples_used == report.budget
        assert sum(drawn) == 2 * report.budget
        assert sum(evaluated) == report.budget

    def test_non_homogeneous_plugin_uses_the_fallback(self, monkeypatch):
        bisected, calls = [], []

        def spy(measure, dir_mu, dir_nu, target, hi):
            bisected.append(target.size)
            return bisect(measure, dir_mu, dir_nu, target, hi)

        def counted(a, b):
            calls.append(1)
            return _squared_euclidean(a, b)

        bisect = robustness._bisect
        monkeypatch.setattr(robustness, "_bisect", spy)
        squared = DistanceMeasure("squared-euclidean-test", MeasureKind.NONLINEAR, None, counted)
        report = audit(squared, budget=300, seed=5)
        assert sum(bisected) > 0
        # bisection stops at each row's float fixpoint, well before 100 steps
        assert len(calls) < 6 * 300 + 64 * sum(bisected)
        assert len(report.counterexamples) == 10
        for c in report.counterexamples:
            assert c.verify(squared, eps=1e-9, delta=1e-3)

    def test_fallback_solves_rows_the_closed_form_calls_infeasible(self):
        # squared Euclidean from anchor (0, 0) along the ray through (0.1, 0.8):
        # the closed form asks for s = 20 beyond the ray end s_max = 5, but the
        # distance grows with s^2 and reaches the target at s = sqrt(20)
        squared = DistanceMeasure("squared-euclidean-ray-test", MeasureKind.NONLINEAR, None,
                                  _squared_euclidean)
        one = np.array([0.1]), np.array([0.8])
        rows, b_mu, _, _, d_nis_b = robustness._iso_nis_partners(
            squared, np.zeros(1), np.zeros(1), *one, 1e-12
        )
        assert rows.tolist() == [0]
        assert b_mu[0] == pytest.approx(0.1 * math.sqrt(20), abs=1e-12)
        assert abs(d_nis_b[0] - 0.5) <= 1e-12

    def test_infeasible_row_is_not_usable_within_tol(self):
        # d(a, b) = |a.mu - b.mu|: the anchor's NIS-distance is 1e-13, but the
        # ray through (0, 0.5) keeps mu at 0 and never reaches it: the closed
        # form's unit distance is 0 and the ray's end misses too. The partner
        # left at s = 0 is NIS itself, 1e-13 from the target and so within tol:
        # only feasibility rejects the row.
        first_mu = DistanceMeasure("first-mu-test", MeasureKind.NONLINEAR, None,
                                   lambda a, b: abs(a[0].mu - b[0].mu))
        rows, *_ = robustness._iso_nis_partners(
            first_mu, np.array([1e-13]), np.array([0.5]), np.array([0.0]), np.array([0.5]), 1e-12
        )
        assert rows.tolist() == []

    def test_non_homogeneous_plugin_keeps_every_reference_pair(self):
        squared = DistanceMeasure("squared-euclidean-pairs-test", MeasureKind.NONLINEAR, None,
                                  _squared_euclidean)
        built = iso_nis_pairs(squared, count=400, seed=14, tol=1e-12)
        rng = np.random.default_rng(14)
        draws = (*sample_simplex(rng, 400), *sample_simplex(rng, 400))
        target, b_mu, b_nu, d_nis_b, feasible = _reference_partners(squared, *draws)
        keep = feasible & (np.abs(target - d_nis_b) <= 1e-12)
        assert np.array_equal(built["a_mu"], draws[0][keep])
        assert np.allclose(built["b_mu"], b_mu[keep], rtol=0.0, atol=1e-15)
        assert np.allclose(built["b_nu"], b_nu[keep], rtol=0.0, atol=1e-15)

    def test_homogeneous_plugin_skips_bisection(self):
        calls = []

        def plain_euclidean2(a, b):
            calls.append(1)
            return euclidean2(a, b)

        plugin = DistanceMeasure("plain-euclidean2-test", MeasureKind.NONLINEAR, None,
                                 plain_euclidean2)
        report = audit(plugin, budget=500, seed=6)
        builtin = audit(euclidean2, budget=500, seed=6)
        assert report.counterexamples == builtin.counterexamples
        # target, unit, partner and the two PIS distances, plus ray ends of
        # infeasible rows: far below the 100 evaluations per row of bisection
        assert len(calls) < 6 * 500

    def test_memory_is_flat_in_budget(self):
        audit(hamming, budget=1_000)
        report, peak = traced_peak(audit, hamming, budget=2_000_000, delta=1e-6, seed=4)
        assert report.is_robust_on_budget
        assert peak < 8 * 2**20


def whole_chunk_audit(measure, budget, seed, eps=1e-9, delta=1e-3):
    """The audit scan without slices, as a reference: every chunk of
    `robustness.SAMPLE_CHUNK` attempts is evaluated in full before its
    witnesses are read, and the scan stops after the chunk holding the 10th."""
    rng = np.random.default_rng(seed)
    counterexamples = []
    samples_used = budget
    start = 0
    while start < budget and len(counterexamples) < 10:
        take = min(robustness.SAMPLE_CHUNK, budget - start)
        a_mu, a_nu, *directions = robustness._draw_attempts(rng, take)
        rows, b_mu, b_nu, d_nis_a, d_nis_b = robustness._iso_nis_partners(
            measure, a_mu, a_nu, *directions, eps
        )
        a_mu, a_nu = a_mu[rows], a_nu[rows]
        d_pis_a = measure.pair_many(a_mu, a_nu, 1.0, 0.0)
        d_pis_b = measure.pair_many(b_mu, b_nu, 1.0, 0.0)
        hits = np.flatnonzero(np.abs(d_pis_a - d_pis_b) > delta)
        for j in hits[: 10 - len(counterexamples)]:
            counterexamples.append(
                robustness.Counterexample(
                    a=IFN(float(a_mu[j]), float(a_nu[j])),
                    b=IFN(float(b_mu[j]), float(b_nu[j])),
                    d_nis_a=float(d_nis_a[j]),
                    d_nis_b=float(d_nis_b[j]),
                    d_pis_a=float(d_pis_a[j]),
                    d_pis_b=float(d_pis_b[j]),
                )
            )
            if len(counterexamples) == 10:
                samples_used = start + int(rows[j]) + 1
        start += take
    return robustness.AuditReport(
        measure=measure.name, budget=budget, eps=eps, delta=delta, seed=seed,
        is_robust_on_budget=not counterexamples,
        counterexamples=tuple(counterexamples), samples_used=samples_used,
    )


PLUGINS = tuple(
    DistanceMeasure(f.__name__, MeasureKind.NONLINEAR, None, f) for f in (minkowski3, hausdorff_squared)
)


# At delta 1e-3 the 10th witness falls within the first 20 attempts; at 0.3
# it falls at attempt 20 to 850, past the first slices' ends. There
# `hausdorff_squared` is left out: its 10th witness stays within the first
# 43 attempts, and its whole-chunk scans cost seconds.
SCAN_CASES = [(m, 1e-3) for m in BUILTINS + PLUGINS] + [(m, 0.3) for m in BUILTINS + PLUGINS[:1]]


def scan_budgets(chunk):
    """Budgets on both sides of the first slices' ends and of the chunk ends."""
    return (1, 63, 64, 65, 191, 192, chunk - 1, chunk, chunk + 1, 3 * chunk + 5)


class TestSubBlocks:
    @pytest.mark.parametrize("chunk", (None, 7, 100), ids=("SAMPLE_CHUNK", "7", "100"))
    @pytest.mark.parametrize("measure,delta", SCAN_CASES, ids=lambda x: getattr(x, "name", x))
    def test_reports_equal_the_whole_chunk_scan(self, monkeypatch, measure, delta, chunk):
        if chunk is not None:
            monkeypatch.setattr(robustness, "SAMPLE_CHUNK", chunk)
        budgets = scan_budgets(robustness.SAMPLE_CHUNK)
        if chunk is None and measure in PLUGINS:
            # the whole-chunk scan of one full chunk makes 10^5 to 10^6 plugin
            # calls (up to 10 s); the 7 and 100 chunks cover these budgets' ends
            budgets = tuple(b for b in budgets if b < SAMPLE_CHUNK - 1)
        for seed in range(5):
            for budget in budgets:
                assert audit(measure, budget=budget, seed=seed, delta=delta).to_dict() == (
                    whole_chunk_audit(measure, budget, seed, delta=delta).to_dict()
                ), (seed, budget)

    @pytest.mark.parametrize("func,bound", ((minkowski3, 1_000), (hausdorff_squared, 5_000)))
    def test_plugin_calls_stay_near_the_attempts_used(self, func, bound):
        calls = []

        def counted(a, b):
            calls.append(1)
            return func(a, b)

        measure = DistanceMeasure(func.__name__, MeasureKind.NONLINEAR, None, counted)
        report = audit(measure, budget=1_000, seed=7)
        assert len(report.counterexamples) == 10
        assert len(calls) <= bound

    @pytest.mark.parametrize("measure", (euclidean2, euclidean3, hausdorff), ids=lambda m: m.name)
    def test_attempts_evaluated_stay_below_twice_those_used(self, monkeypatch, measure):
        evaluated = _counting_partners(monkeypatch)
        for seed in range(5):
            evaluated.clear()
            report = audit(measure, budget=200_000, seed=seed)
            assert len(report.counterexamples) == 10
            assert sum(evaluated) < 2 * report.samples_used + 64
