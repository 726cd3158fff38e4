"""Tests for the HVAS pipeline: aggregation, normalization, weighting, ranking.

Steps 1-4 are checked through their one output, `DecisionProblem.weighted`.
"""

import numpy as np
import pytest

from ifhv import (
    IFN,
    CriterionKind,
    CriterionSpec,
    DecisionProblem,
    DegenerateError,
    DomainError,
    HVConfig,
    MismatchError,
    rank,
    score_details,
)
import ifhv.hvas as hvas_mod
from exact import weighted_of
from gen import permuted, random_ifn, random_problem, single_dm_problem

B = CriterionKind.BENEFIT
C = CriterionKind.COST


@pytest.fixture
def three_set_problem():
    # two criteria, three alternatives, identity weights; the weighted matrix
    # equals the raw evaluations
    return single_dm_problem(
        [
            [(0.2, 0.4), (0.3, 0.6), (0.2, 0.7)],
            [(0.1, 0.2), (0.4, 0.4), (0.6, 0.3)],
        ],
        alternatives=("X1", "X2", "X3"),
    )


class TestProblemValidation:
    def test_shape_checks(self):
        with pytest.raises(MismatchError):
            DecisionProblem(
                alternatives=("A1", "A2"),
                criteria=(CriterionSpec("c1", B),),
                dms=("dm1",),
                evaluations=(((IFN(0.5, 0.2),),),),  # one alternative instead of two
                importance=((IFN(1, 0),),),
                expertise=((1.0,),),
            )

    def test_expertise_range(self):
        with pytest.raises(DomainError):
            DecisionProblem(
                alternatives=("A1",),
                criteria=(CriterionSpec("c1", B),),
                dms=("dm1",),
                evaluations=(((IFN(0.5, 0.2),),),),
                importance=((IFN(1, 0),),),
                expertise=((1.5,),),
            )

    def test_duplicate_ids(self):
        with pytest.raises(DomainError):
            DecisionProblem(
                alternatives=("A1", "A1"),
                criteria=(CriterionSpec("c1", B),),
                dms=("dm1",),
                evaluations=(((IFN(0.5, 0.2), IFN(0.5, 0.2)),),),
                importance=((IFN(1, 0),),),
                expertise=((1.0,),),
            )

    @pytest.mark.parametrize(
        "name, pair, message",
        [
            ("evaluations", (-0.5, 0.2), r"IFN components must lie in \[0, 1\], got \(-0\.5, 0\.2\)"),
            ("evaluations", (np.nan, 0.2), r"IFN components must be finite, got \(nan, 0\.2\)"),
            ("importance", (0.7, 0.5), r"IFN requires mu \+ nu <= 1, got 0\.7 \+ 0\.5 = 1\.2"),
        ],
    )
    def test_from_arrays_checks_every_pair(self, name, pair, message):
        arrays = {
            "evaluations": np.array([[[[0.5, 0.2], [0.4, 0.3]]]]),
            "importance": np.array([[[1.0, 0.0]]]),
        }
        arrays[name].reshape(-1, 2)[-1] = pair  # the last pair of the array
        with pytest.raises(DomainError, match=rf"^{name}: {message}$"):
            DecisionProblem.from_arrays(
                ("A", "B"), (CriterionSpec("c1", B),), ("dm1",),
                arrays["evaluations"], arrays["importance"], np.ones((1, 1)),
            )

    def test_from_arrays_clamps_like_ifn(self):
        evaluations = np.array([[[[0.7, 0.3 + 1e-12]]]])
        problem = DecisionProblem.from_arrays(
            ("A",), (CriterionSpec("c1", B),), ("dm1",),
            evaluations, np.array([[[1.0, 0.0]]]), np.ones((1, 1)),
        )
        assert problem.evaluation_array[0, 0, 0].tolist() == [0.7, 1.0 - 0.7]
        assert evaluations[0, 0, 0, 1] == 0.3 + 1e-12  # the caller's array is not changed

    def test_equality_with_another_type_and_repr(self, three_set_problem):
        assert three_set_problem.__eq__(object()) is NotImplemented
        assert (three_set_problem == object()) is False
        assert repr(three_set_problem) == (
            "DecisionProblem(alternatives=('X1', 'X2', 'X3'), criteria=('c1', 'c2'), dms=('dm1',))"
        )


class TestAggregation:
    def test_single_dm_identity(self, three_set_problem):
        matrix = weighted_of(three_set_problem, float)
        assert matrix[0][0] == (0.2, 0.4)
        assert matrix[1][2] == (0.6, 0.3)

    def test_two_dm_average(self):
        problem = DecisionProblem(
            alternatives=("A1",),
            criteria=(CriterionSpec("c1", B),),
            dms=("dm1", "dm2"),
            evaluations=(((IFN(0.4, 0.2),),), ((IFN(0.8, 0.0),),)),
            importance=((IFN(1, 0),), (IFN(1, 0),)),
            expertise=((0.5,), (0.5,)),
        )
        [[value]] = weighted_of(problem, float)
        assert value == pytest.approx((0.6, 0.1))

    def test_zero_expertise_column_names_criterion(self, monkeypatch):
        problem = DecisionProblem(
            alternatives=("A1",),
            criteria=(CriterionSpec("c1", B), CriterionSpec("c2", B)),
            dms=("dm1",),
            evaluations=(((IFN(0.4, 0.2),), (IFN(0.4, 0.2),)),),
            importance=((IFN(1, 0), IFN(1, 0)),),
            expertise=((1.0, 0.0),),
        )
        # the expertise is checked once, before the evaluations or the
        # importance values are aggregated under it
        calls = []
        monkeypatch.setattr(hvas_mod, "_ifa", lambda *args: calls.append(1))
        with pytest.raises(DegenerateError, match="c2"):
            problem.weighted
        assert calls == []

    def test_weight_aggregation_average(self):
        # an evaluation of (1, 0) times the weight is the weight itself
        problem = DecisionProblem(
            alternatives=("A1",),
            criteria=(CriterionSpec("c1", B),),
            dms=("dm1", "dm2"),
            evaluations=(((IFN(1, 0),),), ((IFN(1, 0),),)),
            importance=((IFN(1, 0),), (IFN(0, 1),)),
            expertise=((0.5,), (0.5,)),
        )
        [[value]] = weighted_of(problem, float)
        assert value == pytest.approx((0.5, 0.5))


class TestNormalize:
    def test_benefit_row_unchanged(self):
        assert weighted_of(single_dm_problem([[(0.7, 0.2)]], [B]), float) == [[(0.7, 0.2)]]

    def test_cost_row_swapped(self):
        assert weighted_of(single_dm_problem([[(0.7, 0.2)]], [C]), float) == [[(0.2, 0.7)]]

    def test_cost_swap_is_involution(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            row = [random_ifn(rng).as_pair() for _ in range(3)]
            swapped = weighted_of(single_dm_problem([row], [C]), float)
            assert weighted_of(single_dm_problem(swapped, [C]), float) == [row]

    def test_row_count_check(self):
        # one evaluation row, two criteria
        with pytest.raises(MismatchError):
            DecisionProblem(
                alternatives=("A1",),
                criteria=(CriterionSpec("c1", B), CriterionSpec("c2", B)),
                dms=("dm1",),
                evaluations=(((IFN(0.5, 0.2),),),),
                importance=((IFN(1, 0), IFN(1, 0)),),
                expertise=((1.0, 1.0),),
            )
        with pytest.raises(MismatchError):
            DecisionProblem.from_arrays(
                ("A1",), (CriterionSpec("c1", B), CriterionSpec("c2", B)), ("dm1",),
                np.full((1, 1, 1, 2), 0.25), np.full((1, 2, 2), 0.25), np.ones((1, 2)),
            )

    def test_ragged_nesting_is_a_mismatch(self):
        # the second alternative row is one entry short
        with pytest.raises(MismatchError, match="nest"):
            DecisionProblem(
                alternatives=("A1", "A2"),
                criteria=(CriterionSpec("c1", B), CriterionSpec("c2", B)),
                dms=("dm1",),
                evaluations=(((IFN(0.5, 0.2), IFN(0.4, 0.3)), (IFN(0.5, 0.2),)),),
                importance=((IFN(1, 0), IFN(1, 0)),),
                expertise=((1.0, 1.0),),
            )


class TestWeightMatrix:
    def test_identity_weights(self):
        rows = [[(0.5, 0.3)], [(0.2, 0.6)]]
        assert weighted_of(single_dm_problem(rows, importance=[(1, 0), (1, 0)]), float) == rows

    def test_absorbing_weights(self):
        problem = single_dm_problem([[(0.5, 0.3)]], importance=[(0, 1)])
        assert weighted_of(problem, float) == [[(0.0, 1.0)]]

    def test_componentwise_product(self):
        problem = single_dm_problem([[(0.5, 0.3)]], importance=[(0.4, 0.2)])
        [[value]] = weighted_of(problem, float)
        assert value == pytest.approx((0.2, 0.44))

    def test_length_check(self):
        # one criterion, two importance values
        with pytest.raises(MismatchError):
            single_dm_problem([[(0.5, 0.3)]], importance=[(1, 0), (1, 0)])
        with pytest.raises(MismatchError):
            DecisionProblem.from_arrays(
                ("A1",), (CriterionSpec("c1", B),), ("dm1",),
                np.full((1, 1, 1, 2), 0.25), np.full((1, 2, 2), 0.25), np.ones((1, 1)),
            )


class TestRank:
    def test_reference_problem_order_and_scores(self, three_set_problem):
        result = rank(three_set_problem)
        assert result.order == (("X3",), ("X1",), ("X2",))
        assert result.order_string() == "X3 > X1 > X2"
        assert result.scores["X1"] == pytest.approx(-0.36, abs=1e-12)
        assert result.scores["X2"] == pytest.approx(-0.42, abs=1e-12)
        assert result.scores["X3"] == pytest.approx(-0.29, abs=1e-12)
        assert result.method == "hvas"
        assert result.config_echo["reference"] == [-1.0, -1.0]
        assert result.config_echo["alpha"] == 0.0

    def test_ranking_from_score_details_is_rank(self):
        # The `rank` command ranks the hv_net of `score_details`; the library
        # ranks the scores of one formula evaluation. Both must agree.
        rng = np.random.default_rng(54)
        for _ in range(50):
            problem = random_problem(rng)
            cfg = HVConfig(alpha=float(rng.uniform(-1.0, 1.0)))
            details = score_details(problem, cfg)
            scores = [part.hv_net for part in details.values()]
            assert hvas_mod.ranking(problem, cfg, scores) == rank(problem, cfg)

    def test_single_alternative(self):
        problem = single_dm_problem([[(0.4, 0.2)]], alternatives=("X1",))
        result = rank(problem)
        assert result.order == (("X1",),)

    def test_dominant_alternative_first(self):
        problem = single_dm_problem(
            [
                [(0.9, 0.05), (0.3, 0.4), (0.2, 0.6)],
                [(0.8, 0.1), (0.4, 0.3), (0.3, 0.5)],
            ],
            alternatives=("X1", "X2", "X3"),
        )
        assert rank(problem).order[0] == ("X1",)

    def test_identity_pipeline_reproduces_raw_scores(self, three_set_problem):
        from ifhv import IFS, hv_net

        result = rank(three_set_problem)
        for i, label in enumerate(three_set_problem.alternatives):
            profile = IFS(
                tuple(
                    three_set_problem.evaluations[0][j][i]
                    for j in range(three_set_problem.n_criteria)
                )
            )
            assert result.scores[label] == pytest.approx(hv_net(profile).hv_net, abs=1e-15)


def flip_problem(problem: DecisionProblem) -> DecisionProblem:
    """Flip every criterion kind and swap (mu, nu) in all evaluations."""
    flipped_kind = {B: C, C: B}
    return DecisionProblem.from_arrays(
        alternatives=problem.alternatives,
        criteria=tuple(CriterionSpec(c.id, flipped_kind[c.kind]) for c in problem.criteria),
        dms=problem.dms,
        evaluations=problem.evaluation_array[..., ::-1],
        importance=problem.importance_array,
        expertise=problem.expertise_array,
    )


class TestPipelineInvariances:
    def test_criterion_kind_symmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            problem = random_problem(rng)
            base = rank(problem)
            flipped = rank(flip_problem(problem))
            assert flipped.order == base.order
            for label in problem.alternatives:
                assert flipped.scores[label] == pytest.approx(base.scores[label], abs=1e-12)

    def test_alternative_permutation_equivariance(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            problem = random_problem(rng)
            base = rank(problem)
            perm = list(rng.permutation(problem.n_alternatives))
            result = rank(permuted(problem, perm))
            for label in problem.alternatives:
                assert result.scores[label] == pytest.approx(base.scores[label], abs=1e-12)
            assert [sorted(g) for g in result.order] == [sorted(g) for g in base.order]

    def test_criterion_permutation_leaves_scores(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            problem = random_problem(rng)
            base = rank(problem)
            perm = list(rng.permutation(problem.n_criteria))
            permuted = DecisionProblem.from_arrays(
                alternatives=problem.alternatives,
                criteria=tuple(problem.criteria[j] for j in perm),
                dms=problem.dms,
                evaluations=problem.evaluation_array[:, perm],
                importance=problem.importance_array[:, perm],
                expertise=problem.expertise_array[:, perm],
            )
            result = rank(permuted)
            for label in problem.alternatives:
                assert result.scores[label] == pytest.approx(base.scores[label], abs=1e-12)

    def test_weighted_dominance_implies_score_order(self):
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(300):
            problem = random_problem(rng)
            mu, nu = problem.weighted
            result = rank(problem)
            n = problem.n_alternatives
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    if np.all((mu[:, a] >= mu[:, b]) & (nu[:, a] <= nu[:, b])):
                        checked += 1
                        label_a = problem.alternatives[a]
                        label_b = problem.alternatives[b]
                        assert result.scores[label_a] >= result.scores[label_b] - 1e-12
        assert checked > 0  # random problems produce some dominating pairs

    def test_dominance_can_lose_once_alpha_passes_two_to_the_one_minus_m(self):
        # README's --alpha caveat: with the default reference, (0.1, 0) on both
        # criteria dominates (0, 0), yet at alpha -1 it scores
        # 1.21 - 1 + 1.9 ** 2 = 3.82 against 1 - 1 + 2 ** 2 = 4; at |alpha| up
        # to 2 ** (1 - m) = 0.5 the dominating alternative still scores higher
        problem = single_dm_problem([[(0.1, 0.0), (0.0, 0.0)]] * 2, alternatives=("A", "B"))
        alphas = (-1, -0.5, 0, 0.5)
        scores = {alpha: rank(problem, HVConfig(alpha=alpha)).scores for alpha in alphas}
        assert scores[-1]["A"] == pytest.approx(3.82, abs=1e-12)
        assert scores[-1]["B"] == pytest.approx(4.0, abs=1e-12)
        assert all(scores[alpha]["A"] > scores[alpha]["B"] for alpha in alphas[1:])
