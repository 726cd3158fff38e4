"""Tests for the TOPSIS/VIKOR/CODAS comparators and their shared pipeline."""

import json

import numpy as np
import pytest

from ifhv import (
    IFN,
    IFS,
    CompareConfig,
    CriterionKind,
    CriterionSpec,
    DecisionProblem,
    DegenerateError,
    DomainError,
    HVConfig,
    codas,
    euclidean2,
    hamming,
    run_methods,
    topsis,
    vikor,
)
from ifhv.mcdm import _extremes
from ifhv.report import json_text
import ifhv.hvas as hvas_mod
import ifhv.mcdm as mcdm_mod
from gen import random_problem, spread_problem

B = CriterionKind.BENEFIT


def solution_profiles(problem):
    """Positive and negative solution profiles picked by `_extremes`, as IFS."""
    mu, nu = problem.weighted
    rows = np.arange(problem.n_criteria)
    return tuple(
        IFS.from_pairs(zip(mu[rows, pick], nu[rows, pick])) for pick in _extremes(mu, nu)
    )


def single_dm_problem(rows, alternatives=None):
    m, n = len(rows), len(rows[0])
    return DecisionProblem(
        alternatives=tuple(alternatives or (f"A{i + 1}" for i in range(n))),
        criteria=tuple(CriterionSpec(f"c{j + 1}", B) for j in range(m)),
        dms=("dm1",),
        evaluations=(tuple(tuple(IFN(*pair) for pair in row) for row in rows),),
        importance=(tuple(IFN(1.0, 0.0) for _ in range(m)),),
        expertise=((1.0,) * m,),
    )


@pytest.fixture
def dominant_problem():
    # A1 strictly dominates; A3 strictly dominated
    return single_dm_problem(
        [
            [(0.8, 0.1), (0.5, 0.3), (0.2, 0.6)],
            [(0.7, 0.2), (0.4, 0.4), (0.1, 0.7)],
        ]
    )


@pytest.fixture
def tied_pair_problem():
    # A1 and A2 identical, A3 different
    return single_dm_problem(
        [
            [(0.5, 0.3), (0.5, 0.3), (0.2, 0.6)],
            [(0.4, 0.4), (0.4, 0.4), (0.1, 0.7)],
        ]
    )


class TestConfig:
    def test_defaults(self):
        cfg = CompareConfig()
        assert cfg.tau == 0.02
        assert cfg.v == 0.5
        assert cfg.measure_primary is euclidean2
        assert cfg.measure_secondary is hamming

    @pytest.mark.parametrize("kwargs", [{"tau": -0.1}, {"tau": 1.1}, {"v": -0.1}, {"v": 1.1}])
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(DomainError):
            CompareConfig(**kwargs)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_tie_tolerance_validated(self, value):
        with pytest.raises(DomainError, match="tie_tolerance"):
            CompareConfig(tie_tolerance=value)

    @pytest.mark.parametrize(
        "name, given, method",
        [("tau", "0.1", codas), ("v", "0.5", vikor), ("tau", np.float32(0.1), codas)],
    )
    def test_parameters_are_stored_as_floats(self, dominant_problem, name, given, method):
        # A string tau used to reach CODAS as a string, a string v VIKOR, and
        # a float32 tau the JSON encoder, and each failed there.
        cfg = CompareConfig(**{name: given}, tie_tolerance=np.float32(0.25))
        assert [type(getattr(cfg, key)) for key in ("tau", "v", "tie_tolerance")] == [float] * 3
        result = method(dominant_problem, cfg)
        expected = method(dominant_problem, CompareConfig(**{name: float(given)}, tie_tolerance=0.25))
        assert result == expected
        assert json.loads(json_text(result.to_dict()))["config"][name] == float(given)

    def test_config_echo_reports_parameters(self, dominant_problem):
        cfg = CompareConfig(tau=0.05, v=0.3)
        for method in (topsis, vikor, codas):
            echo = method(dominant_problem, cfg).config_echo
            assert echo["tau"] == 0.05
            assert echo["v"] == 0.3
            assert echo["measure_primary"] == "euclidean2"
            assert echo["measure_secondary"] == "hamming"

    @pytest.mark.parametrize("tolerance", [0, 1e-9, 0.05])
    def test_config_echo_ends_with_the_tie_tolerance(self, dominant_problem, tolerance):
        cfg = CompareConfig(tie_tolerance=tolerance)
        hv_cfg = HVConfig(tie_tolerance=tolerance)
        for result in run_methods(dominant_problem, mcdm_mod.METHOD_NAMES, cfg, hv_cfg):
            key, value = list(result.config_echo.items())[-1]
            assert (key, value) == ("tie_tolerance", cfg.tie_tolerance)
            assert type(value) is float
        assert "tie_tolerance" not in cfg.echo()


class TestColumnExtremes:
    def test_profiles_from_candidates(self, dominant_problem):
        ps, ns = solution_profiles(dominant_problem)
        assert tuple(ps) == (IFN(0.8, 0.1), IFN(0.7, 0.2))
        assert tuple(ns) == (IFN(0.2, 0.6), IFN(0.1, 0.7))


class TestTopsis:
    def test_dominant_first(self, dominant_problem):
        result = topsis(dominant_problem)
        assert result.order[0] == ("A1",)
        assert result.order[-1] == ("A3",)
        assert result.scores["A1"] == pytest.approx(1.0)
        assert result.scores["A3"] == pytest.approx(0.0)

    def test_identical_alternatives_tie(self, tied_pair_problem):
        result = topsis(tied_pair_problem)
        assert ("A1", "A2") in result.order

    def test_all_identical_degenerate(self):
        problem = single_dm_problem([[(0.5, 0.3), (0.5, 0.3)]])
        with pytest.raises(DegenerateError):
            topsis(problem)

    def test_single_alternative_degenerate(self):
        # with one candidate the solution profiles coincide and closeness is 0/0
        problem = single_dm_problem([[(0.5, 0.3)]])
        with pytest.raises(DegenerateError):
            topsis(problem)

    def test_default_measure_echo(self, dominant_problem):
        assert topsis(dominant_problem).config_echo["measure_primary"] == "euclidean2"


class TestVikor:
    def test_dominant_first(self, dominant_problem):
        result = vikor(dominant_problem)
        assert result.order[0] == ("A1",)
        assert result.order[-1] == ("A3",)
        assert not result.higher_is_better
        assert result.scores["A1"] == pytest.approx(0.0)
        assert result.scores["A3"] == pytest.approx(1.0)

    def test_identical_alternatives_tie(self, tied_pair_problem):
        result = vikor(tied_pair_problem)
        assert ("A1", "A2") in result.order

    def test_v_endpoints_reduce_to_single_terms(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            problem = random_problem(rng)
            try:
                s_only = vikor(problem, CompareConfig(v=1.0))
                r_only = vikor(problem, CompareConfig(v=0.0))
                mixed = vikor(problem, CompareConfig(v=0.5))
            except DegenerateError:
                continue
            # endpoint orders come from one term each; the mixed Q must stay
            # inside the endpoint envelope for every alternative
            for label in problem.alternatives:
                low = min(s_only.scores[label], r_only.scores[label])
                high = max(s_only.scores[label], r_only.scores[label])
                assert low - 1e-12 <= mixed.scores[label] <= high + 1e-12

    def test_all_identical_degenerate(self):
        problem = single_dm_problem([[(0.5, 0.3), (0.5, 0.3)]])
        with pytest.raises(DegenerateError):
            vikor(problem)


class TestCodas:
    def test_dominant_first(self, dominant_problem):
        result = codas(dominant_problem)
        assert result.order[0] == ("A1",)
        assert result.order[-1] == ("A3",)

    def test_identical_alternatives_tie(self, tied_pair_problem):
        result = codas(tied_pair_problem)
        assert ("A1", "A2") in result.order

    def test_tau_zero_ranks_by_primary_alone(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            problem = random_problem(rng)
            try:
                result = codas(problem, CompareConfig(tau=0.0))
            except DegenerateError:
                continue
            mu, nu = problem.weighted
            profiles = [IFS.from_pairs(zip(mu[:, i], nu[:, i])) for i in range(mu.shape[1])]
            _, ns = solution_profiles(problem)
            n = problem.n_alternatives
            primary = [euclidean2(p, ns) for p in profiles]
            for i, label in enumerate(problem.alternatives):
                expected = n * primary[i] - sum(primary)
                assert result.scores[label] == pytest.approx(expected, abs=1e-12)

    def test_equal_primary_resolved_by_secondary(self):
        # two alternatives equidistant (euclidean2) from the worst profile but
        # with different hamming distances; the secondary must split them
        boundary = float(np.sqrt(0.125))
        problem = single_dm_problem(
            [[(0.0, 0.5), (boundary, 1.0 - boundary), (0.0, 1.0)]]
        )
        result = codas(problem, CompareConfig(tau=0.02))
        assert result.order == (("A2",), ("A1",), ("A3",))

    def test_all_identical_degenerate(self):
        problem = single_dm_problem([[(0.5, 0.3), (0.5, 0.3)]])
        with pytest.raises(DegenerateError):
            codas(problem)

    def test_single_alternative_trivial(self):
        problem = single_dm_problem([[(0.5, 0.3)]])
        assert codas(problem).order == (("A1",),)
        assert vikor(problem).order == (("A1",),)


class TestSharedPipeline:
    def test_weighted_matrix_built_once_per_problem(self, dominant_problem, monkeypatch):
        calls = []
        original = hvas_mod._weight
        monkeypatch.setattr(hvas_mod, "_weight", lambda *args: calls.append(1) or original(*args))
        run_methods(dominant_problem, ["hvas", "topsis", "vikor", "codas"])
        assert len(calls) == 1

    def test_methods_see_identical_matrices(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            problem = random_problem(rng)
            first = problem.weighted
            assert problem.weighted is first
            second = DecisionProblem.from_arrays(
                problem.alternatives, problem.criteria, problem.dms,
                problem.evaluation_array, problem.importance_array, problem.expertise_array,
            ).weighted
            assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestRunMethods:
    def test_subset_and_order(self, dominant_problem):
        results = run_methods(dominant_problem, ["codas", "hvas"])
        assert [r.method for r in results] == ["codas", "hvas"]

    def test_unknown_method(self, dominant_problem):
        with pytest.raises(DomainError):
            run_methods(dominant_problem, ["saw"])

    def test_no_method(self, dominant_problem):
        with pytest.raises(DomainError, match="at least one method"):
            run_methods(dominant_problem, [])

    def test_every_name_is_checked_before_any_method_runs(self, dominant_problem, monkeypatch):
        calls = []

        def counted(method):
            return lambda *args: calls.append(1) or method(*args)

        monkeypatch.setattr(mcdm_mod, "hvas_rank", counted(mcdm_mod.hvas_rank))
        for name, method in list(mcdm_mod._COMPARATORS.items()):
            monkeypatch.setitem(mcdm_mod._COMPARATORS, name, counted(method))
        with pytest.raises(DomainError, match="saw"):
            run_methods(dominant_problem, ["hvas", "topsis", "saw"])
        assert calls == []

    def test_dominance_consensus(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            problem, strong, weak = spread_problem(rng)
            for result in run_methods(problem, ["hvas", "topsis", "vikor", "codas"]):
                assert result.order[0] == (strong,)
                assert result.order[-1] == (weak,)

    def test_alternative_permutation_equivariance(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            problem = random_problem(rng, n_alternatives=4)
            try:
                base = {r.method: r for r in run_methods(problem, ["topsis", "vikor", "codas"])}
            except DegenerateError:
                continue
            perm = list(rng.permutation(problem.n_alternatives))
            permuted = DecisionProblem.from_arrays(
                alternatives=tuple(problem.alternatives[i] for i in perm),
                criteria=problem.criteria,
                dms=problem.dms,
                evaluations=problem.evaluation_array[:, :, perm],
                importance=problem.importance_array,
                expertise=problem.expertise_array,
            )
            for result in run_methods(permuted, ["topsis", "vikor", "codas"]):
                reference = base[result.method]
                for label in problem.alternatives:
                    assert result.scores[label] == pytest.approx(
                        reference.scores[label], abs=1e-12
                    )
                assert [sorted(g) for g in result.order] == [
                    sorted(g) for g in reference.order
                ]
