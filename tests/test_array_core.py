"""The array core of the decision pipeline against the float references of `exact.py`.

The references run the pipeline one pair at a time, as plain float loops in
the operation order of the array core: per-DM accumulation of the weighted
sums and one division, the cost swap, the product formula, the net
hypervolume as a product over criteria in order, and the first maximum and
first minimum by the (mu - nu, mu + nu) tuple. The comparators take each
distance one alternative at a time, as `DistanceMeasure.evaluate` does. So
HVAS, TOPSIS and VIKOR scores must be bit-equal. CODAS's reference sums its
pairwise assessments in another order, so its scores may differ by ulps.
"""

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
    HVConfig,
    HVNetResult,
    build_ranking,
    codas,
    euclidean3,
    hausdorff,
    hv_net,
    parse_problem,
    run_methods,
    score_details,
    select_extremes,
)
from ifhv.fixtures import table1_path
from ifhv.ifs import _extremes
import exact
from gen import minkowski3, random_problem, registered, traced_peak

METHODS = ("hvas", "topsis", "vikor", "codas")


# -- the reference chain -------------------------------------------------------

def distance(measure):
    """`measure` between two profiles of (mu, nu) floats: `evaluate_many` on
    their mu and nu columns, the arithmetic of `DistanceMeasure.evaluate`."""
    def columns(profile):
        return np.ascontiguousarray(np.array(profile, dtype=float).T)

    return lambda a, b: float(measure.evaluate_many(*columns(a), *columns(b)))


def reference_scores(problem, cfg: CompareConfig, hv_cfg: HVConfig) -> dict[str, list[float]]:
    """Scores of every method, or DegenerateError for a method that has none."""
    matrix = exact.weighted(exact.from_problem(problem, float))
    profiles, ps, ns = exact.solution_profiles(matrix)
    scores: dict = {"hvas": [exact.hv_spaces(a, hv_cfg, float)[3] for a in profiles]}
    if ps == ns and problem.n_alternatives > 1:
        return {**scores, **{name: DegenerateError for name in METHODS[1:]}}
    d1, d2 = distance(cfg.measure_primary), distance(cfg.measure_secondary)
    try:
        scores["topsis"] = exact.closeness(profiles, ps, ns, d1)
    except ZeroDivisionError:
        scores["topsis"] = DegenerateError
    scores["vikor"] = exact.vikor_q(*exact.vikor_indices(profiles, ps, ns, d1), cfg.v, float)
    primary = np.array([d1(a, ns) for a in profiles])
    secondary = np.array([d2(a, ns) for a in profiles])
    scores["codas"] = exact.pairwise_codas(primary, secondary, cfg.tau)
    return scores


# -- cases ----------------------------------------------------------------------

def cases():
    """(problem, CompareConfig, HVConfig) triples: table1, then seeded problems."""
    yield parse_problem(table1_path()), CompareConfig(), HVConfig()
    rng = np.random.default_rng(2024)
    for index in range(240):
        if index < 200:
            problem = random_problem(rng)
        else:  # wide rows: distance means over 8+ criteria sum pairwise
            problem = random_problem(
                rng,
                n_alternatives=int(rng.integers(2, 40)),
                n_criteria=int(rng.integers(8, 21)),
                n_dms=int(rng.integers(1, 6)),
            )
        measures = (euclidean3, hausdorff) if index % 3 == 1 else (CompareConfig().measure_primary,) * 2
        cfg = CompareConfig(
            tau=float(rng.choice([0.0, 0.02, 0.3])),
            v=float(rng.uniform()),
            measure_primary=measures[0],
            measure_secondary=measures[1],
        )
        hv_cfg = HVConfig(
            alpha=float(rng.uniform(-1.0, 1.0)) if index % 2 else 0.0,
            reference=tuple(rng.uniform(-1.5, 0.0, problem.n_criteria)) if index % 5 == 0 else None,
        )
        yield problem, cfg, hv_cfg


def assert_matches(problem, cfg, hv_cfg):
    expected = reference_scores(problem, cfg, hv_cfg)
    n = problem.n_alternatives
    for method in METHODS:
        reference = expected[method]
        if reference is DegenerateError:
            with pytest.raises(DegenerateError):
                run_methods(problem, [method], cfg, hv_cfg)
            continue
        (result,) = run_methods(problem, [method], cfg, hv_cfg)
        got = [result.scores[label] for label in problem.alternatives]
        if method == "codas":
            assert np.allclose(got, reference, rtol=0.0, atol=1e-12 * n), method
        else:
            assert got == reference, method
        tolerance = cfg.tie_tolerance if method != "hvas" else hv_cfg.tie_tolerance
        ordered = build_ranking(
            method, problem.alternatives, reference,
            higher_is_better=result.higher_is_better, tie_tolerance=tolerance,
        )
        assert result.order == ordered.order, method


class TestAgainstReferenceChain:
    def test_scores_and_orders(self):
        checked = 0
        for problem, cfg, hv_cfg in cases():
            assert_matches(problem, cfg, hv_cfg)
            checked += 1
        assert checked == 241

    def test_plugin_measure_through_run_methods(self):
        measure = registered("test_minkowski3", minkowski3)
        rng = np.random.default_rng(2025)
        problems = [parse_problem(table1_path())] + [random_problem(rng) for _ in range(20)]
        for problem in problems:
            cfg = CompareConfig(measure_primary=measure, measure_secondary=measure)
            assert_matches(problem, cfg, HVConfig())

    def test_weighted_matrix_and_extremes(self):
        rng = np.random.default_rng(2026)
        problems = [parse_problem(table1_path())] + [random_problem(rng) for _ in range(50)]
        for problem in problems:
            expected = exact.weighted(exact.from_problem(problem, float))
            mu, nu = problem.weighted
            assert mu.tolist() == [[value[0] for value in row] for row in expected]
            assert nu.tolist() == [[value[1] for value in row] for row in expected]
            for row, *picks in zip(expected, *_extremes(mu, nu)):
                assert tuple(picks) == exact.extremes(row)

    def test_score_details_match_hv_net(self):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            problem = random_problem(rng)
            cfg = HVConfig(alpha=float(rng.uniform(-1.0, 1.0)))
            matrix = exact.weighted(exact.from_problem(problem, float))
            details = score_details(problem, cfg)
            for label, column in zip(problem.alternatives, exact.columns(matrix)):
                assert details[label] == HVNetResult(*exact.hv_spaces(column, cfg, float))
                assert details[label] == hv_net(IFS.from_pairs(column), cfg)

    def test_extremes_keep_first_occurrence(self):
        # dyadic values make the scores tie exactly, so accuracy decides;
        # exact duplicates keep the first
        row = [
            IFN(0.375, 0.125), IFN(0.5, 0.25), IFN(0.5, 0.25),
            IFN(0.25, 0.5), IFN(0.125, 0.375), IFN(0.125, 0.375),
        ]
        mu = np.array([[value.mu for value in row]])
        nu = np.array([[value.nu for value in row]])
        best, worst = _extremes(mu, nu)
        assert (best.tolist(), worst.tolist()) == ([1], [4])
        assert (row[1], row[4]) == select_extremes(row)


def test_codas_memory_stays_linear():
    # one (n, n) float64 array at this size would take 128 MB
    n = 4000
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.0, 0.5, (1, 2, n))
    nu = rng.uniform(0.0, 0.5, (1, 2, n))
    problem = DecisionProblem.from_arrays(
        tuple(f"A{i}" for i in range(n)),
        (CriterionSpec("c1", CriterionKind.BENEFIT), CriterionSpec("c2", CriterionKind.COST)),
        ("dm1",),
        np.stack([mu, nu], axis=-1),
        np.array([[[0.8, 0.1], [0.6, 0.3]]]),
        np.ones((1, 2)),
    )
    result, peak = traced_peak(codas, problem)
    assert len(result.scores) == n
    assert peak < 4 * 2**20
