"""The array core of the decision pipeline against a reference chain of float loops.

The reference runs the pipeline one pair at a time, as plain float loops in
the operation order of the array core: per-DM accumulation of the weighted
sums and one division, the cost swap, the product formula, the net
hypervolume as a product over criteria in order, and the first maximum and
first minimum by the (mu - nu, mu + nu) tuple. The comparators use
`DistanceMeasure.evaluate` per alternative, with their formulas written as
plain loops. So HVAS, TOPSIS and VIKOR scores must be bit-equal. CODAS sums
its pairwise assessments in another order, so its scores may differ by ulps.
"""

import tracemalloc

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
    available_measures,
    build_ranking,
    codas,
    euclidean3,
    hausdorff,
    hv_net,
    parse_problem,
    register_function,
    run_methods,
    score_details,
    select_extremes,
)
from ifhv.fixtures import table1_path
from ifhv.ifs import _extremes
from gen import minkowski3, random_problem

METHODS = ("hvas", "topsis", "vikor", "codas")
PLUGIN = "test_minkowski3"


def plugin():
    from ifhv import get_measure

    if PLUGIN not in available_measures():
        register_function(PLUGIN, minkowski3)
    return get_measure(PLUGIN)


# -- the reference chain -------------------------------------------------------

def clamped(mu: float, nu: float) -> tuple[float, float]:
    """The pair with nu clamped as IFN clamps a rounding overshoot of mu + nu."""
    return mu, (1.0 - mu if mu + nu > 1.0 else nu)


def mean(pairs, weights) -> tuple[float, float]:
    """Weighted mean of (mu, nu) pairs: accumulate DM by DM, then one division."""
    total = mu = nu = 0.0
    for (a, b), weight in zip(pairs, weights):
        total += weight
        mu += a * weight
        nu += b * weight
    return clamped(mu / total, nu / total)


def reference_matrix(problem: DecisionProblem) -> list[list[tuple[float, float]]]:
    """Steps 1-4: the weighted (mu, nu) pair of each criterion and alternative."""
    evaluations = problem.evaluation_array.tolist()
    importance = problem.importance_array.tolist()
    expertise = problem.expertise_array.tolist()
    q, n = problem.n_dms, problem.n_alternatives
    matrix = []
    for j, criterion in enumerate(problem.criteria):
        weights = [expertise[l][j] for l in range(q)]
        w_mu, w_nu = mean([importance[l][j] for l in range(q)], weights)
        row = []
        for i in range(n):
            mu, nu = mean([evaluations[l][j][i] for l in range(q)], weights)
            if criterion.kind is CriterionKind.COST:
                mu, nu = nu, mu
            row.append(clamped(mu * w_mu, w_nu + nu * (1.0 - w_nu)))
        matrix.append(row)
    return matrix


def reference_hv(profile, cfg: HVConfig) -> HVNetResult:
    """Step 5: per-space hypervolumes as products over the criteria in order."""
    hv_mu = hv_nu = hv_pi = 1.0
    for (mu, nu), r in zip(profile, cfg.reference_for(len(profile))):
        hv_mu *= mu - r
        hv_nu *= nu - r
        hv_pi *= (1.0 - mu - nu) - r
    return HVNetResult(hv_mu, hv_nu, hv_pi, hv_mu - hv_nu - cfg.alpha * hv_pi)


def reference_extremes(row) -> tuple[int, int]:
    """First column of the greatest and of the smallest pair by (score, accuracy)."""
    key = [(mu - nu, mu + nu) for mu, nu in row]
    return key.index(max(key)), key.index(min(key))


def reference_scores(problem, cfg: CompareConfig, hv_cfg: HVConfig) -> dict[str, list[float]]:
    """Scores of every method, or DegenerateError for a method that has none."""
    matrix = reference_matrix(problem)
    n, m = problem.n_alternatives, problem.n_criteria
    columns = [[row[i] for row in matrix] for i in range(n)]
    scores: dict = {"hvas": [reference_hv(column, hv_cfg).hv_net for column in columns]}

    profiles = [IFS.from_pairs(column) for column in columns]
    extremes = [reference_extremes(row) for row in matrix]
    ps = IFS.from_pairs(row[best] for row, (best, _) in zip(matrix, extremes))
    ns = IFS.from_pairs(row[worst] for row, (_, worst) in zip(matrix, extremes))
    if ps == ns and n > 1:
        return {**scores, **{name: DegenerateError for name in METHODS[1:]}}
    d1, d2 = cfg.measure_primary.evaluate, cfg.measure_secondary.evaluate

    closeness = []
    for p in profiles:
        to_ps, to_ns = d1(p, ps), d1(p, ns)
        if to_ps + to_ns == 0.0:
            closeness = DegenerateError
            break
        closeness.append(to_ns / (to_ps + to_ns))
    scores["topsis"] = closeness

    spans = [d1(IFS((ps[j],)), IFS((ns[j],))) for j in range(m)]
    utilities, regrets = [], []
    for i in range(n):
        gaps = [
            0.0 if spans[j] == 0.0 else d1(IFS((profiles[i][j],)), IFS((ps[j],))) / spans[j]
            for j in range(m)
        ]
        utilities.append(sum(gaps))
        regrets.append(max(gaps))
    s_best, s_worst, r_best, r_worst = min(utilities), max(utilities), min(regrets), max(regrets)
    terms = []
    if s_worst > s_best:
        terms.append((cfg.v, [(s - s_best) / (s_worst - s_best) for s in utilities]))
    if r_worst > r_best:
        terms.append((1.0 - cfg.v, [(r - r_best) / (r_worst - r_best) for r in regrets]))
    total = sum(weight for weight, _ in terms)
    scores["vikor"] = (
        [0.0] * n if total == 0.0
        else [sum(weight * values[i] for weight, values in terms) / total for i in range(n)]
    )

    primary = [d1(p, ns) for p in profiles]
    secondary = [d2(p, ns) for p in profiles]
    assessments = []
    for i in range(n):
        h = 0.0
        for k in range(n):
            h += primary[i] - primary[k]
            if abs(primary[i] - primary[k]) < cfg.tau:
                h += secondary[i] - secondary[k]
        assessments.append(h)
    scores["codas"] = assessments
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
        measure = plugin()
        rng = np.random.default_rng(2025)
        problems = [parse_problem(table1_path())] + [random_problem(rng) for _ in range(20)]
        for problem in problems:
            cfg = CompareConfig(measure_primary=measure, measure_secondary=measure)
            assert_matches(problem, cfg, HVConfig())

    def test_weighted_matrix_and_extremes(self):
        rng = np.random.default_rng(2026)
        problems = [parse_problem(table1_path())] + [random_problem(rng) for _ in range(50)]
        for problem in problems:
            expected = reference_matrix(problem)
            mu, nu = problem.weighted
            assert mu.tolist() == [[value[0] for value in row] for row in expected]
            assert nu.tolist() == [[value[1] for value in row] for row in expected]
            for row, *picks in zip(expected, *_extremes(mu, nu)):
                assert tuple(picks) == reference_extremes(row)

    def test_score_details_match_hv_net(self):
        rng = np.random.default_rng(2027)
        for _ in range(50):
            problem = random_problem(rng)
            cfg = HVConfig(alpha=float(rng.uniform(-1.0, 1.0)))
            matrix = reference_matrix(problem)
            details = score_details(problem, cfg)
            for i, label in enumerate(problem.alternatives):
                column = [row[i] for row in matrix]
                assert details[label] == reference_hv(column, cfg)
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
    tracemalloc.start()
    try:
        result = codas(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.scores) == n
    assert peak < 4 * 2**20
