"""Distance-based comparator methods sharing the HVAS front pipeline.

IF-TOPSIS, IF-VIKOR, and IF-CODAS all start from the weighted matrix of the
HVAS pipeline (aggregation, normalization, weighting), which a problem
builds once (`DecisionProblem.weighted`), then determine per-criterion
positive and negative solutions from the candidate values themselves via
score/accuracy comparison. The extreme points (1, 0) and (0, 1) are not
used here because the shared normalization works relative to the best and
worst values actually present.

Method cores, for an alternative profile A against the positive solution
profile PS and negative solution profile NS:

    TOPSIS  closeness = d(A, NS) / (d(A, PS) + d(A, NS)), ranked descending.
    VIKOR   per-criterion gaps e_j = d1(A_j, PS_j) / d1(PS_j, NS_j);
            group utility S = sum_j e_j, individual regret R = max_j e_j;
            Q = v * (S - S*) / (S- - S*) + (1 - v) * (R - R*) / (R- - R*),
            ranked ascending; a collapsed denominator drops its term and the
            remaining weight is renormalized.
    CODAS   E = d_primary(A, NS), T = d_secondary(A, NS); pairwise assessment
            h_ik = (E_i - E_k) + (T_i - T_k when |E_i - E_k| < tau);
            ranked by H_i = sum_k h_ik descending.

Each core works on whole arrays: distances go through the measures' batch
entry point `evaluate_many`, which broadcasts the solution profiles against
the alternatives and calls a plugin measure once per pair. CODAS sums its
pairwise assessments over blocks of rows of at most `CODAS_BLOCK` elements,
so memory stays O(n), not O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distances import DistanceMeasure, euclidean2, hamming
from .errors import DegenerateError, DomainError, as_float
from .hvas import DecisionProblem, rank as hvas_rank
from .ranking import DEFAULT_TIE_TOLERANCE, RankingResult, build_ranking, check_tie_tolerance

DEFAULT_TAU = 0.02
DEFAULT_V = 0.5
# Elements of one block of CODAS's pairwise (rows, n) assessment arrays.
CODAS_BLOCK = 1 << 16


@dataclass(frozen=True)
class CompareConfig:
    """Shared knobs of the comparator methods.

    tau is the CODAS threshold under which the secondary distance joins the
    pairwise assessment; v is the VIKOR strategy weight between group utility
    and individual regret.
    """

    tau: float = DEFAULT_TAU
    v: float = DEFAULT_V
    measure_primary: DistanceMeasure = field(default_factory=lambda: euclidean2)
    measure_secondary: DistanceMeasure = field(default_factory=lambda: hamming)
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("tau", "v"):
            value = as_float(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tie_tolerance", check_tie_tolerance(self.tie_tolerance))

    def echo(self) -> dict:
        """The knobs a ranking echoes; `build_ranking` appends the tie tolerance."""
        return {
            "tau": self.tau,
            "v": self.v,
            "measure_primary": self.measure_primary.name,
            "measure_secondary": self.measure_secondary.name,
        }


def _extremes(mu: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of the greatest and of the smallest value in each row of (m, n) arrays.

    Compares by (score, accuracy) like `select_extremes`; on exact ties the
    first column wins.
    """

    def first_max(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
        top = primary == primary.max(axis=1, keepdims=True)
        secondary = np.where(top, secondary, -np.inf)
        return np.argmax(secondary == secondary.max(axis=1, keepdims=True), axis=1)

    score, accuracy = mu - nu, mu + nu
    return first_max(score, accuracy), first_max(-score, -accuracy)


@dataclass(frozen=True)
class _Prepared:
    """The weighted matrix in both layouts, with its solution profiles."""

    mu: np.ndarray  # (m, n): a row per criterion
    nu: np.ndarray
    # (n, m), a row per alternative, C-contiguous so that a kernel's mean
    # over a row sums in the order `evaluate` uses on one IFS
    profiles: tuple[np.ndarray, np.ndarray]
    ps: tuple[np.ndarray, np.ndarray]  # (m,) mu and nu
    ns: tuple[np.ndarray, np.ndarray]

    def distances(self, measure: DistanceMeasure, solution) -> np.ndarray:
        """measure(A_i, solution) for every alternative profile A_i."""
        return measure.evaluate_many(*self.profiles, *solution)


def _prepared(problem: DecisionProblem) -> _Prepared:
    mu, nu = problem.weighted
    best, worst = _extremes(mu, nu)
    rows = np.arange(problem.n_criteria)
    ps = (mu[rows, best], nu[rows, best])
    ns = (mu[rows, worst], nu[rows, worst])
    if (
        problem.n_alternatives > 1
        and np.array_equal(ps[0], ns[0])
        and np.array_equal(ps[1], ns[1])
    ):
        raise DegenerateError(
            "all alternatives are identical after weighting; nothing to rank"
        )
    return _Prepared(mu, nu, (mu.T.copy(), nu.T.copy()), ps, ns)


def _ranked(
    method: str, problem: DecisionProblem, cfg: CompareConfig, scores, higher_is_better: bool
) -> RankingResult:
    """A comparator's ranking of its per-alternative scores, echoing `cfg`."""
    return build_ranking(
        method, problem.alternatives, scores, higher_is_better, cfg.tie_tolerance, cfg.echo()
    )


def topsis(problem: DecisionProblem, cfg: CompareConfig | None = None) -> RankingResult:
    """Relative closeness to the negative solution, ranked descending."""
    cfg = cfg if cfg is not None else CompareConfig()
    prepared = _prepared(problem)
    to_ps = prepared.distances(cfg.measure_primary, prepared.ps)
    to_ns = prepared.distances(cfg.measure_primary, prepared.ns)
    total = to_ps + to_ns
    zero = np.flatnonzero(total == 0.0)
    if zero.size:
        raise DegenerateError(
            f"alternative '{problem.alternatives[zero[0]]}' is at zero distance "
            "from both solution profiles"
        )
    return _ranked("topsis", problem, cfg, to_ns / total, higher_is_better=True)


def vikor(problem: DecisionProblem, cfg: CompareConfig | None = None) -> RankingResult:
    """Compromise index Q from group utility and individual regret, ranked ascending."""
    cfg = cfg if cfg is not None else CompareConfig()
    prepared = _prepared(problem)
    measure = cfg.measure_primary
    spans = measure.pair_many(*prepared.ps, *prepared.ns)[:, None]
    to_ps = measure.pair_many(prepared.mu, prepared.nu, *(part[:, None] for part in prepared.ps))
    # a criterion with a zero span cannot discriminate; its gaps are 0
    gaps = np.divide(to_ps, spans, out=np.zeros(to_ps.shape), where=spans != 0.0)
    utilities = gaps.sum(axis=0)  # criterion by criterion, in order
    regrets = gaps.max(axis=0)

    s_best, s_worst = utilities.min(), utilities.max()
    r_best, r_worst = regrets.min(), regrets.max()
    terms = []
    if s_worst > s_best:
        terms.append((cfg.v, (utilities - s_best) / (s_worst - s_best)))
    if r_worst > r_best:
        terms.append((1.0 - cfg.v, (regrets - r_best) / (r_worst - r_best)))
    total_weight = sum(weight for weight, _ in terms)
    if total_weight == 0.0:
        q_values = np.zeros(problem.n_alternatives)  # nothing discriminates; everything ties
    else:
        q_values = sum(weight * values for weight, values in terms) / total_weight
    return _ranked("vikor", problem, cfg, q_values, higher_is_better=False)


def codas(problem: DecisionProblem, cfg: CompareConfig | None = None) -> RankingResult:
    """Combined distance assessment against the negative solution, ranked descending."""
    cfg = cfg if cfg is not None else CompareConfig()
    prepared = _prepared(problem)
    primary = prepared.distances(cfg.measure_primary, prepared.ns)
    secondary = prepared.distances(cfg.measure_secondary, prepared.ns)
    n = problem.n_alternatives
    assessments = np.empty(n)
    step = max(1, CODAS_BLOCK // n)
    for start in range(0, n, step):
        block = slice(start, start + step)
        h = primary[block, None] - primary[None, :]
        tie_break = secondary[block, None] - secondary[None, :]
        tie_break *= np.abs(h) < cfg.tau
        h += tie_break
        assessments[block] = h.sum(axis=1)
    return _ranked("codas", problem, cfg, assessments, higher_is_better=True)


_COMPARATORS = {
    "topsis": topsis,
    "vikor": vikor,
    "codas": codas,
}

METHOD_NAMES = ("hvas",) + tuple(_COMPARATORS)


def check_methods(methods: Sequence[str]) -> None:
    """Reject an empty list of methods, or one that names an unknown method."""
    if not methods:
        raise DomainError("at least one method is required")
    unknown = [name for name in methods if name not in METHOD_NAMES]
    if unknown:
        raise DomainError(
            f"unknown method(s) {', '.join(unknown)}; available: {', '.join(METHOD_NAMES)}"
        )


def run_methods(
    problem: DecisionProblem,
    methods: Sequence[str],
    cfg: CompareConfig | None = None,
    hv_config=None,
) -> list[RankingResult]:
    """Run a subset of {hvas, topsis, vikor, codas} on one problem.

    Every name is checked before any method runs.
    """
    check_methods(methods)
    cfg = cfg if cfg is not None else CompareConfig()
    return [
        hvas_rank(problem, hv_config) if name == "hvas" else _COMPARATORS[name](problem, cfg)
        for name in methods
    ]
