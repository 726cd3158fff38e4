"""Distance-based comparator methods sharing the HVAS front pipeline.

IF-TOPSIS, IF-VIKOR, and IF-CODAS all start from the weighted matrix of the
HVAS pipeline (aggregation, normalization, weighting), which a problem
builds once (`DecisionProblem.weighted`), then determine per-criterion
positive and negative solutions from the candidate values themselves via
score/accuracy comparison (`ifs._extremes`). The extreme points (1, 0) and
(0, 1) are not used here because the shared normalization works relative to
the best and worst values actually present.

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
the alternatives and calls a plugin measure once per pair. The cores read
`DecisionProblem.weighted` through alternative-major views, its transposes,
and copy nothing: `evaluate_many` writes the differences into new arrays
before a kernel reduces them, so the input's layout cannot change a bit.
CODAS forms no pairs: H_i = n E_i - sum(E) + c_i T_i - (T summed over the
window of i), where the window is the c_i alternatives k with
|E_i - E_k| < tau as floats decide it. That is one slice of the E-sorted
order, whose two ends one bisection finds with the same float test, and
prefix sums of T give its sum, so CODAS costs O(n log n) time and O(n)
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distances import DistanceMeasure, euclidean2, hamming, require_measure
from .errors import DegenerateError, DomainError, as_float
from .hvas import DecisionProblem, rank as hvas_rank
from .ifs import _extremes
from .ranking import DEFAULT_TIE_TOLERANCE, RankingResult, build_ranking, check_tie_tolerance

DEFAULT_TAU = 0.02
DEFAULT_V = 0.5


@dataclass(frozen=True)
class CompareConfig:
    """Shared knobs of the comparator methods.

    tau is the CODAS threshold under which the secondary distance joins the
    pairwise assessment; v is the VIKOR strategy weight between group utility
    and individual regret.
    """

    tau: float = DEFAULT_TAU
    v: float = DEFAULT_V
    measure_primary: DistanceMeasure = euclidean2
    measure_secondary: DistanceMeasure = hamming
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("tau", "v"):
            value = as_float(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "tie_tolerance", check_tie_tolerance(self.tie_tolerance))
        for name in ("measure_primary", "measure_secondary"):
            require_measure(name, getattr(self, name))

    def echo(self) -> dict:
        """The knobs a ranking echoes; `build_ranking` appends the tie tolerance."""
        return {
            "tau": self.tau,
            "v": self.v,
            "measure_primary": self.measure_primary.name,
            "measure_secondary": self.measure_secondary.name,
        }


def _solutions(problem: DecisionProblem) -> tuple[tuple, tuple]:
    """The solution profiles PS and NS, each an (m,) mu and nu pair."""
    mu, nu = problem.weighted
    rows = np.arange(problem.n_criteria)
    ps, ns = ((mu[rows, pick], nu[rows, pick]) for pick in _extremes(mu, nu))
    if problem.n_alternatives > 1 and all(map(np.array_equal, ps, ns)):
        raise DegenerateError(
            "all alternatives are identical after weighting; nothing to rank"
        )
    return ps, ns


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
    mu, nu = problem.weighted
    ps, ns = _solutions(problem)
    to_ps = cfg.measure_primary.evaluate_many(mu.T, nu.T, *ps)
    to_ns = cfg.measure_primary.evaluate_many(mu.T, nu.T, *ns)
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
    ps, ns = _solutions(problem)
    measure = cfg.measure_primary
    spans = measure.pair_many(*ps, *ns)[:, None]
    to_ps = measure.pair_many(*problem.weighted, *(part[:, None] for part in ps))
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
    mu, nu = problem.weighted
    _, ns = _solutions(problem)
    primary = cfg.measure_primary.evaluate_many(mu.T, nu.T, *ns)
    secondary = cfg.measure_secondary.evaluate_many(mu.T, nu.T, *ns)
    assessments = _codas_assessments(primary, secondary, cfg.tau)
    return _ranked("codas", problem, cfg, assessments, higher_is_better=True)


def _codas_assessments(primary: np.ndarray, secondary: np.ndarray, tau: float) -> np.ndarray:
    """H_i = sum_k (E_i - E_k) + (T_i - T_k where abs(E_i - E_k) < tau), for
    E = primary and T = secondary, by sorting and prefix sums.

    abs(E_i - E_k) < tau holds where both E_i - E_k < tau and E_k - E_i < tau
    hold. Float subtraction is monotone in each operand, so along the sorted E
    the first test is false and then true, and the second true and then false:
    the window of i is one slice [start, stop) of the sorted order. Bisection
    finds each end as the first index where the float test flips, so a window
    holds exactly the k that the pairwise test admits.
    """
    order = np.argsort(primary, kind="stable")
    ranked = primary[order]
    start = _first_true(ranked, lambda e: primary - e < tau)
    stop = _first_true(ranked, lambda e: e - primary >= tau)
    stop = np.maximum(start, stop)  # an empty window, as at tau = 0
    prefix = np.concatenate(([0.0], np.cumsum(secondary[order])))
    tie_break = (stop - start) * secondary - (prefix[stop] - prefix[start])
    return len(primary) * primary - primary.sum() + tie_break


def _first_true(ranked: np.ndarray, passes) -> np.ndarray:
    """For each i, the first index k of the sorted array `ranked` at which
    passes(ranked[k])[i] holds, or len(ranked) where none does, for a test
    that is false and then true along `ranked`. One lower-bound bisection for
    all i: each answer stays within [first, first + size]."""
    first = np.zeros(len(ranked), dtype=np.intp)
    size = len(ranked)
    while size > 1:
        half = size // 2
        first = np.where(passes(ranked[first + half]), first, first + half)
        size -= half
    return first + ~passes(ranked[first])


_COMPARATORS = {
    "topsis": topsis,
    "vikor": vikor,
    "codas": codas,
}

METHOD_NAMES = ("hvas",) + tuple(_COMPARATORS)


def check_methods(methods: Sequence[str]) -> None:
    """Reject an empty list of methods, or one that names an unknown method or
    a method twice."""
    if not methods:
        raise DomainError("at least one method is required")
    unknown = [name for name in methods if name not in METHOD_NAMES]
    if unknown:
        raise DomainError(
            f"unknown method(s) {', '.join(unknown)}; available: {', '.join(METHOD_NAMES)}"
        )
    repeated = next((name for i, name in enumerate(methods) if name in methods[:i]), None)
    if repeated is not None:
        raise DomainError(f"method '{repeated}' is named more than once")


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
