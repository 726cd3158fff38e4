"""The HVAS decision pipeline: hypervolume-based assessment of alternatives.

A decision problem holds evaluations from q decision makers over n
alternatives and m criteria, plus per-criterion importance values and DM
expertise weights. Inside the pipeline it is three float arrays: evaluations
E[q, m, n, 2], importance W[q, m, 2] and expertise X[q, m], where a last
axis of 2 holds (mu, nu). The pipeline:

    1. aggregate DM evaluations per (criterion, alternative) with expertise
       weights,
    2. aggregate criterion importance the same way,
    3. normalize by criterion kind: cost criteria swap mu and nu,
    4. multiply each row by its aggregated importance,
    5. score each alternative's column of weighted values by net
       hypervolume, a product over criteria in each of the mu, nu and pi
       spaces, and rank descending. The formula is `hypervolume._hv_spaces`,
       the one that `hv_net` applies to a single IFS.

Steps 1, 2 and 4 apply IFN's array rules `ifs._ifa` and `ifs._product` to
whole arrays.
Steps 1-4 run once per problem: `DecisionProblem.weighted` is the weighted
matrix, a pair of read-only (m, n) mu and nu arrays with one row per
criterion. HVAS here and the comparators in `ifhv.mcdm` all read it, so a
command builds it once whatever methods it runs. IFN and IFS appear only at
the API boundary: the nested-IFN constructor and the `evaluations` view.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateError, DomainError, MismatchError
from .hypervolume import HVConfig, HVNetResult, _hv_spaces
from .ifs import IFN, _ifa, _product, check_pairs
from .ranking import RankingResult, build_ranking


class CriterionKind(enum.Enum):
    BENEFIT = "benefit"
    COST = "cost"


@dataclass(frozen=True)
class CriterionSpec:
    id: str
    kind: CriterionKind


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DecisionProblem:
    """Evaluations, criterion importance, and expertise from q decision makers.

    Index order is [dm][criterion][alternative] for evaluations and
    [dm][criterion] for importance and expertise. Expertise values are
    ordinary fuzzy memberships in [0, 1].

    The constructor takes nested IFN tuples; `from_arrays` takes float
    arrays, checked under the same rules. Either way the problem is stored as
    the read-only arrays `evaluation_array` (q, m, n, 2), `importance_array`
    (q, m, 2) and `expertise_array` (q, m). The IFN-typed `evaluations` is
    built from them on first access.
    """

    def __init__(
        self,
        alternatives: Sequence[str],
        criteria: Sequence[CriterionSpec],
        dms: Sequence[str],
        evaluations: Sequence[Sequence[Sequence[IFN]]],
        importance: Sequence[Sequence[IFN]],
        expertise: Sequence[Sequence[float]],
    ) -> None:
        self._set_ids(alternatives, criteria, dms)
        self._set_arrays(
            [[[(v.mu, v.nu) for v in row] for row in per_dm] for per_dm in evaluations],
            [[(v.mu, v.nu) for v in per_dm] for per_dm in importance],
            expertise,
        )

    @classmethod
    def from_arrays(
        cls,
        alternatives: Sequence[str],
        criteria: Sequence[CriterionSpec],
        dms: Sequence[str],
        evaluations: np.ndarray,
        importance: np.ndarray,
        expertise: np.ndarray,
    ) -> "DecisionProblem":
        """Build a problem from float arrays of (mu, nu) pairs and weights.

        Shapes are (q, m, n, 2), (q, m, 2) and (q, m). Pairs are checked and
        clamped as IFN does (`ifs.check_pairs`); a bad one raises DomainError
        naming its array, e.g. ``evaluations: IFN components must ...``.
        """
        problem = cls.__new__(cls)
        problem._set_ids(alternatives, criteria, dms)
        problem._set_arrays(evaluations, importance, expertise)
        return problem

    def _set_ids(self, alternatives, criteria, dms) -> None:
        self.alternatives = tuple(alternatives)
        self.criteria = tuple(criteria)
        self.dms = tuple(dms)
        n, m, q = len(self.alternatives), len(self.criteria), len(self.dms)
        if n < 1 or m < 1 or q < 1:
            raise DomainError("a problem needs at least one alternative, criterion, and DM")
        if len(set(self.alternatives)) != n:
            raise DomainError("alternative ids must be unique")
        if len(set(c.id for c in self.criteria)) != m:
            raise DomainError("criterion ids must be unique")
        if len(set(self.dms)) != q:
            raise DomainError("DM ids must be unique")

    def _set_arrays(self, evaluations, importance, expertise) -> None:
        try:
            arrays = [np.array(a, dtype=float) for a in (evaluations, importance, expertise)]
        except ValueError as exc:
            raise MismatchError(
                f"evaluations, importance and expertise must nest [dm][criterion]: {exc}"
            ) from None
        q, m, n = self.n_dms, self.n_criteria, self.n_alternatives
        for array, name, shape in zip(
            arrays,
            ("evaluations", "importance", "expertise"),
            ((q, m, n, 2), (q, m, 2), (q, m)),
        ):
            if array.shape != shape:
                raise MismatchError(f"{name} must have shape {shape}, got {array.shape}")
        evaluations, importance, expertise = arrays
        for pairs, name in ((evaluations, "evaluations"), (importance, "importance")):
            try:
                pairs[..., 1] = check_pairs(pairs[..., 0], pairs[..., 1])
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from None
        outside = ~((expertise >= 0.0) & (expertise <= 1.0))
        if outside.any():
            w = float(expertise.flat[int(np.argmax(outside))])
            raise DomainError(f"expertise weights must lie in [0, 1], got {w}")
        self.evaluation_array = _read_only(evaluations)
        self.importance_array = _read_only(importance)
        self.expertise_array = _read_only(expertise)

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_criteria(self) -> int:
        return len(self.criteria)

    @property
    def n_dms(self) -> int:
        return len(self.dms)

    @cached_property
    def evaluations(self) -> tuple[tuple[tuple[IFN, ...], ...], ...]:
        return tuple(
            tuple(tuple(IFN(mu, nu) for mu, nu in row) for row in per_dm)
            for per_dm in self.evaluation_array.tolist()
        )

    @cached_property
    def weighted(self) -> tuple[np.ndarray, np.ndarray]:
        """Steps 1-4 of the pipeline: the weighted (m, n) mu and nu arrays."""
        e, w, x = self.evaluation_array, self.importance_array, self.expertise_array
        zero = np.flatnonzero(~x.any(axis=0))  # weights in [0, 1] sum to 0 only if all are 0
        if zero.size:
            raise DegenerateError(
                f"expertise weights for criterion '{self.criteria[zero[0]].id}' sum to zero"
            )
        mu, nu = _normalize(*_ifa(e[..., 0], e[..., 1], x), self.criteria)
        w_mu, w_nu = _ifa(w[..., 0], w[..., 1], x)
        mu, nu = _product(mu, nu, w_mu[:, None], w_nu[:, None])
        return _read_only(mu), _read_only(nu)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionProblem):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.criteria == other.criteria
            and self.dms == other.dms
            and np.array_equal(self.evaluation_array, other.evaluation_array)
            and np.array_equal(self.importance_array, other.importance_array)
            and np.array_equal(self.expertise_array, other.expertise_array)
        )

    __hash__ = None  # equality compares arrays

    def __repr__(self) -> str:
        return (
            f"DecisionProblem(alternatives={self.alternatives!r}, "
            f"criteria={tuple(c.id for c in self.criteria)!r}, dms={self.dms!r})"
        )


def _normalize(mu: np.ndarray, nu: np.ndarray, criteria: Sequence[CriterionSpec]):
    """Swap mu and nu on the rows of cost criteria."""
    cost = np.array([c.kind is CriterionKind.COST for c in criteria])[:, None]
    return np.where(cost, nu, mu), np.where(cost, mu, nu)


def _weighted_spaces(problem: DecisionProblem, cfg: HVConfig):
    """`_hv_spaces` of the weighted matrix; a wrong reference is reported first."""
    cfg.reference_for(problem.n_criteria)
    return _hv_spaces(*problem.weighted, cfg)


def score_details(
    problem: DecisionProblem, config: HVConfig | None = None
) -> dict[str, HVNetResult]:
    """Per-alternative space hypervolumes after the shared pipeline."""
    cfg = config if config is not None else HVConfig()
    spaces = (values.tolist() for values in _weighted_spaces(problem, cfg))
    return {
        label: HVNetResult(*parts) for label, *parts in zip(problem.alternatives, *spaces)
    }


def rank(problem: DecisionProblem, config: HVConfig | None = None) -> RankingResult:
    """Rank alternatives by net hypervolume of their weighted value profiles."""
    cfg = config if config is not None else HVConfig()
    return ranking(problem, cfg, _weighted_spaces(problem, cfg)[3])


def ranking(problem: DecisionProblem, cfg: HVConfig, scores) -> RankingResult:
    """The HVAS ranking from net-hypervolume scores; the `rank` command passes
    the `hv_net` of `score_details`, so that it evaluates the formula once."""
    return build_ranking(
        method="hvas",
        labels=problem.alternatives,
        scores=scores,
        higher_is_better=True,
        tie_tolerance=cfg.tie_tolerance,
        config_echo={"reference": list(cfg.reference_for(problem.n_criteria)), "alpha": cfg.alpha},
    )
