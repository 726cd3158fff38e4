"""Reference-point ranking and the non-robustness auditor.

A distance-based ranking of IFS collections measures each set's distance to
an ideal point and ranks by similarity: against the positive ideal (every
element (1, 0)) smaller distances are better, against the negative ideal
(every element (0, 1)) larger distances are better. A measure is robust when
both choices yield the same order for every collection.

`audit` searches a measure for witness pairs that break robustness: two
single-element sets at (numerically) equal distance from the negative ideal
whose distances to the positive ideal differ. Equal-distance pairs have
measure zero, so rejection sampling would never hit them; instead each
random anchor gets a partner constructed on the ray from the negative ideal
through a random direction point. Both coordinate differences to the
negative ideal are linear along that ray, and every built-in kernel is
absolutely homogeneous of degree 1, so the partner has a closed form: the
ray parameter is the anchor's NIS-distance over the direction point's.
Partners the closed form misses (plugin measures that are not homogeneous,
ray ends at float precision) are found by bisection along the same ray,
stopped at each row's float fixpoint.

The audit draws its budget in chunks of `SAMPLE_CHUNK` attempts and
evaluates each chunk in slices that grow from 64 attempts to a whole chunk.
It stops after the slice that holds the 10th witness, so memory is O(chunk)
and a failing measure costs little more than the attempts up to its 10th
witness; `samples_used` is the attempt index of the 10th witness plus one,
or the whole budget. Every reported pair is
re-verified from its own coordinates, so reports are self-checking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .distances import SAMPLE_CHUNK, DistanceMeasure, sample_simplex
from .errors import DomainError, MismatchError, as_count, as_float
from .ifs import IFN, IFS, NIS, PIS
from .ranking import (
    DEFAULT_TIE_TOLERANCE,
    RankingResult,
    _tie_groups,
    build_ranking,
    check_tie_tolerance,
)

MAX_COUNTEREXAMPLES = 10
_BISECTION_STEPS = 100
# Attempts in the audit's first slice of a chunk; later slices double, up to
# a whole chunk.
_FIRST_SLICE = 64


class ReferenceKind(enum.Enum):
    """Which ideal point anchors a distance-based ranking."""

    PIS = "PIS"
    NIS = "NIS"

    def expand(self, n: int) -> IFS:
        if self is ReferenceKind.PIS:
            return IFS.positive_ideal(n)
        return IFS.negative_ideal(n)


def _stacked(sets: Sequence[Sequence[IFN]], labels: Sequence[str] | None):
    """The (sets, n) mu and nu arrays of equal-length sets, read in one walk
    over them, and the sets' labels: `labels`, or X1, X2, ... when None."""
    if len(sets) == 0:
        raise DomainError("cannot rank an empty collection of sets")
    n = len(sets[0])
    if any(len(s) != n for s in sets):
        raise MismatchError("all sets must have the same length")
    elements = list(chain.from_iterable(sets))
    mu, nu = (np.fromiter(map(attrgetter(k), elements), float, len(elements)) for k in ("mu", "nu"))
    labels = [f"X{i + 1}" for i in range(len(sets))] if labels is None else labels
    return mu.reshape(len(sets), n), nu.reshape(len(sets), n), labels


def rank_by_reference(
    sets: Sequence[IFS],
    measure: DistanceMeasure,
    ref: ReferenceKind,
    labels: Sequence[str] | None = None,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> RankingResult:
    """Rank IFS by distance to an ideal point.

    Scores are the raw distances. Against PIS ascending distance is better;
    against NIS descending distance is better. Distances within
    `tie_tolerance` form tie groups. The sets are stacked into (sets, n)
    mu/nu arrays and measured in one `evaluate_many` call.
    """
    mu, nu, labels = _stacked(sets, labels)
    return build_ranking(
        method=f"{measure.name}/{ref.value}",
        labels=labels,
        scores=measure.evaluate_many(mu, nu, *(PIS if ref is ReferenceKind.PIS else NIS).as_pair()),
        higher_is_better=(ref is ReferenceKind.NIS),
        tie_tolerance=tie_tolerance,
        config_echo={"measure": measure.name, "reference": ref.value},
    )


def robustness_check(
    sets: Sequence[IFS],
    measure: DistanceMeasure,
    labels: Sequence[str] | None = None,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> bool:
    """True iff ranking against PIS and against NIS produce identical orders,
    tie structure included: the sets are stacked once, measured once per
    reference, and the tie groups of `build_ranking`'s rule compared."""
    mu, nu, labels = _stacked(sets, labels)
    pis, nis = (
        _tie_groups(
            labels,
            measure.evaluate_many(mu, nu, *ideal.as_pair()),
            higher,
            check_tie_tolerance(tie_tolerance),  # after measuring, as `rank_by_reference` does
        )
        for ideal, higher in ((PIS, False), (NIS, True))
    )
    return np.array_equal(pis[1], nis[1])


@dataclass(frozen=True)
class Counterexample:
    """Two IFNs equidistant from the negative ideal but not from the positive one."""

    a: IFN
    b: IFN
    d_nis_a: float
    d_nis_b: float
    d_pis_a: float
    d_pis_b: float

    def verify(self, measure: DistanceMeasure, eps: float, delta: float) -> bool:
        """Recompute all four distances from the stored pair and confirm both
        the equal-NIS-distance construction and the PIS-distance violation."""
        nis, pis = IFS.negative_ideal(1), IFS.positive_ideal(1)
        d_nis_a = measure.evaluate(IFS((self.a,)), nis)
        d_nis_b = measure.evaluate(IFS((self.b,)), nis)
        d_pis_a = measure.evaluate(IFS((self.a,)), pis)
        d_pis_b = measure.evaluate(IFS((self.b,)), pis)
        reproduced = (
            d_nis_a == self.d_nis_a
            and d_nis_b == self.d_nis_b
            and d_pis_a == self.d_pis_a
            and d_pis_b == self.d_pis_b
        )
        return reproduced and abs(d_nis_a - d_nis_b) <= eps and abs(d_pis_a - d_pis_b) > delta

    def to_dict(self) -> dict:
        return {
            "a": [self.a.mu, self.a.nu],
            "b": [self.b.mu, self.b.nu],
            "d_nis_a": self.d_nis_a,
            "d_nis_b": self.d_nis_b,
            "d_pis_a": self.d_pis_a,
            "d_pis_b": self.d_pis_b,
        }


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a robustness search over a sampling budget."""

    measure: str
    budget: int
    eps: float
    delta: float
    seed: int
    is_robust_on_budget: bool
    counterexamples: tuple[Counterexample, ...]
    samples_used: int

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "budget": self.budget,
            "eps": self.eps,
            "delta": self.delta,
            "seed": self.seed,
            "is_robust_on_budget": self.is_robust_on_budget,
            "samples_used": self.samples_used,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }


def _draw_attempts(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Anchors, then ray directions, for `count` attempts."""
    a_mu, a_nu = sample_simplex(rng, count)
    dir_mu, dir_nu = sample_simplex(rng, count)
    return a_mu, a_nu, dir_mu, dir_nu


def _ray_point(
    s: np.ndarray, dir_mu: np.ndarray, dir_nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """p(s) = (s * dir_mu, 1 + s * (dir_nu - 1)) on the ray from the negative
    ideal (0, 1) through the direction point, which it reaches at s = 1."""
    return s * dir_mu, 1.0 + s * (dir_nu - 1.0)


def _clean_ray_point(
    s: np.ndarray, dir_mu: np.ndarray, dir_nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ray point with float dust cleaned off, pinned into the valid region,
    so distances measured from it re-verify exactly."""
    mu, nu = _ray_point(s, dir_mu, dir_nu)
    b_mu = np.clip(mu, 0.0, 1.0)
    b_nu = np.clip(nu, 0.0, 1.0)
    over = b_mu + b_nu > 1.0
    return b_mu, np.where(over, 1.0 - b_mu, b_nu)


def _nis_distance(measure: DistanceMeasure, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return measure.pair_many(mu, nu, 0.0, 1.0)


def _bisect(
    measure: DistanceMeasure,
    dir_mu: np.ndarray,
    dir_nu: np.ndarray,
    target: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Ray parameters in [0, hi] where the NIS-distance crosses `target`.

    Each row stops at its float fixpoint, when its midpoint no longer lies
    strictly inside its bracket; no row takes more than 100 steps. Only rows
    still moving are evaluated.
    """
    lo = np.zeros_like(hi)
    hi = hi.copy()
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        moving = np.flatnonzero((lo < mid) & (mid < hi))
        if moving.size == 0:
            break
        m = mid[moving]
        ray_mu, ray_nu = _ray_point(m, dir_mu[moving], dir_nu[moving])
        below = _nis_distance(measure, ray_mu, ray_nu) < target[moving]
        lo[moving] = np.where(below, m, lo[moving])
        hi[moving] = np.where(below, hi[moving], m)
    return 0.5 * (lo + hi)


def _iso_nis_partners(
    measure: DistanceMeasure,
    a_mu: np.ndarray,
    a_nu: np.ndarray,
    dir_mu: np.ndarray,
    dir_nu: np.ndarray,
    tol: float,
) -> dict[str, np.ndarray]:
    """For each anchor, construct a partner at equal NIS-distance on its ray.

    Along the ray both coordinate differences to NIS are linear in s, and
    every built-in kernel is absolutely homogeneous of degree 1, so
    d(p(s), NIS) = s * d(p(1), NIS) and the partner sits at
    s = d(a, NIS) / d(p(1), NIS). A row is feasible when that s lies on the
    valid part of the ray, which ends where nu reaches 0 at s_max. Rows the
    closed form leaves infeasible or misses by more than `tol` (plugin
    measures that are not homogeneous, or ray ends at float precision) are
    solved again by bisection, feasible when d(p(s_max), NIS) reaches the
    target. Returns coordinate arrays, the achieved distances and the
    feasibility mask.
    """
    target = _nis_distance(measure, a_mu, a_nu)
    drop = 1.0 - dir_nu
    s_max = np.where(drop > 0.0, 1.0 / np.maximum(drop, 1e-300), 0.0)

    unit = _nis_distance(measure, dir_mu, dir_nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = target / unit
    feasible = (unit > 0.0) & (s <= s_max)
    s = np.where(feasible, s, 0.0)
    b_mu, b_nu = _clean_ray_point(s, dir_mu, dir_nu)
    d_nis_b = _nis_distance(measure, b_mu, b_nu)

    retry = np.flatnonzero(~feasible | (np.abs(target - d_nis_b) > tol))
    end_mu, end_nu = _ray_point(s_max[retry], dir_mu[retry], dir_nu[retry])
    reach = _nis_distance(measure, end_mu, end_nu) >= target[retry]
    feasible[retry] = reach
    rows = retry[reach]
    s_rows = _bisect(measure, dir_mu[rows], dir_nu[rows], target[rows], s_max[rows])
    b_mu[rows], b_nu[rows] = _clean_ray_point(s_rows, dir_mu[rows], dir_nu[rows])
    d_nis_b[rows] = _nis_distance(measure, b_mu[rows], b_nu[rows])

    return {
        "a_mu": a_mu, "a_nu": a_nu,
        "b_mu": b_mu, "b_nu": b_nu,
        "d_nis_a": target, "d_nis_b": d_nis_b,
        "feasible": feasible,
    }


def iso_nis_pairs(
    measure: DistanceMeasure, count: int, seed: int = 0, tol: float = 1e-12
) -> dict[str, np.ndarray]:
    """Construct IFN pairs whose NIS-distances agree within `tol`.

    Returns coordinate arrays filtered to successful constructions; intended
    for property checks over large sample counts.
    """
    count = as_count("count", count)
    rng = np.random.default_rng(as_count("seed", seed, 0))
    built = _iso_nis_partners(measure, *_draw_attempts(rng, count), tol)
    keep = built["feasible"] & (np.abs(built["d_nis_a"] - built["d_nis_b"]) <= tol)
    return {key: value[keep] for key, value in built.items() if key != "feasible"}


def audit(
    measure: DistanceMeasure,
    budget: int = 10_000,
    eps: float = 1e-9,
    delta: float = 1e-3,
    seed: int = 0,
) -> AuditReport:
    """Search for robustness violations within a sampling budget.

    Each budget unit spends one anchor/direction attempt. A counterexample is
    a constructed pair with NIS-distances within `eps` whose PIS-distances
    differ by more than `delta`. The budget is drawn in chunks of
    `SAMPLE_CHUNK` attempts, each drawing its anchors and then its directions.
    A chunk is evaluated in slices of 64 attempts at first, each slice twice
    the last up to a whole chunk, the width carrying over to the next chunk;
    every attempt's outcome depends on its own draws alone, so the slicing
    moves no result. The scan stops after the slice that holds the 10th
    counterexample, so memory is O(chunk) and a measure that fails early
    costs about twice the attempts up to its 10th counterexample.
    `samples_used` is the 1-based index of the 10th counterexample's attempt,
    or the whole budget when fewer were found. Deterministic for a fixed seed;
    budgets up to one chunk draw exactly what a single batch would. An empty
    report is a valid outcome and yields is_robust_on_budget=True.
    """
    budget = as_count("budget", budget)
    eps, delta = as_float("eps", eps), as_float("delta", delta)
    if not (math.isfinite(eps) and eps > 0.0 and math.isfinite(delta) and delta > 0.0):
        raise DomainError("eps and delta must be positive finite numbers")
    seed = as_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    counterexamples: list[Counterexample] = []
    samples_used = budget
    width = _FIRST_SLICE
    start = 0
    while start < budget and len(counterexamples) < MAX_COUNTEREXAMPLES:
        take = min(SAMPLE_CHUNK, budget - start)
        drawn = _draw_attempts(rng, take)
        lo = 0
        # The slice's arrays stay bound here until the next slice replaces
        # them. Freed all at once, as on a helper's return, they let malloc
        # trim the heap, and a robust measure's scan then faults each chunk's
        # pages back in: 3x the page faults and 25% more time for `hamming` at
        # budget 2e5 on glibc.
        while lo < take and len(counterexamples) < MAX_COUNTEREXAMPLES:
            rows = slice(lo, lo + width)
            built = _iso_nis_partners(measure, *(x[rows] for x in drawn), eps)
            ok = np.flatnonzero(
                built["feasible"] & (np.abs(built["d_nis_a"] - built["d_nis_b"]) <= eps)
            )
            a_mu, a_nu = built["a_mu"][ok], built["a_nu"][ok]
            b_mu, b_nu = built["b_mu"][ok], built["b_nu"][ok]
            d_pis_a = measure.pair_many(a_mu, a_nu, 1.0, 0.0)
            d_pis_b = measure.pair_many(b_mu, b_nu, 1.0, 0.0)
            hits = np.flatnonzero(np.abs(d_pis_a - d_pis_b) > delta)
            for j in hits[: MAX_COUNTEREXAMPLES - len(counterexamples)]:
                i = ok[j]
                counterexamples.append(
                    Counterexample(
                        a=IFN(float(a_mu[j]), float(a_nu[j])),
                        b=IFN(float(b_mu[j]), float(b_nu[j])),
                        d_nis_a=float(built["d_nis_a"][i]),
                        d_nis_b=float(built["d_nis_b"][i]),
                        d_pis_a=float(d_pis_a[j]),
                        d_pis_b=float(d_pis_b[j]),
                    )
                )
                if len(counterexamples) == MAX_COUNTEREXAMPLES:
                    samples_used = start + lo + int(i) + 1
            lo += width
            width = min(2 * width, SAMPLE_CHUNK)
        start += take

    return AuditReport(
        measure=measure.name,
        budget=budget,
        eps=eps,
        delta=delta,
        seed=seed,
        is_robust_on_budget=len(counterexamples) == 0,
        counterexamples=tuple(counterexamples),
        samples_used=samples_used,
    )
