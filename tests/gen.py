"""Random-problem generators shared by the test suites."""

from __future__ import annotations

import numpy as np

from ifhv import IFN, IFS, CriterionKind, CriterionSpec, DecisionProblem, hausdorff


def minkowski3(a: IFS, b: IFS) -> float:
    """An order-3 Minkowski distance, homogeneous of degree 1, for use as a
    per-pair plugin measure."""
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x.mu - y.mu) ** 3 + abs(x.nu - y.nu) ** 3
    return (total / (2 * len(a))) ** (1.0 / 3.0)


def hausdorff_squared(a: IFS, b: IFS) -> float:
    """A plugin measure that is not homogeneous of degree 1, so the audit's
    closed-form partner misses and bisection finds it."""
    return hausdorff(a, b) ** 2


def random_ifn(rng: np.random.Generator) -> IFN:
    mu = float(rng.random())
    nu = float(rng.random())
    if mu + nu > 1.0:
        mu, nu = 1.0 - mu, 1.0 - nu
    if mu + nu > 1.0:
        nu = 1.0 - mu
    return IFN(mu, nu)


def random_importance(rng: np.random.Generator) -> IFN:
    # keep mu comfortably positive and nu below 1 so weighting never wipes
    # out an entire criterion
    mu = float(rng.uniform(0.3, 0.9))
    nu = float(rng.uniform(0.02, min(0.95 - mu, 0.6)))
    return IFN(mu, nu)


def random_problem(
    rng: np.random.Generator,
    n_alternatives: int | None = None,
    n_criteria: int | None = None,
    n_dms: int | None = None,
) -> DecisionProblem:
    n = n_alternatives if n_alternatives is not None else int(rng.integers(2, 5))
    m = n_criteria if n_criteria is not None else int(rng.integers(2, 4))
    q = n_dms if n_dms is not None else int(rng.integers(1, 3))
    criteria = tuple(
        CriterionSpec(
            f"c{j + 1}",
            CriterionKind.BENEFIT if rng.random() < 0.5 else CriterionKind.COST,
        )
        for j in range(m)
    )
    return DecisionProblem(
        alternatives=tuple(f"A{i + 1}" for i in range(n)),
        criteria=criteria,
        dms=tuple(f"dm{l + 1}" for l in range(q)),
        evaluations=tuple(
            tuple(tuple(random_ifn(rng) for _ in range(n)) for _ in range(m))
            for _ in range(q)
        ),
        importance=tuple(tuple(random_importance(rng) for _ in range(m)) for _ in range(q)),
        expertise=tuple(
            tuple(float(rng.uniform(0.2, 1.0)) for _ in range(m)) for _ in range(q)
        ),
    )


def degraded(rng: np.random.Generator, value: IFN, kind: CriterionKind) -> IFN:
    """A value no better than `value` for a criterion of `kind` (often worse)."""
    good, bad = value.mu, value.nu
    if kind is CriterionKind.COST:
        good, bad = bad, good
    good = good * float(rng.uniform(0.0, 1.0))
    bad = bad + (1.0 - bad) * float(rng.uniform(0.0, 1.0))
    if good + bad > 1.0:
        bad = 1.0 - good
    if kind is CriterionKind.COST:
        good, bad = bad, good
    return IFN(good, bad)


def problem_with_dominated_pair(
    rng: np.random.Generator,
) -> tuple[DecisionProblem, str, str]:
    """A random problem where one alternative dominates another componentwise
    (per criterion kind, across every DM). Returns (problem, better, worse)."""
    problem = random_problem(rng)
    n = problem.n_alternatives
    better = int(rng.integers(0, n))
    worse = int((better + 1 + rng.integers(0, n - 1)) % n)
    evaluations = problem.evaluation_array.copy()
    for l, per_dm in enumerate(problem.evaluations):
        for j, row in enumerate(per_dm):
            kind = problem.criteria[j].kind
            evaluations[l, j, worse] = degraded(rng, row[better], kind).as_pair()
    return (
        DecisionProblem.from_arrays(
            alternatives=problem.alternatives,
            criteria=problem.criteria,
            dms=problem.dms,
            evaluations=evaluations,
            importance=problem.importance_array,
            expertise=problem.expertise_array,
        ),
        problem.alternatives[better],
        problem.alternatives[worse],
    )


def _entry(rng: np.random.Generator, kind: CriterionKind, role: str) -> IFN:
    """An evaluation whose goodness matches `role` for a criterion of `kind`.

    Goodness ranges are disjoint, so the strong alternative strictly
    dominates everything and the weak one is strictly dominated, in the
    normalized (benefit-oriented) space.
    """
    if role == "strong":
        good = rng.uniform(0.72, 0.9)
        bad = rng.uniform(0.02, 0.08)
    elif role == "weak":
        good = rng.uniform(0.02, 0.12)
        bad = rng.uniform(0.55, 0.7)
    else:
        good = rng.uniform(0.2, 0.5)
        bad = rng.uniform(0.18, 0.45)
    if kind is CriterionKind.COST:
        good, bad = bad, good
    return IFN(float(good), float(bad))


def spread_problem(
    rng: np.random.Generator,
    n_middle: int | None = None,
    n_criteria: int | None = None,
    n_dms: int | None = None,
) -> tuple[DecisionProblem, str, str]:
    """A problem with one strictly dominant and one strictly dominated alternative.

    Returns (problem, dominant_label, dominated_label); the two specials are
    shuffled among the ordinary alternatives.
    """
    middles = n_middle if n_middle is not None else int(rng.integers(1, 4))
    m = n_criteria if n_criteria is not None else int(rng.integers(2, 5))
    q = n_dms if n_dms is not None else int(rng.integers(1, 3))
    n = middles + 2
    roles = ["middle"] * middles + ["strong", "weak"]
    rng.shuffle(roles)
    strong_index = roles.index("strong")
    weak_index = roles.index("weak")
    criteria = tuple(
        CriterionSpec(
            f"c{j + 1}",
            CriterionKind.BENEFIT if rng.random() < 0.5 else CriterionKind.COST,
        )
        for j in range(m)
    )
    problem = DecisionProblem(
        alternatives=tuple(f"A{i + 1}" for i in range(n)),
        criteria=criteria,
        dms=tuple(f"dm{l + 1}" for l in range(q)),
        evaluations=tuple(
            tuple(
                tuple(_entry(rng, criteria[j].kind, roles[i]) for i in range(n))
                for j in range(m)
            )
            for _ in range(q)
        ),
        importance=tuple(tuple(random_importance(rng) for _ in range(m)) for _ in range(q)),
        expertise=tuple(
            tuple(float(rng.uniform(0.2, 1.0)) for _ in range(m)) for _ in range(q)
        ),
    )
    return problem, f"A{strong_index + 1}", f"A{weak_index + 1}"
