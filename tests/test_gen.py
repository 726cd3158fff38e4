"""The shared generators draw the same problems from the same seeds.

Every seeded suite reads its inputs from `tests/gen.py`, so a draw that moves
there changes what those suites test without failing any of them. These
digests, of every array, label and criterion kind and of the generator's next
draw after the call, make such a move fail here instead.
"""

import hashlib

import numpy as np
import pytest

from gen import random_problem, spread_problem


def _digest(results) -> str:
    h = hashlib.sha256()
    for problem, rng, extra in results:
        for labels in (problem.alternatives, problem.criteria, problem.dms, extra):
            h.update(repr(labels).encode())
        for array in (problem.evaluation_array, problem.importance_array, problem.expertise_array):
            h.update(repr(array.shape).encode())
            h.update(array.astype("<f8").tobytes())
        h.update(np.float64(rng.random()).astype("<f8").tobytes())
    return h.hexdigest()


def _random(seed, *sizes):
    rng = np.random.default_rng(seed)
    return random_problem(rng, *sizes), rng, ()


def _spread(seed):
    rng = np.random.default_rng(seed)
    problem, strong, weak = spread_problem(rng)
    return problem, rng, (strong, weak)


FROZEN_GENERATORS = {
    "random_problem-defaults": (
        lambda: [_random(seed) for seed in range(20)],
        "0add6b5586fe7752494ab498c7aeed1d5afb6ed1e88c42b059bd0741a26bdd14",
    ),
    # the golden corpus's two problems, with its seeds (golden/regen.py)
    "random_problem-240x3x1": (
        lambda: [_random(20240, 240, 3, 1)],
        "4256a9763389d4a435e3a95563078120478cbd41ef1fcfae03928eb289a2627d",
    ),
    "random_problem-12x4x2": (
        lambda: [_random(20241, 12, 4, 2)],
        "682809f27ddb92342b70ef6f71f9614091c5b02648dd21ce1e46fda4ec718458",
    ),
    "spread_problem-defaults": (
        lambda: [_spread(seed) for seed in range(20)],
        "660a2167355be8f5242b2c386639b978294188f9e45b7a27ea93a169760d0141",
    ),
}


@pytest.mark.parametrize("case", FROZEN_GENERATORS)
def test_generators_are_frozen(case):
    draw, digest = FROZEN_GENERATORS[case]
    assert _digest(draw()) == digest
