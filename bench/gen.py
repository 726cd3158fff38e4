"""Seeded input generator for the benchmark.

Every input the program sees is written to a file by this module, and the
same seed always writes the same bytes. Only numpy and the standard library
are used, so generating inputs never runs the code under measurement.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _simplex(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Uniform (mu, nu) pairs with mu, nu >= 0 and mu + nu <= 1."""
    mu = rng.random(shape)
    nu = rng.random(shape)
    over = mu + nu > 1.0
    mu[over], nu[over] = 1.0 - mu[over], 1.0 - nu[over]
    over = mu + nu > 1.0
    nu[over] = 1.0 - mu[over]
    return mu, nu


def problem_doc(rng: np.random.Generator, n: int, m: int, q: int) -> dict:
    """A decision problem with n alternatives, m criteria and q decision makers."""
    alternatives = [f"A{i + 1}" for i in range(n)]
    criteria = [f"c{j + 1}" for j in range(m)]
    dms = [f"dm{l + 1}" for l in range(q)]
    kinds = np.where(rng.random(m) < 0.5, "benefit", "cost")
    e_mu, e_nu = _simplex(rng, (q, m, n))
    # importance keeps mu well above 0 and nu well below 1, so weighting
    # never collapses a criterion onto the negative ideal
    w_mu = rng.uniform(0.3, 0.9, (q, m))
    w_nu = rng.uniform(0.02, 1.0, (q, m)) * np.minimum(0.95 - w_mu, 0.6)
    expertise = rng.uniform(0.2, 1.0, (q, m))
    return {
        "schema_version": 1,
        "alternatives": alternatives,
        "criteria": [{"id": c, "kind": str(k)} for c, k in zip(criteria, kinds)],
        "dms": dms,
        "evaluations": {
            dm: {
                c: {a: [float(e_mu[l, j, i]), float(e_nu[l, j, i])] for i, a in enumerate(alternatives)}
                for j, c in enumerate(criteria)
            }
            for l, dm in enumerate(dms)
        },
        "importance": {
            dm: {c: [float(w_mu[l, j]), float(w_nu[l, j])] for j, c in enumerate(criteria)}
            for l, dm in enumerate(dms)
        },
        "expertise": {
            dm: {c: float(expertise[l, j]) for j, c in enumerate(criteria)}
            for l, dm in enumerate(dms)
        },
    }


def front_points(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k mutually non-dominated points on the unit sphere's positive orthant."""
    g = np.abs(rng.standard_normal((k, m))) + 1e-3
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def cloud_points(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k points uniform in [0, 1]^m; most of them are dominated."""
    return rng.random((k, m))


def write_problem(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def write_points(path: Path, points: np.ndarray) -> None:
    lines = (",".join(repr(float(x)) for x in row) for row in points)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
