"""Time the exact hypervolume `hv_set` on seeded sphere fronts, one line per shape.

Each front holds k points x / ||x|| with x uniform in [0, 1)^m, drawn from
`numpy.random.default_rng(0)`, measured against the reference 0. All
points lie on the unit sphere, so none dominates another. The time is the
best of `REPEAT` calls. Run from the repository root:

    PYTHONPATH=src python tools/hv_shapes.py                 # every shape below
    PYTHONPATH=src python tools/hv_shapes.py --shape 100,8

Only the standard library, numpy and `ifhv` are used.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ifhv import hv_set

# (k, m): the shapes whose exact cost ROADMAP.md lists under "Where things stand"
SHAPES = (
    (1000, 4), (4000, 4), (400, 5), (1000, 5), (300, 6),
    (50, 8), (100, 8), (150, 8), (200, 8), (30, 10), (50, 10), (70, 10),
)
REPEAT = 3  # calls per shape; the printed time is their minimum


def sphere_front(k: int, m: int) -> np.ndarray:
    """k points on the unit sphere's positive orthant in m dimensions."""
    x = np.random.default_rng(0).random((k, m))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def shape(text: str) -> tuple[int, int]:
    k, m = (int(part) for part in text.split(","))
    if k < 1 or m < 1:
        raise ValueError(text)
    return k, m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=shape, action="append", metavar="K,M",
                        help="a front of K points in M dimensions; repeatable [default: all]")
    args = parser.parse_args(argv)
    for k, m in args.shape or SHAPES:
        points = sphere_front(k, m)
        reference = (0.0,) * m
        best = float("inf")
        for _ in range(REPEAT):
            start = time.perf_counter()
            value = hv_set(points, reference)
            best = min(best, time.perf_counter() - start)
        print(f"k={k} m={m} best_of={REPEAT} seconds={best:.4f} hv={value!r}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
