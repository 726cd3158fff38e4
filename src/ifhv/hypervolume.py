"""Hypervolume of axis-aligned dominated regions and net-hypervolume scores.

The hypervolume of a point set P with respect to a reference point r (with
p >= r componentwise for every p in P) is the Lebesgue measure of the union
of boxes [r, p]. For a single point it reduces to prod_j (p_j - r_j).

An IFS of length m spans three m-dimensional decision spaces: the membership
point (mu_1..mu_m), the non-membership point (nu_1..nu_m), and the hesitancy
point (pi_1..pi_m). Ranking scores combine their single-point hypervolumes:

    hv_net = hv_mu - hv_nu - alpha * hv_pi

where alpha in [-1, 1] expresses aversion (positive) or proneness (negative)
to hesitancy; alpha = 0 ignores the hesitancy space. The default reference
puts -1 in every coordinate so a value of 0 contributes a factor of exactly
1 and every factor lies in [1, 2].

`_hv_spaces` is the one implementation of this formula, over the columns of
(m, n) mu and nu arrays: `hv_net` is its one-column call, and `ifhv.hvas`
calls it on the weighted decision matrix.

`hv_set` is exact: the HV3D dimension sweep, O(k log k) in the number of
points, in up to 3 dimensions, and above that WFG's sum of exclusive
contributions, one per level of the last coordinate, whose limit sets
recurse one dimension down to HV3D; its nondominance filter compares at most
`PARETO_BLOCK_ELEMENTS` pairs at a time. `hv_inclusion_exclusion` and
`mc_oracle` are independent cross-checks for it. `mc_oracle` holds each
chunk of samples as an (m, chunk) array, one contiguous row per coordinate,
tests it against blocks of points, largest boxes first, one coordinate at a
time along those rows, and retires each sample at its first hit; its memory
is O(`MC_CHUNK_ELEMENTS` + k * m) whatever the point or sample count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MismatchError, as_count, as_float
from .ifs import IFS
from .ranking import DEFAULT_TIE_TOLERANCE, check_tie_tolerance

DEFAULT_REFERENCE_COORD = -1.0

# Cap on the coordinate comparisons of one mc_oracle chunk against one
# point block, (chunk, block, m): chunks hold
# max(1, MC_CHUNK_ELEMENTS // (MC_POINT_BLOCK * m)) samples, so memory stays
# flat in k and in the sample count.
MC_CHUNK_ELEMENTS = 2**22

# Points mc_oracle tests a chunk against at a time; samples that hit a block
# are counted and leave the chunk before the next block.
MC_POINT_BLOCK = 64

# Element cap on _pareto_max's (rows, k) comparison arrays.
PARETO_BLOCK_ELEMENTS = 2**20

Point = Sequence[float]


def hv_point(p: Point, r: Point) -> float:
    """Volume of the box spanned between a reference r and one point p >= r."""
    arr, ra = _points_array([p], r)
    return float(np.prod(arr[0] - ra))


def _covered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) booleans: row a[i] <= row b[j] in every coordinate.

    Tested one coordinate at a time, which is much faster than reducing a
    (len(a), len(b), m) comparison over its short last axis.
    """
    out = a[:, :1] <= b[:, 0]
    for j in range(1, a.shape[1]):
        out &= a[:, j : j + 1] <= b[:, j]
    return out


def _pareto_max(v: np.ndarray) -> np.ndarray:
    """Drop rows dominated by another row (componentwise <=), and repeats of an
    equal row after its first occurrence.

    In descending lexicographic order, stable, a row can be covered only by
    an earlier row: one that covers it and differs from it is larger in the
    first coordinate where they differ. So each row is dropped when an earlier
    row of that order covers it. Rows are compared with the earlier rows a
    block at a time, so each (rows, k) boolean array holds at most
    `PARETO_BLOCK_ELEMENTS` elements.
    """
    k = v.shape[0]
    if k <= 1:
        return v
    order = np.lexsort(-v.T[::-1])
    w = v[order]
    drop = np.empty(k, dtype=bool)
    step = max(1, PARETO_BLOCK_ELEMENTS // k)
    for start in range(0, k, step):
        stop = min(start + step, k)
        ge = _covered(w[start:stop], w[:stop])  # ge[i, j]: row j >= block row i
        ge &= np.arange(stop) < np.arange(start, stop)[:, None]
        drop[order[start:stop]] = ge.any(axis=1)
    return v[~drop]


def _hv3d(v: np.ndarray) -> float:
    """Measure of the union of boxes [0, row] for non-negative rows of 2 or 3
    columns, by the HV3D dimension sweep in O(k log k).

    Rows are swept by descending last coordinate. The (x, y) staircase of the
    rows seen so far is kept in two lists, x ascending and y descending, with
    its area updated on each insertion; every gap down to the next z level
    adds a slab of that area. A 2-column set is the slab z in [0, 1].
    """
    if v.shape[1] == 2:
        v = np.column_stack((v, np.ones(v.shape[0])))
    rows = v[np.argsort(-v[:, 2], kind="stable")].tolist()
    xs: list[float] = []
    ys: list[float] = []
    area = 0.0
    total = 0.0
    for index, (px, py, pz) in enumerate(rows):
        j = bisect_left(xs, px)
        if j == len(xs) or ys[j] < py:  # not dominated in (x, y) by a higher row
            hi = bisect_right(xs, px)
            # The gain is the area under py that the staircase left uncovered:
            # walk left over the steps py covers, summing non-negative strips.
            right, height = px, ys[hi] if hi < len(ys) else 0.0
            i = hi - 1
            gain = 0.0
            while i >= 0 and ys[i] <= py:
                gain += (right - xs[i]) * (py - height)
                right, height = xs[i], ys[i]
                i -= 1
            gain += (right - (xs[i] if i >= 0 else 0.0)) * (py - height)
            area += gain
            xs[i + 1 : hi] = [px]
            ys[i + 1 : hi] = [py]
        z_next = rows[index + 1][2] if index + 1 < len(rows) else 0.0
        if z_next < pz:
            total += (pz - z_next) * area
    return total


def _union_volume(v: np.ndarray) -> float:
    """Measure of the union of boxes [0, row] for non-negative rows.

    Up to 3 columns this is the HV3D sweep. Above, it sums the exclusive
    contributions of the nondominated rows (WFG) by levels z of the last
    coordinate, ascending: the rows at z add the part of their boxes that no
    row above z covers, which is z * (V(head[at or above z]) - V(head[above
    z])), where head is the first m - 1 columns and V the union volume one
    dimension down. A level of one row takes both terms clipped to its own
    head: the first is then its box, and the second, its limit set, is small
    once dominated rows are filtered. A tied level takes them unclipped and
    hands its second term to a tied level just above as that level's first.
    """
    if v.shape[1] == 1:
        return float(v.max())
    if v.shape[1] <= 3:
        return _hv3d(v)
    v = _pareto_max(v)
    v = v[np.argsort(v[:, -1], kind="stable")]
    head = v[:, :-1]
    levels, starts = np.unique(v[:, -1], return_index=True)
    stops = [*starts[1:].tolist(), len(v)]
    total = 0.0
    above = None  # V(head[hi:]) of the previous level when it was tied
    for z, lo, hi in zip(levels.tolist(), starts.tolist(), stops):
        if hi - lo == 1:
            limit = np.minimum(head[hi:], head[lo])
            total += z * (float(head[lo].prod()) - _union_volume(limit))
            above = None
        else:
            at = _union_volume(head[lo:]) if above is None else above
            above = _union_volume(head[hi:])
            total += z * (at - above)
    return total


def _points_array(
    points: Sequence[Point], r: Point, row_name=lambda i: f"point {i}"
) -> tuple[np.ndarray, np.ndarray]:
    """The points as a (k, m) array, and the reference as an array. An error
    names the first bad row i as `row_name(i)`, which the CLI makes file:line.

    The box from the reference to the points' componentwise maximum must have
    a finite volume over every subset of its coordinates: the product of its
    widths, each width below 1 counted as 1. Every volume that `hv_set`,
    `hv_point` and `mc_oracle` form, and the one they return, is at most that
    product.
    """
    ra = np.asarray(r, dtype=float)
    if ra.ndim != 1 or ra.size == 0 or not np.isfinite(ra).all():
        raise DomainError(f"reference must be a non-empty sequence of finite numbers: {r}")
    if len(points) == 0:
        return np.empty((0, ra.size)), ra
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged rows, or values that are not numbers
        arr = None
    if arr is None or arr.ndim != 2:
        raise MismatchError("all points and the reference must share one dimension")
    if arr.shape[1] != ra.size:
        raise MismatchError(
            f"reference has {ra.size} coordinates but the points have {arr.shape[1]}"
        )
    # nan compares false with the reference, so the finiteness check goes first
    for bad, problem in (
        (~np.isfinite(arr).all(axis=1), "coordinates must be finite"),
        ((arr < ra).any(axis=1), "point does not dominate the reference"),
    ):
        if bad.any():
            raise DomainError(f"{row_name(int(np.argmax(bad)))}: {problem}")
    with np.errstate(over="ignore"):
        bound = np.prod(np.maximum(arr.max(axis=0) - ra, 1.0))
    if not np.isfinite(bound):
        raise DomainError(
            "the box from the reference to the points' componentwise maximum "
            "is too large: its volume over some of its coordinates exceeds the float range"
        )
    return arr, ra


def hv_set(points: Sequence[Point], r: Point) -> float:
    """Exact hypervolume of a point set: measure of the union of boxes [r, p].

    In up to 3 dimensions this is the HV3D sweep (Beume, Fonseca,
    Lopez-Ibanez, Paquete and Vahrenhold, IEEE TEC 2009), O(k log k) in the
    number of points. In m >= 4 dimensions it drops dominated points and
    sums exclusive contributions by WFG (While, Bradstreet and Barone, IEEE
    TEC 2012) over the levels of the last coordinate, ascending: a level of
    one point adds its box less the hypervolume of its limit set, the higher
    points clipped to its box, taken one dimension down; a level z of tied
    points adds z times the hypervolume, one dimension down, of the points
    at or above z less that of the points above z, and a tied level next
    above reuses the second term, so ties cost one call per level, not per
    point.
    Limit sets are filtered to their nondominated points above 3 dimensions
    and measured by HV3D at 3.
    """
    arr, ra = _points_array(points, r)
    if arr.shape[0] == 0:
        return 0.0
    return float(_union_volume(arr - ra))


def hv_inclusion_exclusion(points: Sequence[Point], r: Point) -> float:
    """Union volume by inclusion-exclusion over all non-empty subsets.

    Exponential in the number of points; intended as an independent oracle
    for small sets (at most 20 points).
    """
    arr, ra = _points_array(points, r)
    k = arr.shape[0]
    if k == 0:
        return 0.0
    if k > 20:
        raise DomainError("inclusion-exclusion oracle is limited to 20 points")
    offsets = arr - ra
    total = 0.0
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        box = float(np.prod(offsets[members].min(axis=0)))
        total += box if len(members) % 2 == 1 else -box
    return total


def mc_oracle(
    points: Sequence[Point],
    r: Point,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of hv_set with its standard error.

    Samples uniformly over the bounding box [r, componentwise max] and counts
    hits inside the union of boxes. Returns (estimate, stderr); deterministic
    for a fixed seed. An empty point set yields (0.0, 0.0).

    Samples are drawn in chunks and held as an (m, chunk) array, one
    C-contiguous row per coordinate, so that every comparison runs along the
    long sample axis. Each chunk is tested against blocks of `MC_POINT_BLOCK`
    points, largest box first, through (block, chunk) boolean buffers that
    every block reuses; a sample that hits is counted and dropped, and a chunk
    ends when no sample is left or the blocks run out. Chunks hold
    max(1, `MC_CHUNK_ELEMENTS` // (`MC_POINT_BLOCK` * m)) samples, so memory
    is O(`MC_CHUNK_ELEMENTS` + k * m) whatever k and `samples` are. Neither the
    chunk size, the layout nor the point order changes the sample stream or
    the hit count, so the result is the same as testing every sample against
    every point.
    """
    samples = as_count("samples", samples)
    seed = as_count("seed", seed, 0)
    arr, ra = _points_array(points, r)
    if arr.shape[0] == 0:
        return 0.0, 0.0
    hi = arr.max(axis=0)
    span = hi - ra
    box_volume = float(np.prod(span))
    if box_volume == 0.0:
        return 0.0, 0.0
    # Largest boxes first, so most samples that hit are retired by the first block.
    order = np.argsort(-np.prod(arr - ra, axis=1), kind="stable")
    blocks = [
        arr[order[start : start + MC_POINT_BLOCK]]
        for start in range(0, arr.shape[0], MC_POINT_BLOCK)
    ]
    m = ra.size
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    chunk = max(1, MC_CHUNK_ELEMENTS // (MC_POINT_BLOCK * m))
    # Every block's (points, samples) test and its comparison of one further
    # coordinate reuse one allocation, so its pages fault in once per call
    # (two separate ones fault in on every call under glibc's allocator).
    size = min(chunk, samples) * min(MC_POINT_BLOCK, arr.shape[0])
    buffer = np.empty(size * min(m, 2), dtype=bool)
    test_buffer, coordinate_buffer = buffer[:size], buffer[size:]
    while remaining > 0:
        take = min(chunk, remaining)
        # (m, take), one C-contiguous row per coordinate: the same multiply
        # and add as ra + u * span, so every sample keeps its bits.
        q = np.multiply(rng.random((take, m)).T, span[:, None], order="C")
        q += ra[:, None]
        for block in blocks:
            shape = (block.shape[0], q.shape[1])
            test = test_buffer[: shape[0] * shape[1]].reshape(shape)
            np.greater_equal(block[:, :1], q[0], out=test)
            for j in range(1, m):
                coordinate = coordinate_buffer[: test.size].reshape(shape)
                test &= np.greater_equal(block[:, j : j + 1], q[j], out=coordinate)
            inside = np.logical_or.reduce(test, axis=0)
            hits += int(np.count_nonzero(inside))
            q = np.compress(~inside, q, axis=1)  # stays C-contiguous, unlike q[:, ~inside]
            if q.shape[1] == 0:
                break
        remaining -= take
    fraction = hits / samples
    estimate = fraction * box_volume
    stderr = box_volume * math.sqrt(fraction * (1.0 - fraction) / samples)
    return estimate, stderr


@dataclass(frozen=True)
class HVConfig:
    """Configuration for net-hypervolume scoring.

    reference: coordinates of the reference point, all <= 0 and with
    2 * prod(1 - r) finite; None means -1 in every dimension. alpha:
    perception factor in [-1, 1] applied to the hesitancy-space hypervolume.
    tie_tolerance: absolute tolerance used when grouping equal ranking scores.
    """

    reference: tuple[float, ...] | None = None
    alpha: float = 0.0
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE

    def __post_init__(self) -> None:
        if self.reference is not None:
            if not isinstance(self.reference, (Sequence, np.ndarray)):
                raise DomainError(
                    f"reference must be a sequence of numbers, got {self.reference!r}"
                )
            ref = tuple(as_float("reference", c) for c in self.reference)
            if len(ref) == 0:
                raise DomainError("reference must have at least one coordinate")
            if any(not math.isfinite(c) for c in ref):
                raise DomainError("reference coordinates must be finite")
            if any(c > 0.0 for c in ref):
                raise DomainError("reference coordinates must be <= 0")
            # each space's hypervolume lies in [0, prod(1 - r)], so |hv_net| <= 2 prod(1 - r)
            if not math.isfinite(2.0 * math.prod(1.0 - c for c in ref)):
                raise DomainError(
                    "net hypervolumes against this reference can exceed the float range: "
                    "2 * prod(1 - r) overflows"
                )
            object.__setattr__(self, "reference", ref)
        alpha = as_float("alpha", self.alpha)
        if not -1.0 <= alpha <= 1.0:
            raise DomainError(f"alpha must lie in [-1, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tie_tolerance", check_tie_tolerance(self.tie_tolerance))

    def reference_for(self, m: int) -> tuple[float, ...]:
        """Concrete reference coordinates for an m-dimensional space."""
        if self.reference is None:
            return (DEFAULT_REFERENCE_COORD,) * m
        if len(self.reference) != m:
            raise MismatchError(
                f"reference has {len(self.reference)} coordinates but the IFS has {m} elements"
            )
        return self.reference


@dataclass(frozen=True)
class HVNetResult:
    """Per-space hypervolumes of one IFS and their combination."""

    hv_mu: float
    hv_nu: float
    hv_pi: float
    hv_net: float

    def to_dict(self) -> dict:
        return {
            "hv_mu": self.hv_mu,
            "hv_nu": self.hv_nu,
            "hv_pi": self.hv_pi,
            "hv_net": self.hv_net,
        }


def _hv_spaces(mu: np.ndarray, nu: np.ndarray, cfg: HVConfig):
    """(hv_mu, hv_nu, hv_pi, hv_net) arrays over the columns of (m, n) mu and
    nu arrays, each column an IFS of length m. DomainError when any value is
    beyond the float range, which a product of many coordinates above 1 can be
    against the default reference (1.9 ** 1200 is)."""
    reference = np.array(cfg.reference_for(mu.shape[0]))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        hv_mu = np.prod(mu - reference, axis=0)
        hv_nu = np.prod(nu - reference, axis=0)
        hv_pi = np.prod((1.0 - mu - nu) - reference, axis=0)
        spaces = hv_mu, hv_nu, hv_pi, hv_mu - hv_nu - cfg.alpha * hv_pi
    if not np.isfinite(spaces).all():
        raise DomainError(
            f"hypervolumes over {mu.shape[0]} coordinates against this reference "
            "exceed the float range"
        )
    return spaces


def hv_net(x: IFS, config: HVConfig | None = None) -> HVNetResult:
    """Net hypervolume of one IFS: hv_mu - hv_nu - alpha * hv_pi.

    Each space contributes the single-point hypervolume of its value vector
    against the configured reference.
    """
    cfg = config if config is not None else HVConfig()
    spaces = _hv_spaces(x.mu_values()[:, None], x.nu_values()[:, None], cfg)
    return HVNetResult(*(float(values[0]) for values in spaces))
