"""Distance measures between equal-length intuitionistic fuzzy sets.

Built-in measures, all normalized to [0, 1] over IFS of length n:

    hamming      (1/(2n)) * sum_i (|dmu_i| + |dnu_i|)
    euclidean2   sqrt((1/(2n)) * sum_i (dmu_i^2 + dnu_i^2))
    euclidean3   sqrt((1/(2n)) * sum_i (dmu_i^2 + dnu_i^2 + dpi_i^2))
    hausdorff    (1/n) * sum_i max(|dmu_i|, |dnu_i|)

where dmu_i, dnu_i, dpi_i are per-element differences of membership,
non-membership, and hesitancy. Hamming is the only linear one: it satisfies
d(A, PIS-sequence) + d(A, NIS-sequence) = 1 for every IFS A, which is what
makes rankings against either ideal point agree.

Additional measures can be registered by name through `register`, which is
how literature measures whose formulas live elsewhere are plugged in.
`check_axioms` probes any measure for the metric axioms (symmetry, identity
of indiscernibles, triangle inequality) on seeded random triples.

The batch kernels compute in place on the two difference arrays that
`DistanceMeasure._evaluate_into` writes for them, so a kernel call allocates
at most one temporary of the input's size (euclidean3's hesitancy
difference). `check_axioms` draws its triples and writes those differences
into work arrays kept for the whole call. Each step keeps its operation
order, so every distance has the bits it had when the kernels allocated a
temporary per step.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MismatchError, as_count
from .ifs import IFS, check_pairs

AXIOM_TOLERANCE = 1e-9

# Random rows drawn and checked at a time by `check_axioms` and the
# robustness audit, so their memory stays flat in the sample count.
SAMPLE_CHUNK = 2**14

# A batch kernel maps per-element difference arrays (dmu, dnu) of shape
# (..., n) to the distances of shape (...), reducing the last axis. Both
# arrays have the full broadcast shape and belong to the call, so a kernel may
# overwrite them, and the built-in ones do: they work in place.
BatchKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


class MeasureKind(enum.Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class DistanceMeasure:
    """A named distance over equal-length IFS pairs.

    Built-in measures carry a vectorized batch kernel; plugin measures wrap a
    plain (IFS, IFS) -> float callable, which `evaluate_many` calls once per
    pair.
    """

    name: str
    kind: MeasureKind
    _kernel: BatchKernel | None = None
    _func: Callable[[IFS, IFS], float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DomainError(f"a measure name must be a non-empty string, got {self.name!r}")
        if not isinstance(self.kind, MeasureKind):
            raise DomainError(
                f"measure '{self.name}': kind must be a MeasureKind, got {self.kind!r}"
            )
        if (self._kernel is None) == (self._func is None):
            raise DomainError("a DistanceMeasure needs exactly one of kernel or function")
        compute = self._func if self._kernel is None else self._kernel
        if not callable(compute):
            raise DomainError(
                f"measure '{self.name}': the kernel or function must be callable, got {compute!r}"
            )

    def __call__(self, a: IFS, b: IFS) -> float:
        return self.evaluate(a, b)

    def evaluate(self, a: IFS, b: IFS) -> float:
        """Distance between two IFS of equal length."""
        if len(a) != len(b):
            raise MismatchError(
                f"{self.name}: IFS lengths differ ({len(a)} vs {len(b)})"
            )
        return float(
            self.evaluate_many(a.mu_values(), a.nu_values(), b.mu_values(), b.nu_values())
        )

    def pair_many(self, a_mu, a_nu, b_mu, b_nu) -> np.ndarray:
        """Distances between corresponding single-element sets: `evaluate_many`
        on a trailing element axis of length 1."""
        return self.evaluate_many(
            *(np.asarray(x, float)[..., None] for x in (a_mu, a_nu, b_mu, b_nu))
        )

    def evaluate_many(self, a_mu, a_nu, b_mu, b_nu) -> np.ndarray:
        """Distances between IFS pairs given as (..., n) arrays.

        The last axis holds the n elements of a set; the other axes
        broadcast, and the result has their broadcast shape.

        A plugin function gets each pair as two IFS. All pairs of the call
        are checked in bulk by one `ifs.check_pairs`, which raises IFN's
        own error for the first bad pair in the order pair by pair, a's
        elements before b's, and clamps nu as IFN does. The sets are then
        built without checking each IFN again, one pair per plugin call. A
        result that is not finite raises DomainError naming the measure.
        """
        a_mu, a_nu = np.asarray(a_mu, float), np.asarray(a_nu, float)
        b_mu, b_nu = np.asarray(b_mu, float), np.asarray(b_nu, float)
        shape = np.broadcast_shapes(a_mu.shape, a_nu.shape, b_mu.shape, b_nu.shape)
        if self._kernel is not None:
            return self._evaluate_into(np.empty(shape), np.empty(shape), a_mu, a_nu, b_mu, b_nu)
        rows, n = math.prod(shape[:-1]), shape[-1]
        if rows and not n:
            IFS(())  # raises: a set needs at least one element
        # (rows, 2, n): each pair's a row before its b row, so check_pairs
        # meets a bad pair in the order the plugin would have received it
        mu, nu = (
            np.stack([np.broadcast_to(a, shape), np.broadcast_to(b, shape)], axis=-2)
            .reshape(rows, 2, n)
            for a, b in ((a_mu, b_mu), (a_nu, b_nu))
        )
        nu = check_pairs(mu, nu)
        pairs = (
            (IFS._from_checked(m[0], v[0]), IFS._from_checked(m[1], v[1]))
            for m, v in zip(map(np.ndarray.tolist, mu), map(np.ndarray.tolist, nu))
        )
        out = np.fromiter((self._func(a, b) for a, b in pairs), float, rows)
        finite = np.isfinite(out)
        if not finite.all():
            raise DomainError(
                f"distance measure '{self.name}' returned {out[np.argmin(finite)]}; "
                "a distance must be finite"
            )
        return out.reshape(shape[:-1])

    def _evaluate_into(self, dmu, dnu, a_mu, a_nu, b_mu, b_nu) -> np.ndarray:
        """`evaluate_many` with the kernel's difference arrays supplied: the
        one rule by which a kernel is called.

        `dmu` and `dnu` are float arrays of the broadcast shape of the four
        inputs. They receive a - b and the kernel may overwrite them, so they
        must not alias an input. A plugin measure leaves them untouched.
        """
        if self._kernel is None:
            return self.evaluate_many(a_mu, a_nu, b_mu, b_nu)
        np.subtract(a_mu, b_mu, out=dmu)
        np.subtract(a_nu, b_nu, out=dnu)
        return np.asarray(self._kernel(dmu, dnu))


def _mean_last(x: np.ndarray) -> np.ndarray:
    """`np.mean(x, axis=-1)` of a float array, bit for bit.

    Over fewer than 8 elements numpy's pairwise sum adds strictly left to
    right from 0.0, so the columns are added in that order here, without
    the reduction's set-up cost, which dominates on the short element axes
    the kernels see. From 8 elements on numpy's order differs, so longer
    axes, empty ones and 0-d input go to `np.mean` itself.
    """
    n = x.shape[-1] if x.ndim else 0
    if not 0 < n < 8:
        return np.mean(x, axis=-1)
    total = x[..., 0] + 0.0  # numpy's start, which also turns -0.0 into 0.0
    for j in range(1, n):
        total += x[..., j]
    if n > 1:
        total /= n
    return total


# Each kernel works in place in its formula's operation order: 0.5 * (|dmu| +
# |dnu|) is |dmu|, then |dnu|, their sum, then the product with 0.5. So every
# distance keeps the bits of the formula computed with a temporary per step.


def _hamming_kernel(dmu: np.ndarray, dnu: np.ndarray) -> np.ndarray:
    dmu = np.abs(dmu, out=dmu)
    dmu += np.abs(dnu, out=dnu)
    dmu *= 0.5
    return _mean_last(dmu)


def _euclidean2_kernel(dmu: np.ndarray, dnu: np.ndarray) -> np.ndarray:
    dmu *= dmu
    dnu *= dnu
    dmu += dnu
    dmu *= 0.5
    return np.sqrt(_mean_last(dmu))


def _euclidean3_kernel(dmu: np.ndarray, dnu: np.ndarray) -> np.ndarray:
    # the hesitancy difference is -(dmu + dnu), whose square needs no sign
    dpi = dmu + dnu
    dpi *= dpi
    dmu *= dmu
    dnu *= dnu
    dmu += dnu
    dmu += dpi
    dmu *= 0.5
    return np.sqrt(_mean_last(dmu))


def _hausdorff_kernel(dmu: np.ndarray, dnu: np.ndarray) -> np.ndarray:
    dmu = np.maximum(np.abs(dmu, out=dmu), np.abs(dnu, out=dnu), out=dmu)
    return _mean_last(dmu)


hamming = DistanceMeasure("hamming", MeasureKind.LINEAR, _hamming_kernel)
euclidean2 = DistanceMeasure("euclidean2", MeasureKind.NONLINEAR, _euclidean2_kernel)
euclidean3 = DistanceMeasure("euclidean3", MeasureKind.NONLINEAR, _euclidean3_kernel)
hausdorff = DistanceMeasure("hausdorff", MeasureKind.NONLINEAR, _hausdorff_kernel)

BUILTIN_MEASURES = (hamming, euclidean2, euclidean3, hausdorff)

_REGISTRY: dict[str, DistanceMeasure] = {}


def register(measure: DistanceMeasure) -> DistanceMeasure:
    """Register a measure for lookup by name. Names are single-assignment."""
    if measure.name in _REGISTRY:
        raise DomainError(f"distance measure '{measure.name}' is already registered")
    _REGISTRY[measure.name] = measure
    return measure


def register_function(
    name: str, func: Callable[[IFS, IFS], float], kind: MeasureKind = MeasureKind.NONLINEAR
) -> DistanceMeasure:
    """Wrap a plain (IFS, IFS) -> float callable and register it."""
    return register(DistanceMeasure(name, kind, None, func))


def require_measure(name: str, value) -> None:
    """DomainError naming `name` when `value` is not a DistanceMeasure, as a
    measure's registered name is not; `get_measure` looks one up."""
    if not isinstance(value, DistanceMeasure):
        raise DomainError(f"{name} must be a DistanceMeasure, got {value!r}")


def get_measure(name: str) -> DistanceMeasure:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise DomainError(
            f"unknown distance measure '{name}'; available: {', '.join(available_measures())}"
        ) from None


def available_measures() -> tuple[str, ...]:
    return tuple(_REGISTRY)


for _m in BUILTIN_MEASURES:
    register(_m)
del _m


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete input triple on which a metric axiom failed."""

    axiom: str  # "symmetry" | "identity" | "triangle"
    sets: tuple[tuple[tuple[float, float], ...], ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class AxiomReport:
    measure: str
    samples: int
    seed: int
    symmetry_ok: bool
    identity_ok: bool
    triangle_ok: bool
    witnesses: tuple[AxiomWitness, ...] = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return self.symmetry_ok and self.identity_ok and self.triangle_ok

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "samples": self.samples,
            "seed": self.seed,
            "symmetry_ok": self.symmetry_ok,
            "identity_ok": self.identity_ok,
            "triangle_ok": self.triangle_ok,
            "witnesses": [
                {"axiom": w.axiom, "sets": [list(map(list, s)) for s in w.sets],
                 "values": list(w.values)}
                for w in self.witnesses
            ],
        }


def sample_simplex(
    rng: np.random.Generator, shape, *, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples from the valid region {mu, nu >= 0, mu + nu <= 1}.

    Draws mu, then nu, on the unit square and reflects the pairs whose sum
    is over 1 to (1 - mu, 1 - nu), in place as |over - x|. `rng.random`
    returns multiples of 2**-53 in [0, 1), so 1 - x is exact, and so is the
    reflected sum 2 - (mu + nu), a multiple of 2**-53 below 1. Every pair
    therefore sums to at most 1 in floats, and IFN takes it unchanged.

    `out`, a pair of float arrays of `shape`, receives the samples instead
    of two new arrays.
    """
    mu, nu = (np.empty(shape), np.empty(shape)) if out is None else out
    rng.random(out=mu)
    rng.random(out=nu)
    over = mu + nu > 1.0
    for x in (mu, nu):
        np.abs(np.subtract(over, x, out=x), out=x)
    return mu, nu


# At most this many examples are kept: axiom witnesses here, counterexamples
# in `robustness.audit`.
MAX_EXAMPLES = 10


def check_axioms(
    measure: DistanceMeasure,
    samples: int = 10_000,
    seed: int = 0,
    lengths: Sequence[int] = (1, 2, 3, 4),
) -> AxiomReport:
    """Probe the metric axioms on `samples` random IFS triples.

    Each triple (A, B, C) shares a random length drawn from `lengths`, a
    non-empty sequence of positive integers.
    Checks, to tolerance 1e-9: d(A, B) = d(B, A); d(A, A) = 0 with
    d(A, B) > 0 for distinct pairs; d(A, B) <= d(B, C) + d(A, C).
    Deterministic for a fixed seed. Collects at most 10 witnesses. Triples
    are drawn and checked in chunks of `SAMPLE_CHUNK`, grouped by length.
    Each group's triples and the kernel's difference arrays live in work
    arrays that every group of the call reuses: sized from the first chunk's
    largest group with a sixteenth to spare, and grown only when a later
    chunk's largest group needs more. So memory is O(`SAMPLE_CHUNK` x
    largest length) and flat in `samples`.
    """
    require_measure("measure", measure)
    samples = as_count("samples", samples)
    seed = as_count("seed", seed, 0)
    try:
        choices = np.array([operator.index(n) for n in lengths], dtype=int)
    except TypeError:
        choices = np.array([], dtype=int)
    if choices.size == 0 or choices.min() < 1:
        raise DomainError(
            f"lengths must be a non-empty sequence of positive integers, got {lengths!r}"
        )
    rng = np.random.default_rng(seed)
    holds = {"symmetry": True, "identity": True, "triangle": True}
    witnesses: list[AxiomWitness] = []
    work = np.empty(0)

    # Chunks draw their lengths, then each length group's triples, so one
    # chunk draws exactly what a single batch of the same size would.
    for start in range(0, samples, SAMPLE_CHUNK):
        drawn = rng.choice(choices, size=min(SAMPLE_CHUNK, samples - start))
        groups = np.unique(drawn, return_counts=True)
        need = 8 * int(np.max(groups[0] * groups[1]))
        if work.size < need:
            # a sixteenth more, so that the next chunks' groups, a little
            # larger by chance, rarely need new arrays
            work = np.empty(need + need // 16)
        for n, count in zip(*groups):
            size = int(count * n)
            a_mu, a_nu, b_mu, b_nu, c_mu, c_nu, dmu, dnu = (
                work[k * size:(k + 1) * size].reshape(count, n) for k in range(8)
            )
            a, b, c = (a_mu, a_nu), (b_mu, b_nu), (c_mu, c_nu)
            pairs, triple = (a, b), (a, b, c)
            for x in triple:
                sample_simplex(rng, (count, n), out=x)
            found = []
            for x, y in ((a, b), (b, a), (a, a), (b, c), (a, c)):
                d = measure._evaluate_into(dmu, dnu, *x, *y)
                # a kernel may return a view of dmu or dnu, which the next
                # distance overwrites
                found.append(d.copy() if np.may_share_memory(d, work) else d)
            d_ab, d_ba, d_aa, d_bc, d_ac = found

            # a row is distinct when any element's gap exceeds 1e-6: OR-ing
            # the n columns is cheaper than a max over the short last axis
            gap = np.abs(np.subtract(a_mu, b_mu, out=dmu), out=dmu)
            gap += np.abs(np.subtract(a_nu, b_nu, out=dnu), out=dnu)
            distinct = gap[:, 0] > 1e-6
            for j in range(1, n):
                distinct |= gap[:, j] > 1e-6
            identity_bad = (d_aa > AXIOM_TOLERANCE) | (distinct & (d_ab <= AXIOM_TOLERANCE))

            for axiom, bad, sets, values in (
                ("symmetry", np.abs(d_ab - d_ba) > AXIOM_TOLERANCE, pairs, (d_ab, d_ba)),
                ("identity", identity_bad, pairs, (d_aa, d_ab)),
                ("triangle", d_ab > d_bc + d_ac + AXIOM_TOLERANCE, triple, (d_ab, d_bc, d_ac)),
            ):
                if not np.any(bad):
                    continue
                holds[axiom] = False
                for i in np.flatnonzero(bad)[: MAX_EXAMPLES - len(witnesses)]:
                    points = tuple(
                        tuple((float(mu[i, j]), float(nu[i, j])) for j in range(n))
                        for mu, nu in sets
                    )
                    witnesses.append(
                        AxiomWitness(axiom, points, tuple(float(v[i]) for v in values))
                    )

    return AxiomReport(
        measure=measure.name,
        samples=samples,
        seed=seed,
        symmetry_ok=holds["symmetry"],
        identity_ok=holds["identity"],
        triangle_ok=holds["triangle"],
        witnesses=tuple(witnesses),
    )
