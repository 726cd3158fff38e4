"""Hypothesis properties of the exact hypervolume `hv_set` and of its Monte
Carlo cross-check `mc_oracle`."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import ifhv.hypervolume as hypervolume  # noqa: E402
from ifhv import hv_inclusion_exclusion, hv_set, mc_oracle  # noqa: E402
from test_hypervolume import mc_reference  # noqa: E402

# Coordinates on a coarse grid as well as anywhere in [0, 1], so that ties,
# repeated rows and points on the zero reference are common.
coordinate = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_sets(draw, max_points, max_dimension=8):
    m = draw(st.integers(1, max_dimension))
    k = draw(st.integers(1, max_points))
    rows = draw(st.lists(st.lists(coordinate, min_size=m, max_size=m), min_size=k, max_size=k))
    return np.array(rows)


derandomized = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@derandomized
@given(point_sets(max_points=20), st.randoms(use_true_random=False))
def test_point_order_does_not_matter(points, random):
    order = list(range(len(points)))
    random.shuffle(order)
    r = np.zeros(points.shape[1])
    assert hv_set(points[order], r) == pytest.approx(hv_set(points, r), rel=1e-12, abs=1e-15)


@derandomized
@given(point_sets(max_points=20), st.data())
def test_adding_a_point_never_shrinks_the_volume(points, data):
    extra = data.draw(st.lists(coordinate, min_size=points.shape[1], max_size=points.shape[1]))
    r = np.zeros(points.shape[1])
    value = hv_set(points, r)
    assert hv_set(np.vstack([points, extra]), r) >= value * (1.0 - 1e-12)


@derandomized
@given(point_sets(max_points=8))
def test_agrees_with_inclusion_exclusion(points):
    r = np.full(points.shape[1], -0.5)
    assert hv_set(points, r) == pytest.approx(hv_inclusion_exclusion(points, r), rel=1e-9, abs=1e-9)


@derandomized
@given(point_sets(max_points=20), st.sampled_from([1, 2, 3]))
def test_sweep_blocks_keep_every_bit(points, rows):
    # HV3D reads PARETO_BLOCK_ELEMENTS // 120 rows a block
    r = np.zeros(points.shape[1])
    expected = hv_set(points, r).hex()
    with mock.patch.object(hypervolume, "PARETO_BLOCK_ELEMENTS", 120 * rows):
        assert hv_set(points, r).hex() == expected


@st.composite
def oracle_cases(draw):
    """A point set, a reference, and patched block and chunk caps with a sample
    count on either side of a few chunk boundaries."""
    m = draw(st.integers(1, 6))
    k = draw(st.one_of(st.integers(1, 300), st.sampled_from([63, 64, 65, 128, 129])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # grid coordinates tie box volumes and repeat rows
    points = rng.integers(0, 4, (k, m)) / 3.0 if draw(st.booleans()) else rng.random((k, m))
    reference = draw(st.sampled_from(["zero", "below", "on"]))
    if reference == "on":  # every coordinate of the reference is some point's
        r = points.min(axis=0)
    else:
        r = np.full(m, 0.0 if reference == "zero" else -0.5)
    block = draw(st.sampled_from([1, 3, 64]))
    cap = draw(st.sampled_from([1, 50, hypervolume.MC_CHUNK_ELEMENTS]))
    chunk = max(1, cap // (block * m))
    samples = draw(st.integers(1, min(600, 3 * chunk + 1)))
    return points, r, block, cap, samples


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(oracle_cases())
def test_oracle_is_bit_equal_to_all_points_reference(case):
    points, r, block, cap, samples = case
    expected = mc_reference(points, r, samples, seed=samples)
    with (
        mock.patch.object(hypervolume, "MC_POINT_BLOCK", block),
        mock.patch.object(hypervolume, "MC_CHUNK_ELEMENTS", cap),
    ):
        assert mc_oracle(points, r, samples=samples, seed=samples) == expected
