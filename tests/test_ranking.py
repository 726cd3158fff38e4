"""`build_ranking` and `RankingResult`: tie groups, orientation, input checks."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ifhv import IFS, DistanceMeasure, DomainError, MeasureKind, hamming  # noqa: E402
from ifhv.ranking import RankingResult, _tie_groups, build_ranking  # noqa: E402
from ifhv.robustness import ReferenceKind, rank_by_reference  # noqa: E402


def reference_ranking(labels, scores, higher_is_better, tie_tolerance):
    """(order, scores) by a Python sort and a walk that compares each score
    with its group's first member: the definition `build_ranking` keeps."""
    sign = -1.0 if higher_is_better else 1.0
    indices = sorted(range(len(labels)), key=lambda i: (sign * float(scores[i]), i))
    groups: list[list[int]] = []
    head = None
    for i in indices:
        value = float(scores[i])
        if head is not None and abs(value - head) <= tie_tolerance:
            groups[-1].append(i)
        else:
            groups.append([i])
            head = value
    order = tuple(tuple(labels[i] for i in sorted(group)) for group in groups)
    return order, {label: float(value) for label, value in zip(labels, scores)}


TOLERANCES = (0.0, 1e-9, 0.05)


@st.composite
def score_lists(draw):
    """Scores with exact ties, +-0.0, and chains of gaps just under, at and
    just over the tolerance, in any input order."""
    tolerance = draw(st.sampled_from(TOLERANCES))
    values: list[float] = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.integers(0, 3)) if values else 0
        if kind == 0:
            value = draw(st.sampled_from([0.0, -0.0, 0.25, -0.5, 1.0]))
        elif kind == 1:
            value = draw(st.floats(-2.0, 2.0, allow_nan=False))
        elif kind == 2:
            step = draw(st.sampled_from([0.6, 0.999999, 1.0, 1.000001]))
            gap = 6e-10 if tolerance == 0.0 else step * tolerance
            value = values[-1] + draw(st.sampled_from([gap, -gap]))
        else:
            value = draw(st.sampled_from(values))  # an exact tie
        values.append(value)
    return draw(st.permutations(values)), tolerance


derandomized = settings(derandomize=True, database=None, max_examples=400, deadline=None)


@derandomized
@given(score_lists(), st.booleans())
def test_matches_the_sorted_reference(case, higher_is_better):
    scores, tolerance = case
    labels = [f"X{i + 1}" for i in range(len(scores))]
    order, expected_scores = reference_ranking(labels, scores, higher_is_better, tolerance)
    for given_scores in (scores, np.array(scores)):
        result = build_ranking("m", labels, given_scores, higher_is_better, tolerance)
        assert result.order == order
        # repr tells -0.0 from 0.0
        assert {k: repr(v) for k, v in result.scores.items()} == {
            k: repr(v) for k, v in expected_scores.items()
        }


def test_group_is_measured_from_its_first_member():
    result = build_ranking("m", ["a", "b", "c", "d"], [0.0, 0.6, 1.2, 1.8], tie_tolerance=1.0)
    assert result.order == (("c", "d"), ("a", "b"))


@derandomized
@given(score_lists(), st.booleans())
def test_tie_groups_are_the_order_of_the_ranking(case, higher_is_better):
    scores, tolerance = case
    labels = [f"X{i + 1}" for i in range(len(scores))]
    values, groups = _tie_groups(labels, scores, higher_is_better, tolerance)
    order = build_ranking("m", labels, scores, higher_is_better, tolerance).order
    assert values.tolist() == [float(x) for x in scores]
    assert order == tuple(
        tuple(labels[i] for i in np.flatnonzero(groups == g)) for g in range(groups.max() + 1)
    )


@pytest.mark.parametrize(
    "echo, tolerance, expected",
    [
        (None, None, {"tie_tolerance": 1e-9}),
        ({"k": "v"}, 0, {"k": "v", "tie_tolerance": 0.0}),
        ({"k": "v"}, np.float32(0.25), {"k": "v", "tie_tolerance": 0.25}),
    ],
    ids=["no-echo-default", "int", "float32"],
)
def test_the_echo_ends_with_the_tolerance_grouped_with(echo, tolerance, expected):
    kwargs = {} if tolerance is None else {"tie_tolerance": tolerance}
    result = build_ranking("m", ["a"], [0.0], config_echo=echo, **kwargs)
    assert list(result.config_echo.items()) == list(expected.items())
    assert type(result.config_echo["tie_tolerance"]) is float
    assert result.to_dict()["config"] == expected


def test_rank_by_reference_echoes_a_float_tolerance_last():
    sets = [IFS.from_pairs([(0.2, 0.3)]), IFS.from_pairs([(0.4, 0.1)])]
    echo = rank_by_reference(sets, hamming, ReferenceKind.NIS, tie_tolerance=0).config_echo
    assert list(echo.items()) == [
        ("measure", "hamming"), ("reference", "NIS"), ("tie_tolerance", 0.0)
    ]
    assert type(echo["tie_tolerance"]) is float


@pytest.mark.parametrize("higher_is_better, groups", [(False, [0, 0, 1]), (True, [1, 0, 0])])
def test_a_chain_of_near_ties_is_grouped_from_its_best_end(higher_is_better, groups):
    # Gaps of 0.6 under a tolerance of 1: the best score heads the first group
    # and the third score, 1.2 from it, starts the next one.
    _, got = _tie_groups(["a", "b", "c"], [0.0, 0.6, 1.2], higher_is_better, 1.0)
    assert got.tolist() == groups


@pytest.mark.parametrize(
    "scores, label",
    [
        ([math.nan, 0.5, 0.7], "a"),
        ([0.5, math.nan, 0.7], "b"),
        ([0.5, 0.7, math.inf], "c"),
        ([0.5, -math.inf, math.nan], "b"),
    ],
)
def test_non_finite_score_is_rejected(scores, label):
    with pytest.raises(DomainError, match=f"score of '{label}' is not finite"):
        build_ranking("m", ["a", "b", "c"], scores)


def test_non_finite_distance_from_a_plugin_is_rejected():
    measure = DistanceMeasure("nan-plugin", MeasureKind.NONLINEAR, _func=lambda a, b: math.nan)
    sets = [IFS.from_pairs([(0.2, 0.3)]), IFS.from_pairs([(0.4, 0.1)])]
    with pytest.raises(DomainError, match="^distance measure 'nan-plugin' returned nan;"):
        rank_by_reference(sets, measure, ReferenceKind.PIS)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_bad_tie_tolerance_is_rejected(tolerance):
    with pytest.raises(DomainError, match="tie_tolerance"):
        build_ranking("m", ["a", "b"], [0.5, 0.5], tie_tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
def test_bad_tie_tolerance_is_rejected_by_rank_by_reference(tolerance):
    same = [IFS.from_pairs([(0.2, 0.3)]), IFS.from_pairs([(0.2, 0.3)])]
    with pytest.raises(DomainError, match="tie_tolerance"):
        rank_by_reference(same, hamming, ReferenceKind.PIS, tie_tolerance=tolerance)


@pytest.mark.parametrize(
    "order",
    [
        (("a", "b"), ("a",)),  # a label listed twice
        (("a",),),  # a label missing
        (("a", "b", "c"),),  # a label without a score
        (("a", "a"),),  # right length, one label twice
    ],
)
def test_order_must_partition_the_scores(order):
    with pytest.raises(DomainError, match="partition"):
        RankingResult(method="m", scores={"a": 1.0, "b": 0.5}, order=order)
