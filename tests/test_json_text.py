"""`report.json_text` writes the bytes of `json.dumps(obj, indent=2)`."""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ifhv.report import json_text  # noqa: E402


class Mapping(dict):
    """A dict subclass: json encodes it as an object."""


# Strings that contain the writer's raw separators, JSON syntax, escapes and
# non-ASCII text.
TRICKY = ["],\x00", ":\x01{", "},\x00{", '"', "\\", '\\"', "\n", "é", " ", "😀", ""]

strings = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**30, -(10**40), 0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320]),
    st.floats(),
    strings,
)
keys = st.one_of(strings, st.integers(), st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(strings, children, max_size=4).map(Mapping),
    )


documents = st.recursive(scalars, containers, max_leaves=24)
# Containers of non-empty same-kind containers of scalars, the shape the
# writer encodes in one call, mixed with a few that only look like it.
flat = st.one_of(
    st.dictionaries(keys, scalars, min_size=1, max_size=4),
    st.dictionaries(strings, scalars, min_size=1, max_size=3).map(Mapping),
    st.lists(scalars, min_size=1, max_size=4),
    st.lists(scalars, min_size=1, max_size=3).map(tuple),
    st.lists(scalars, max_size=1),
)
two_level = st.one_of(
    st.lists(flat, min_size=1, max_size=4),
    st.dictionaries(keys, flat, min_size=1, max_size=4),
    st.lists(flat, min_size=1, max_size=3).map(tuple),
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.one_of(documents, two_level, containers(two_level)))
def test_same_bytes_as_json_dumps_indent2(document):
    assert json_text(document) == json.dumps(document, indent=2)


@pytest.mark.parametrize(
    "document",
    [
        {"components": {"X1": {"hv_mu": 0.5, "hv_net": -0.0}, "X2": {"hv_mu": math.nan}}},
        {"order": [["X1"], ["X2", "X3"]], "scores": {"X1": math.inf, "X2": -math.inf}},
        [{"a": "},\x00"}, {"b": ":\x01{"}],
        {"a": [[]], "b": [{}], "c": {"d": {}}, "e": ()},
        {1: {2.5: [True, 1]}, None: [False, 0], "k": Mapping(x=[1, [2]])},
    ],
)
def test_report_shapes(document):
    assert json_text(document) == json.dumps(document, indent=2)
