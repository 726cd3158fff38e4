"""Hypothesis property of the problem-file reader: a document with one
mutation either parses or is rejected with an error that names its source."""

import copy
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ifhv import ParseError, problem_from_dict, serialize_problem  # noqa: E402
from ifhv.fixtures import table1_path  # noqa: E402
from gen import random_problem  # noqa: E402

SOURCE = "fuzz.problem"
DOCUMENTS = (
    json.loads(table1_path().read_text(encoding="utf-8")),
    serialize_problem(random_problem(np.random.default_rng(81), 4, 3, 2)),
)
# Other JSON types, non-finite and out-of-range numbers, and ids that repeat
# one already in the documents.
REPLACEMENTS = (
    None, True, "text", "X1", "c1", "dm1", "A2", 0, 1, 2, -1, 0.5, -0.5, 1.5,
    float("nan"), float("inf"), 1e308, 10**400, [], [0.5], [0.5, 0.2, 0.1], ["0.5", 0.2],
    {}, {"X1": [0.1, 0.2]},
)
NEW_KEYS = ("extra", "X9", "c9", "dm9", "schema_version")


def _locations(node, at=()):
    """The key path of every value inside a decoded document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from _locations(value, at + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    *parents, key = draw(st.sampled_from(list(_locations(doc))))
    parent = doc
    for step in parents:
        parent = parent[step]
    mutation = draw(st.sampled_from(("drop", "add", "replace")))
    if mutation == "drop":
        del parent[key]
    elif mutation == "add" and isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))  # in an id list, a duplicate id
    elif mutation == "add":
        parent.setdefault(draw(st.sampled_from(NEW_KEYS)), copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    return doc


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(mutated_documents())
def test_one_mutation_parses_or_names_its_source(doc):
    try:
        problem_from_dict(doc, source=SOURCE)
    except ParseError as exc:  # ValidationError and VersionError included
        assert str(exc).startswith(SOURCE), exc
