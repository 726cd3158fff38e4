"""Hypothesis property of the problem-file reader: a document with one
mutation either parses or is rejected with an error that names its source,
and reading it from a file (`parse_problem`, which compacts objects of
[mu, nu] pairs as they are decoded) and from the decoded dict
(`problem_from_dict`) gives the same problem or the same error."""

import copy
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ifhv import ParseError, parse_problem, problem_from_dict, serialize_problem  # noqa: E402
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


def _outcome(read):
    """The problem read, or the type and message of the ParseError raised."""
    try:
        return read()
    except ParseError as exc:  # ValidationError and VersionError included
        return type(exc), str(exc)


def _both_readings(text: str, directory) -> tuple:
    """The outcome of reading `text` from a file named SOURCE, and of reading
    its decoded dict."""
    path = directory / SOURCE
    path.write_text(text, encoding="utf-8")
    from_file = _outcome(lambda: parse_problem(path))
    from_dict = _outcome(lambda: problem_from_dict(json.loads(text), source=SOURCE))
    return from_file, from_dict


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(doc=mutated_documents())
def test_one_mutation_parses_or_names_its_source(fuzz_dir, doc):
    from_file, from_dict = _both_readings(json.dumps(doc), fuzz_dir)
    assert from_file == from_dict
    if isinstance(from_dict, tuple):
        assert from_dict[1].startswith(SOURCE), from_dict


def _table1_edited(edit):
    doc = copy.deepcopy(DOCUMENTS[0])
    edit(doc)
    return doc


PAIRS = {"X1": [0.1, 0.2], "X2": [0, 1]}
# Documents that put an object of [mu, nu] pairs, which the file reader
# compacts, where another value belongs, and cells the compaction must
# carry exactly.
EDGE_TEXTS = {
    "top level": json.dumps(PAIRS),
    "alternatives": json.dumps(_table1_edited(lambda doc: doc.update(alternatives=PAIRS))),
    "evaluations": json.dumps(_table1_edited(lambda doc: doc.update(evaluations=PAIRS))),
    "importance": json.dumps(_table1_edited(lambda doc: doc.update(importance=PAIRS))),
    "criteria entry": json.dumps(_table1_edited(lambda doc: doc["criteria"].__setitem__(0, PAIRS))),
    "evaluation dm": json.dumps(
        _table1_edited(lambda doc: doc["evaluations"].update(dm1={"c1": [0.1, 0.2]}))
    ),
    "expertise dm": json.dumps(
        _table1_edited(lambda doc: doc["expertise"].update(dm1={"c1": [1, 0], "c2": [0, 1]}))
    ),
    "expertise weight": json.dumps(
        _table1_edited(lambda doc: doc["expertise"]["dm1"].update(c1=[PAIRS]))
    ),
    "row in another order": json.dumps(
        _table1_edited(
            lambda doc: doc["evaluations"]["dm1"].update(
                c2={"X3": [0.6, 0.3], "X1": [0.1, 0.2], "X2": [0.4, 0.4]}
            )
        )
    ),
    "integer cells": json.dumps(
        _table1_edited(
            lambda doc: doc["evaluations"]["dm1"]["c1"].update(X1=[0, 1], X2=[1, 0], X3=[0, 0])
        )
    ),
    "integer importance": json.dumps(
        _table1_edited(lambda doc: doc["importance"]["dm1"].update(c2=[1, 0]))
    ),
    "integer beyond the float range": json.dumps(
        _table1_edited(lambda doc: doc["evaluations"]["dm1"]["c2"].update(X2=[10**400, 0]))
    ),
    "float beyond the float range": json.dumps(
        _table1_edited(lambda doc: doc["evaluations"]["dm1"]["c2"].update(X2=[0.5, 0.1]))
    ).replace("[0.5, 0.1]", "[1e400, 0.1]"),
}


@pytest.mark.parametrize("name", sorted(EDGE_TEXTS))
def test_file_and_dict_readings_agree_on_edge_documents(tmp_path, name):
    from_file, from_dict = _both_readings(EDGE_TEXTS[name], tmp_path)
    assert from_file == from_dict
    if name in ("row in another order", "integer cells", "integer importance"):
        assert not isinstance(from_dict, tuple), from_dict
    else:
        assert isinstance(from_dict, tuple), from_dict
