"""Tests for problem-file parsing, validation paths, and round-trips."""

import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ifhv import (
    IFN,
    CriterionKind,
    ParseError,
    ValidationError,
    VersionError,
    parse_problem,
    problem_from_dict,
    serialize_problem,
    write_problem,
)
from ifhv import hvas as hvas_mod
from ifhv import problemfile as problemfile_mod
from ifhv.fixtures import table1_path
from gen import random_problem


@pytest.fixture
def table1_doc():
    return json.loads(table1_path().read_text())


class TestParse:
    def test_bundled_fixture_parses(self):
        problem = parse_problem(table1_path())
        assert problem.alternatives == ("X1", "X2", "X3")
        assert [c.kind for c in problem.criteria] == [CriterionKind.BENEFIT] * 2
        assert problem.evaluations[0][0][0].mu == 0.2
        assert problem.evaluations[0][1][2].mu == 0.6
        assert problem.expertise_array.tolist() == [[1.0, 1.0]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_problem(tmp_path / "nope.problem")

    def test_json_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.problem"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ParseError, match=r":1:"):
            parse_problem(path)

    def test_pairs_checked_once_per_array(self, tmp_path, monkeypatch):
        # DecisionProblem.from_arrays is the one value check: one call for
        # the evaluations and one for the importance, whatever the DM count
        path = tmp_path / "three.problem"
        write_problem(random_problem(np.random.default_rng(5), 4, 3, n_dms=3), path)
        calls = []
        for module in (problemfile_mod, hvas_mod):
            original = module.check_pairs
            monkeypatch.setattr(
                module, "check_pairs", lambda *args, f=original: calls.append(1) or f(*args)
            )
        parse_problem(path)
        assert len(calls) == 2


class TestValidation:
    def test_invalid_ifn_cites_cell(self, table1_doc, tmp_path):
        table1_doc["evaluations"]["dm1"]["c1"]["X2"] = [0.7, 0.5]
        path = tmp_path / "bad.problem"
        path.write_text(json.dumps(table1_doc))
        with pytest.raises(ValidationError, match=r"evaluations\.dm1\.c1\.X2"):
            parse_problem(path)

    def test_missing_expertise_section(self, table1_doc):
        del table1_doc["expertise"]
        with pytest.raises(ValidationError, match="expertise"):
            problem_from_dict(table1_doc)

    def test_missing_alternative_cell(self, table1_doc):
        del table1_doc["evaluations"]["dm1"]["c2"]["X3"]
        with pytest.raises(ValidationError, match=r"evaluations\.dm1\.c2\.X3"):
            problem_from_dict(table1_doc)

    def test_unknown_criterion_kind(self, table1_doc):
        table1_doc["criteria"][0]["kind"] = "target"
        with pytest.raises(ValidationError, match="benefit"):
            problem_from_dict(table1_doc)

    def test_expertise_out_of_range(self, table1_doc):
        table1_doc["expertise"]["dm1"]["c1"] = 1.5
        with pytest.raises(ValidationError, match=r"expertise\.dm1\.c1"):
            problem_from_dict(table1_doc)

    def test_unsupported_version(self, table1_doc):
        table1_doc["schema_version"] = 99
        with pytest.raises(VersionError):
            problem_from_dict(table1_doc)

    def test_non_numeric_pair(self, table1_doc):
        table1_doc["importance"]["dm1"]["c1"] = ["high", 0.0]
        with pytest.raises(ValidationError, match=r"importance\.dm1\.c1"):
            problem_from_dict(table1_doc)

    def test_boolean_schema_version(self, table1_doc):
        table1_doc["schema_version"] = True
        with pytest.raises(ValidationError, match=r"^<problem>\.schema_version: expected int, got bool$"):
            problem_from_dict(table1_doc)

    @pytest.mark.parametrize("cell", [[True, 0.0], [0.5], [0.5, 0.2, 0.1], "0.5,0.2", None])
    def test_malformed_cell_cites_cell(self, table1_doc, cell):
        table1_doc["evaluations"]["dm1"]["c2"]["X3"] = cell
        with pytest.raises(
            ValidationError,
            match=r"^<problem>\.evaluations\.dm1\.c2\.X3: expected a \[mu, nu\] pair of numbers$",
        ):
            problem_from_dict(table1_doc)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ([1.5, 0.0], r"IFN components must lie in \[0, 1\], got \(1\.5, 0\.0\)"),
            ([float("nan"), 0.0], r"IFN components must be finite, got \(nan, 0\.0\)"),
            ([0.7, 0.5], r"IFN requires mu \+ nu <= 1, got 0\.7 \+ 0\.5 = 1\.2"),
        ],
    )
    def test_out_of_domain_cell_keeps_ifn_message(self, table1_doc, cell, message):
        table1_doc["evaluations"]["dm1"]["c1"]["X2"] = cell
        with pytest.raises(ValidationError, match=r"^<problem>\.evaluations\.dm1\.c1\.X2: " + message):
            problem_from_dict(table1_doc)

    def test_first_invalid_field_in_document_order(self, table1_doc):
        # importance of c1 comes before the evaluations of c2 in the walk
        table1_doc["evaluations"]["dm1"]["c2"]["X1"] = [0.9, 0.9]
        table1_doc["importance"]["dm1"]["c1"] = [2.0, 0.0]
        with pytest.raises(ValidationError, match=r"importance\.dm1\.c1:"):
            problem_from_dict(table1_doc)
        table1_doc["importance"]["dm1"]["c1"] = [1.0, 0.0]
        del table1_doc["evaluations"]["dm1"]["c1"]["X3"]
        with pytest.raises(ValidationError, match=r"evaluations\.dm1\.c1\.X3: missing alternative"):
            problem_from_dict(table1_doc)

    def test_first_invalid_field_across_decision_makers(self):
        doc = serialize_problem(random_problem(np.random.default_rng(3), 4, 3, n_dms=3))
        alternatives, ids = doc["alternatives"], [c["id"] for c in doc["criteria"]]
        dm2, dm3 = doc["dms"][1:]
        doc["expertise"][dm3][ids[0]] = -1.0
        doc["evaluations"][dm2][ids[2]][alternatives[1]] = [0.9, 0.9]
        doc["importance"][dm2][ids[1]] = "high"
        with pytest.raises(ValidationError, match=rf"^<problem>\.importance\.{dm2}\.{ids[1]}: "):
            problem_from_dict(doc)
        doc["importance"][dm2][ids[1]] = [1.0, 0.0]
        with pytest.raises(
            ValidationError, match=rf"^<problem>\.evaluations\.{dm2}\.{ids[2]}\.{alternatives[1]}: "
        ):
            problem_from_dict(doc)
        doc["evaluations"][dm2][ids[2]][alternatives[1]] = [0.5, 0.5]
        with pytest.raises(ValidationError, match=rf"^<problem>\.expertise\.{dm3}\.{ids[0]}: "):
            problem_from_dict(doc)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc, dm: doc["evaluations"].pop(dm),
            lambda doc, dm: doc["evaluations"].update({dm: []}),
            lambda doc, dm: doc["importance"].update({dm: "high"}),
        ],
        ids=["missing evaluations", "evaluations a list", "importance a string"],
    )
    def test_bad_value_of_first_dm_before_structure_of_second(self, edit):
        doc = serialize_problem(random_problem(np.random.default_rng(3), 4, 3, n_dms=3))
        alternatives, ids = doc["alternatives"], [c["id"] for c in doc["criteria"]]
        dm1, dm2 = doc["dms"][:2]
        doc["evaluations"][dm1][ids[1]][alternatives[2]] = [0.9, 0.9]
        edit(doc, dm2)
        with pytest.raises(
            ValidationError,
            match=rf"^<problem>\.evaluations\.{dm1}\.{ids[1]}\.{alternatives[2]}: "
            r"IFN requires mu \+ nu <= 1",
        ):
            problem_from_dict(doc)

    def test_overshoot_within_tolerance_is_clamped(self, table1_doc):
        table1_doc["evaluations"]["dm1"]["c1"]["X1"] = [0.7, 0.3 + 1e-12]
        problem = problem_from_dict(table1_doc)
        assert problem.evaluations[0][0][0] == IFN(0.7, 0.3 + 1e-12)
        assert problem.evaluation_array[0, 0, 0].tolist() == [0.7, 1.0 - 0.7]

    def test_integer_beyond_float_range(self, table1_doc):
        table1_doc["importance"]["dm1"]["c2"] = [10**400, 0]
        with pytest.raises(
            ValidationError, match=r"^<problem>\.importance\.dm1\.c2: expected a \[mu, nu\] pair"
        ):
            problem_from_dict(table1_doc)


def _put(section, *keys, value):
    """An edit that sets doc[section][keys...] to value."""

    def edit(doc):
        target = doc[section]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return edit


class TestStrict:
    @pytest.mark.parametrize(
        "edit, path, message",
        [
            (lambda doc: doc.update(bogus=1), "bogus", "unknown field"),
            (_put("evaluations", "dm9", value={}), "evaluations.dm9", "unknown decision maker"),
            (_put("importance", "dm9", value={}), "importance.dm9", "unknown decision maker"),
            (_put("expertise", "dm9", value={}), "expertise.dm9", "unknown decision maker"),
            (_put("evaluations", "dm1", "zz", value={}), "evaluations.dm1.zz", "unknown criterion"),
            (_put("importance", "dm1", "zz", value=[1, 0]), "importance.dm1.zz", "unknown criterion"),
            (_put("expertise", "dm1", "zz", value=1.0), "expertise.dm1.zz", "unknown criterion"),
            (
                _put("evaluations", "dm1", "c2", "X9", value=[0.1, 0.2]),
                "evaluations.dm1.c2.X9",
                "unknown alternative",
            ),
            (
                lambda doc: doc.update(alternatives=["X1", "X1", "X3"]),
                "alternatives",
                "duplicate id 'X1'",
            ),
            (_put("criteria", 1, "id", value="c1"), "criteria[1].id", "duplicate id 'c1'"),
            (_put("criteria", 0, "weight", value=2), "criteria[0].weight", "unknown field"),
            (lambda doc: doc.update(dms=["dm1", "dm1"]), "dms", "duplicate id 'dm1'"),
        ],
    )
    def test_rejection_cites_its_path(self, table1_doc, edit, path, message):
        edit(table1_doc)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'<problem>.{path}: {message}')}$"):
            problem_from_dict(table1_doc)

    def test_duplicate_json_key(self, tmp_path):
        path = tmp_path / "twice.problem"
        path.write_text(
            table1_path().read_text().replace('"c1": 1.0', '"c1": 1.0, "c1": 0.5'), encoding="utf-8"
        )
        with pytest.raises(ParseError, match=r"twice\.problem: duplicate key 'c1'$"):
            parse_problem(path)


class TestRoundTrip:
    def test_parse_serialize_identity_on_fixture(self):
        problem = parse_problem(table1_path())
        assert problem_from_dict(serialize_problem(problem)) == problem

    @pytest.mark.parametrize(
        "source", [table1_path(), Path(__file__).parent / "golden/inputs/seeded240.problem"]
    )
    def test_written_bytes_are_json_dumps_indent2(self, tmp_path, source):
        problem = parse_problem(source)
        write_problem(problem, tmp_path / "out.problem")
        expected = json.dumps(serialize_problem(problem), indent=2) + "\n"
        assert (tmp_path / "out.problem").read_bytes() == expected.encode()

    def test_write_then_parse_random_problems(self, tmp_path):
        rng = np.random.default_rng(70)
        for index in range(25):
            problem = random_problem(rng)
            path = tmp_path / f"p{index}.problem"
            write_problem(problem, path)
            assert parse_problem(path) == problem


class TestMemory:
    def test_parse_peak_stays_below_three_times_the_file(self, tmp_path):
        # The reader compacts each row of pairs as it is decoded and drops the
        # text before assembling the arrays; the read itself (bytes and text)
        # is about twice the file. Holding the decoded lists costs about 3.6
        # times this file.
        path = tmp_path / "big.problem"
        write_problem(random_problem(np.random.default_rng(22), 1000, 3, 2), path)
        size = path.stat().st_size
        assert size >= 500_000
        parse_problem(path)  # imports and caches before the measurement
        tracemalloc.start()
        try:
            parse_problem(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size, (peak, size)
