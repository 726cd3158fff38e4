"""End-to-end tests of the command-line interface."""

import csv
import gc
import inspect
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ifhv.hvas as hvas_mod
from gen import hausdorff_squared, registered, run_python, traced_peak
from ifhv import (
    CompareConfig,
    HVConfig,
    audit,
    check_axioms,
    mc_oracle,
)
from ifhv.cli import _read_points, _run, main
from ifhv.errors import DegenerateError, IfhvError, ParseError, ValidationError
from ifhv.fixtures import table1_path
from ifhv.hypervolume import DEFAULT_REFERENCE_COORD, _points_array
from ifhv.problemfile import _read_text
from ifhv.report import _one_line


def run_cli(*args: str, stdin: str | None = None):
    """`python -m ifhv.cli *args` in a new interpreter, run as a user runs it,
    so that a numpy warning reaches stderr rather than being raised by the
    test's filters."""
    return run_python("-m", "ifhv.cli", *args, stdin=stdin)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def table1():
    return str(table1_path())


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("0.5,0.2\n0.2,0.5\n")
    return str(path)


class TestRankCommand:
    def test_markdown_output(self, runner, table1):
        result = runner.invoke(main, ["rank", table1])
        assert result.exit_code == 0
        assert "X3 > X1 > X2" in result.output
        assert "-0.36" in result.output
        assert "-0.42" in result.output
        assert "-0.29" in result.output

    def test_json_scores(self, runner, table1):
        result = runner.invoke(main, ["rank", table1, "--format", "json"])
        assert result.exit_code == 0
        machine = json.loads(result.output)
        assert machine["result"]["scores"]["X1"] == pytest.approx(-0.36)
        assert machine["result"]["order_string"] == "X3 > X1 > X2"
        assert machine["components"]["X1"]["hv_mu"] == pytest.approx(1.32)

    def test_alpha_flag(self, runner, table1):
        result = runner.invoke(main, ["rank", table1, "--alpha", "1.0", "--format", "json"])
        machine = json.loads(result.output)
        # 1.32 - 1.68 - 2.38
        assert machine["result"]["scores"]["X1"] == pytest.approx(-2.74)

    def test_one_evaluation_of_the_formula(self, runner, table1, monkeypatch):
        calls = []
        evaluate = hvas_mod._hv_spaces

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(hvas_mod, "_hv_spaces", counted)
        result = runner.invoke(main, ["rank", table1, "--format", "json"])
        assert result.exit_code == 0
        assert len(calls) == 1

    def test_reference_flag_rejects_positive(self, runner, table1):
        result = runner.invoke(main, ["rank", table1, "--reference", "1,1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["rank", "compare"])
    @pytest.mark.parametrize("value", ["nan", "-inf", "inf", "-1,nan"])
    def test_reference_flag_rejects_non_finite(self, runner, table1, command, value):
        result = runner.invoke(main, [command, table1, f"--reference={value}"])
        assert result.exit_code == 2
        assert "must be finite" in result.output

    @pytest.mark.parametrize("command", ["rank", "compare"])
    def test_reference_flag_rejects_non_numbers(self, runner, table1, command):
        result = runner.invoke(main, [command, table1, "--reference", "1,x"])
        assert result.exit_code == 2
        assert "expected comma-separated numbers" in result.output

    def test_alpha_out_of_range(self, runner, table1):
        result = runner.invoke(main, ["rank", table1, "--alpha", "2.0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_tie_tolerance_must_be_nonnegative_finite(self, runner, table1, value):
        result = runner.invoke(main, ["rank", table1, "--tie-tolerance", value])
        assert result.exit_code == 2
        assert "tie tolerance" in result.output

    def test_missing_file_is_data_error(self, runner):
        result = runner.invoke(main, ["rank", "does-not-exist.problem"])
        assert result.exit_code == 3

    def test_invalid_cell_is_data_error(self, runner, tmp_path, table1):
        doc = json.loads(table1_path().read_text())
        doc["evaluations"]["dm1"]["c1"]["X1"] = [0.7, 0.5]
        bad = tmp_path / "bad.problem"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["rank", str(bad)])
        assert result.exit_code == 3
        assert "X1" in result.output

    def test_zero_expertise_is_degenerate_error(self, runner, tmp_path):
        doc = json.loads(table1_path().read_text())
        doc["expertise"]["dm1"] = {"c1": 0.0, "c2": 1.0}
        degenerate = tmp_path / "degenerate.problem"
        degenerate.write_text(json.dumps(doc))
        result = runner.invoke(main, ["rank", str(degenerate)])
        assert result.exit_code == 4

    def test_overflowing_hypervolume_is_one_error_line(self, tmp_path):
        # every weighted cell is [1, 0], so against the default reference each
        # score is 2 ** 1100
        ids = [f"c{j}" for j in range(1100)]
        doc = {
            "schema_version": 1,
            "alternatives": ["X1", "X2"],
            "criteria": [{"id": cid, "kind": "benefit"} for cid in ids],
            "dms": ["dm1"],
            "evaluations": {"dm1": {cid: {"X1": [1, 0], "X2": [1, 0]} for cid in ids}},
            "importance": {"dm1": {cid: [1, 0] for cid in ids}},
            "expertise": {"dm1": {cid: 1 for cid in ids}},
        }
        path = tmp_path / "wide.problem"
        path.write_text(json.dumps(doc))
        done = run_cli("rank", str(path))
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            "error: hypervolumes over 1100 coordinates against this reference "
            "exceed the float range"
        ]
        assert done.stdout == ""

    def test_problem_piped_in_ranks(self):
        done = run_cli("rank", "/dev/stdin", stdin=table1_path().read_text())
        assert done.returncode == 0
        assert "X3 > X1 > X2" in done.stdout

    def test_invalid_problem_piped_in_names_its_field(self):
        # a pipe cannot be read twice, so the text read for the first parse
        # is the one decoded again to name the bad field
        text = table1_path().read_text()
        bad = text.replace('"X2": [0.3, 0.6]', '"X2": [0.6, 0.6]')
        assert bad != text
        done = run_cli("rank", "/dev/stdin", stdin=bad)
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            "error: stdin.evaluations.dm1.c1.X2: IFN requires mu + nu <= 1, got 0.6 + 0.6 = 1.2"
        ]
        assert done.stdout == ""

    @pytest.mark.parametrize("piped", (False, True), ids=("file", "stdin"))
    def test_deeply_nested_problem_is_one_error_line(self, tmp_path, piped):
        text = "[" * 200_000
        path = tmp_path / "deep.problem"
        path.write_text(text)
        name = "/dev/stdin" if piped else str(path)
        done = run_cli("rank", name, stdin=text if piped else None)
        assert done.returncode == 3
        assert done.stderr.splitlines() == [f"error: {name}: JSON nested too deeply to decode"]
        assert done.stdout == ""

    def test_deterministic_bytes(self, runner, table1):
        first = runner.invoke(main, ["rank", table1, "--format", "json"])
        second = runner.invoke(main, ["rank", table1, "--format", "json"])
        assert first.output == second.output

    def test_output_file(self, runner, table1, tmp_path):
        target = tmp_path / "report.md"
        result = runner.invoke(main, ["rank", table1, "--output", str(target)])
        assert result.exit_code == 0
        assert "X3 > X1 > X2" in target.read_text()

    def test_unwritable_output_is_usage_error(self, runner, table1, tmp_path):
        target = tmp_path / "missing" / "report.md"
        result = runner.invoke(main, ["rank", table1, "--output", str(target)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "--output" in result.output and str(target) in result.output
        assert "Traceback" not in result.output
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, runner, table1):
        # /dev/full opens, and every write to it fails with ENOSPC
        result = runner.invoke(main, ["rank", table1, "--output", "/dev/full"])
        assert result.exit_code == 2
        assert "'--output': File '/dev/full' cannot be written" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "command, label, shown",
        [
            pytest.param(command, label, shown, id=prefix + command)
            for prefix, label, shown in
            [("", "X|1", "X\\|1"), ("lf-", "X\n1", "X\\n1"), ("crlf-", "X\r\n1", "X\\r\\n1")]
            for command in ("rank", "compare")
        ],
    )
    def test_pipe_in_an_id_keeps_markdown_tables_whole(
        self, runner, table1, tmp_path, command, label, shown
    ):
        problem = tmp_path / "pipe.problem"
        problem.write_text(Path(table1).read_text().replace('"X1"', json.dumps(label)))
        result = runner.invoke(main, [command, str(problem)])
        assert result.exit_code == 0
        assert shown in result.output
        # table1 ranks X1 between X3 and X2, so a split order line loses one
        order = [line for line in result.output.splitlines() if line.startswith("Ranking order:")]
        assert len(order) == (1 if command == "rank" else 0)
        assert all("X3" in line and "X2" in line for line in order)
        tables, header = 0, None
        for line in result.output.splitlines():
            if not line.startswith("|"):
                header = None
                continue
            cells = len(re.split(r"(?<!\\)\|", line))
            if header is None:
                header, tables = cells, tables + 1
            assert cells == header
        assert tables == (1 if command == "rank" else 2)

    def test_no_line_separator_survives_the_markdown_escape(self):
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        assert len(_one_line(every_char).splitlines()) == 1

    def test_csv_round_trips(self, runner, table1):
        result = runner.invoke(main, ["rank", table1, "--format", "csv"])
        rows = list(csv.reader(io.StringIO(result.output)))
        assert rows[0] == ["alternative", "rank", "score"]
        parsed = {row[0]: (int(row[1]), float(row[2])) for row in rows[1:]}
        assert parsed["X3"] == (1, -0.29000000000000004)


class TestCompareCommand:
    def test_all_methods_table(self, runner, table1):
        result = runner.invoke(main, ["compare", table1])
        assert result.exit_code == 0
        for name in ("hvas", "topsis", "vikor", "codas"):
            assert name in result.output

    def test_method_subset_and_echo(self, runner, table1):
        result = runner.invoke(
            main,
            ["compare", table1, "--methods", "topsis,codas", "--tau", "0.05",
             "--v", "0.4", "--format", "json"],
        )
        assert result.exit_code == 0
        machine = json.loads(result.output)
        assert machine["methods"] == ["topsis", "codas"]
        assert machine["results"]["codas"]["config"]["tau"] == 0.05
        assert machine["results"]["topsis"]["config"]["v"] == 0.4

    def test_unknown_method_usage_error(self, runner, table1):
        result = runner.invoke(main, ["compare", table1, "--methods", "saw"])
        assert result.exit_code == 2

    def test_unknown_measure_usage_error(self, runner, table1):
        result = runner.invoke(main, ["compare", table1, "--measure", "cosine"])
        assert result.exit_code == 2

    def test_hvas_column_matches_rank(self, runner, table1):
        compared = runner.invoke(main, ["compare", table1, "--format", "json"])
        ranked = runner.invoke(main, ["rank", table1, "--format", "json"])
        assert (
            json.loads(compared.output)["results"]["hvas"]["scores"]
            == json.loads(ranked.output)["result"]["scores"]
        )


class TestAuditCommand:
    def test_nonlinear_verdict(self, runner):
        result = runner.invoke(
            main,
            ["audit", "--measure", "euclidean2", "--budget", "10000", "--seed", "7",
             "--format", "json"],
        )
        assert result.exit_code == 0
        machine = json.loads(result.output)
        assert machine["is_robust_on_budget"] is False
        assert len(machine["counterexamples"]) >= 1
        example = machine["counterexamples"][0]
        assert abs(example["d_nis_a"] - example["d_nis_b"]) <= 1e-9
        assert abs(example["d_pis_a"] - example["d_pis_b"]) > 1e-3

    def test_hamming_verdict(self, runner):
        result = runner.invoke(
            main,
            ["audit", "--measure", "hamming", "--budget", "20000", "--delta", "1e-6",
             "--format", "json"],
        )
        machine = json.loads(result.output)
        assert machine["is_robust_on_budget"] is True
        assert machine["counterexamples"] == []

    def test_budget_zero_usage_error(self, runner):
        result = runner.invoke(main, ["audit", "--measure", "euclidean2", "--budget", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_tolerances_must_be_positive_finite(self, runner, flag, value):
        result = runner.invoke(main, ["audit", "--measure", "euclidean2", "--budget", "100",
                                      flag, value, "--format", "json"])
        assert result.exit_code == 2
        assert "positive finite" in result.output

    def test_deterministic_given_seed(self, runner):
        args = ["audit", "--measure", "hausdorff", "--budget", "3000", "--seed", "5",
                "--format", "json"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_memory_is_flat_in_budget(self, runner):
        # the library's bound holds with the collector paused for the command
        runner.invoke(main, ["audit", "--measure", "hamming", "--budget", "1000"])
        result, peak = traced_peak(
            runner.invoke, main, ["audit", "--measure", "hamming", "--budget", "2000000"]
        )
        assert result.exit_code == 0
        assert peak < 8 * 2**20


class TestHvCommand:
    def test_known_union(self, runner, points_file):
        result = runner.invoke(
            main, ["hv", points_file, "--reference", "0,0", "--format", "json"]
        )
        assert result.exit_code == 0
        machine = json.loads(result.output)
        assert machine["hypervolume"] == pytest.approx(0.16, abs=1e-12)
        assert abs(machine["mc_estimate"] - 0.16) <= 3.0 * machine["mc_stderr"]

    def test_markdown(self, runner, points_file):
        result = runner.invoke(main, ["hv", points_file, "--reference", "0,0"])
        assert result.exit_code == 0
        assert "0.16" in result.output

    @pytest.mark.parametrize("text", ["0.5,0.2\n0.2,0.5\n", "0.5,0.2,0.1,0.3\n0.2,0.5,0.3,0.1\n"])
    def test_csv_hypervolume_is_a_number(self, runner, tmp_path, text):
        path = tmp_path / "points.txt"
        path.write_text(text)
        result = runner.invoke(main, ["hv", str(path), "--format", "csv"])
        assert result.exit_code == 0
        row = next(csv.DictReader(io.StringIO(result.output)))
        assert float(row["hypervolume"]) > 0.0

    def test_default_reference_is_minus_one(self, runner, points_file):
        result = runner.invoke(main, ["hv", points_file, "--format", "json"])
        machine = json.loads(result.output)
        assert machine["reference"] == [-1.0, -1.0]

    @pytest.mark.parametrize("value", ["nan", "-inf", "inf", "-1,nan"])
    def test_non_finite_reference_is_usage_error(self, runner, points_file, value):
        result = runner.invoke(main, ["hv", points_file, f"--reference={value}"])
        assert result.exit_code == 2
        assert "must be finite" in result.output

    def test_bad_point_line(self, runner, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("0.5,0.2\nnot-a-number\n")
        result = runner.invoke(main, ["hv", str(path), "--reference", "0,0"])
        assert result.exit_code == 3
        assert ":2" in result.output

    def test_point_below_reference_is_data_error(self, runner, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("-0.5,0.2\n")
        result = runner.invoke(main, ["hv", str(path), "--reference", "0,0"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,0.2\n\n0.1,0.2,0.3\n", ":3: expected 2 coordinates, got 3"),
            ("0.5,0.2\n0.1,nan\n", ":2: coordinates must be finite"),
            ("0.5,0.2\n0.1,inf\n", ":2: coordinates must be finite"),
            ("0.5,0.2\n\n-0.5,0.2\n", ":3: point does not dominate the reference"),
        ],
        ids=["ragged", "nan", "inf", "below-reference"],
    )
    def test_bad_point_names_file_and_line(self, runner, tmp_path, text, message):
        path = tmp_path / "points.txt"
        path.write_text(text)
        result = runner.invoke(main, ["hv", str(path), "--reference", "0,0"])
        assert result.exit_code == 3
        assert f"{path}{message}" in result.output

    def test_reference_dimension_mismatch_is_data_error(self, runner, points_file):
        result = runner.invoke(main, ["hv", points_file, "--reference", "0,0,0"])
        assert result.exit_code == 3
        assert "reference has 3 coordinates" in result.output


def read_points_by_lines(path, reference):
    """_read_points as one walk over the lines, parsing each line on its own."""
    rows, lines = [], []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = tuple(float(part) for part in stripped.split(","))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected comma-separated numbers") from None
        if rows and len(row) != len(rows[0]):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(rows[0])} coordinates, got {len(row)}"
            )
        rows.append(row)
        lines.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no points found")
    ref = reference if reference is not None else (DEFAULT_REFERENCE_COORD,) * len(rows[0])
    points, _ = _points_array(rows, ref, lambda i: f"{path}:{lines[i]}")
    return points, ref


def points_field(rng):
    """One field of a points file: mostly a number in one of several spellings,
    with spaces around it; sometimes a value the reader must reject."""
    x = float(rng.random())
    spellings = [
        repr(x), f"{x:.3e}", f"{x * 1e3:.2E}", f"{x:.0f}", f"+{x}", "inf", "nan", "-inf",
        "x1", "", repr(-1.5 - x),
    ]
    weights = [0.3, 0.2, 0.15, 0.1, 0.225, 0.003, 0.003, 0.003, 0.003, 0.003, 0.01]
    before, after = (["", " ", "  ", "\t"][i] for i in rng.integers(4, size=2))
    return before + spellings[rng.choice(len(spellings), p=weights)] + after


def points_file_text(rng):
    """A points file with blank lines, CRLF or LF line ends and now and then a
    ragged row."""
    m = int(rng.integers(1, 5))
    lines = []
    for _ in range(int(rng.integers(0, 10))):
        width = m + int(rng.choice([-1, 1])) if rng.random() < 0.04 else m
        lines.append(",".join(points_field(rng) for _ in range(max(width, 1))))
        while rng.random() < 0.2:
            lines.append(["", "  ", "\t"][rng.integers(3)])
    end = "\r\n" if rng.random() < 0.5 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else ""), m


class TestReadPointsInBulk:
    @staticmethod
    def outcome(read, path, reference):
        try:
            points, ref = read(path, reference)
        except IfhvError as exc:
            return type(exc).__name__, str(exc)
        return points.shape, points.dtype, points.tobytes(), ref

    def test_same_arrays_and_errors_as_the_line_walk(self, tmp_path):
        kinds = set()
        for seed in range(400):
            rng = np.random.default_rng(seed)
            text, m = points_file_text(rng)
            path = tmp_path / f"points{seed}.txt"
            path.write_bytes(text.encode("utf-8"))
            reference = [None, (0.0,) * m, (-2.0,) * (m + 1)][rng.choice(3, p=[0.45, 0.45, 0.1])]
            expected = self.outcome(read_points_by_lines, path, reference)
            assert self.outcome(_read_points, path, reference) == expected, text
            kinds.add(expected[1].split(": ")[-1] if isinstance(expected[0], str) else "read")
        assert kinds >= {
            "read",
            "no points found",
            "expected comma-separated numbers",
            "coordinates must be finite",
            "point does not dominate the reference",
        }
        assert any("coordinates, got" in kind for kind in kinds)
        assert any(kind.startswith("reference has") for kind in kinds)


class TestAxiomsCommand:
    def test_builtin_passes(self, runner):
        result = runner.invoke(
            main, ["axioms", "--measure", "hamming", "--samples", "2000", "--format", "json"]
        )
        assert result.exit_code == 0
        machine = json.loads(result.output)
        assert machine["symmetry_ok"] and machine["identity_ok"] and machine["triangle_ok"]
        assert machine["witnesses"] == []

    def test_markdown_table(self, runner):
        result = runner.invoke(main, ["axioms", "--measure", "euclidean3", "--samples", "1000"])
        assert result.exit_code == 0
        assert "symmetry" in result.output

    def test_markdown_counts_witnesses(self, runner):
        name = registered("cli-hausdorff-squared", hausdorff_squared).name
        result = runner.invoke(main, ["axioms", "--measure", name, "--samples", "200"])
        assert result.exit_code == 0
        assert "| triangle | False |" in result.output
        assert "Witnesses: 10 recorded (see json format)." in result.output

    def test_unknown_measure(self, runner):
        result = runner.invoke(main, ["axioms", "--measure", "mystery"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_plugin_is_data_error(self, runner, value):
        name = f"cli-returns-{value}"
        registered(name, lambda a, b: float(value))
        result = runner.invoke(main, ["axioms", "--measure", name, "--samples", "100"])
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            f"error: distance measure '{name}' returned {value}; a distance must be finite"
        ]


class TestUsageErrors:
    def test_unknown_command(self, runner):
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2

    def test_unknown_flag(self, runner, table1):
        assert runner.invoke(main, ["rank", table1, "--no-such-flag"]).exit_code == 2


# the same lookup as `cli._default`: the rows that use it only catch a literal coming back
def parameter_default(function, name):
    return inspect.signature(function).parameters[name].default


@pytest.mark.parametrize(
    "command, option, library",
    [
        ("rank", "alpha", HVConfig().alpha),
        ("rank", "tie_tolerance", HVConfig().tie_tolerance),
        ("compare", "tau", CompareConfig().tau),
        ("compare", "v", CompareConfig().v),
        ("compare", "measure_primary", CompareConfig().measure_primary.name),
        ("compare", "measure_secondary", CompareConfig().measure_secondary.name),
        ("compare", "alpha", HVConfig().alpha),
        ("audit", "budget", parameter_default(audit, "budget")),
        ("audit", "eps", parameter_default(audit, "eps")),
        ("audit", "delta", parameter_default(audit, "delta")),
        ("audit", "seed", parameter_default(audit, "seed")),
        ("hv", "samples", parameter_default(mc_oracle, "samples")),
        ("hv", "seed", parameter_default(mc_oracle, "seed")),
        ("axioms", "samples", parameter_default(check_axioms, "samples")),
        ("axioms", "seed", parameter_default(check_axioms, "seed")),
    ],
)
def test_option_default_is_the_library_default(command, option, library):
    (param,) = [param for param in main.commands[command].params if param.name == option]
    assert (param.default, type(param.default)) == (library, type(library))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["rank", "{problem}"], 3),
        (["compare", "{problem}"], 3),
        (["hv", "{points}"], 3),
        (["audit", "--measure", "hamming", "--seed", "-1"], 2),
        (["hv", "{good_points}", "--seed", "-1"], 2),
        (["axioms", "--measure", "hamming", "--seed", "-1"], 2),
        (["audit"], 2),
        (["axioms"], 2),
    ],
    ids=[
        "rank-latin1", "compare-latin1", "hv-latin1", "audit-seed", "hv-seed", "axioms-seed",
        "audit-no-measure", "axioms-no-measure",
    ],
)
def test_no_command_ends_in_a_traceback(runner, tmp_path, points_file, argv, code):
    problem = tmp_path / "latin1.problem"
    problem.write_bytes('{"schema_version": 1, "alternatives": ["X\u00e9"]}'.encode("latin-1"))
    points = tmp_path / "latin1.txt"
    points.write_bytes("0.5,0.2\n0.2,0.5\u00a0\n".encode("latin-1"))
    paths = {"problem": problem, "points": points, "good_points": points_file}
    result = runner.invoke(main, [arg.format(**paths) for arg in argv])
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if code == 3:
        assert f"{argv[1].format(**paths)}: cannot read file: 'utf-8' codec" in result.output


class TestRun:
    @pytest.mark.parametrize(
        "error, code", [(None, 0), (ParseError("bad file"), 3), (DegenerateError("all tied"), 4)]
    )
    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_paused_and_callers_state_restored(self, capsys, error, code, collecting):
        seen = []

        def build():
            seen.append(gc.isenabled())
            if error is not None:
                raise error
            return {"command": "hv"}

        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if error is None:
                _run(build, "json", None)
            else:
                with pytest.raises(SystemExit) as exited:
                    _run(build, "json", None)
                assert exited.value.code == code
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert seen == [False]
        assert after is collecting
