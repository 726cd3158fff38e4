"""The golden corpus: fixed CLI commands and the bytes they print.

Each case runs one `ifhv` command in-process from the directory of its
input, so the path the report echoes is the bare file name. `audit` and
`axioms` read no file: their cases name the corpus directory in place of an
input and pass no file argument. A case that
succeeds is recorded as its stdout bytes; a case that fails as its exit code
and its stderr. `LIBRARY_CASES` record library calls that no CLI command
makes (reports of plugin measures). `tests/test_golden.py` compares every
case with its file.

Run `python tests/golden/regen.py` to rewrite the expected files after an
intended output change, and review the diff. The inputs under `inputs/` are
written only when they are missing, so a regeneration never changes what the
commands read.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import numpy as np
from click.testing import CliRunner

from ifhv.cli import main
from ifhv.fixtures import table1_path

TABLE1 = table1_path()

# In the seeded problem every third alternative copies the one before it, so
# every method sees exact tie pairs among many distinct scores.
SEEDED = INPUTS / "seeded240.problem"
# A second seeded problem, with two DMs and a cost criterion next to each
# benefit one.
SEEDED_COST = INPUTS / "seeded_cost.problem"

POINT_FILES = {
    # ties in x, in y, and a repeated row
    "tied2d.txt": "0.5,0.2\n0.2,0.5\n0.5,0.1\n0.2,0.5\n0.35,0.35\n0.1,0.5\n0.5,0.2\n",
    "nan.txt": "0.5,0.2\n\n0.1,nan\n",
    "below.txt": "0.5,0.2\n0.3,0.3\n\n-1.5,0.2\n",
    "ragged.txt": "0.5,0.2\n\n0.1,0.2,0.3\n",
    "words.txt": "0.5,0.2\nx,0.3\n",
    "empty.txt": "\n\n",
    # the box from the default reference to (1e200, 1e200) has no float volume
    "overflow.txt": "1e200,1e200\n",
}


def _table1_with(*edits):
    """Table 1 with each edit applied to its decoded document, as JSON text."""

    def text() -> str:
        doc = json.loads(TABLE1.read_text(encoding="utf-8"))
        for edit in edits:
            edit(doc)
        return json.dumps(doc, indent=2) + "\n"

    return text


# Problem files that break one rule each (two_errors breaks two, to pin the
# order in which the reader reports them).
BAD_PROBLEMS = {
    "cell_sum.problem": _table1_with(
        lambda doc: doc["evaluations"]["dm1"]["c1"].update(X2=[0.7, 0.5])
    ),
    "cell_text.problem": _table1_with(
        lambda doc: doc["evaluations"]["dm1"]["c2"].update(X3="0.5,0.2")
    ),
    "missing_alternative.problem": _table1_with(
        lambda doc: doc["evaluations"]["dm1"]["c2"].pop("X3")
    ),
    "missing_importance.problem": _table1_with(lambda doc: doc["importance"]["dm1"].pop("c2")),
    "expertise_high.problem": _table1_with(lambda doc: doc["expertise"]["dm1"].update(c1=1.5)),
    "importance_word.problem": _table1_with(
        lambda doc: doc["importance"]["dm1"].update(c1=["high", 0.0])
    ),
    "evaluations_list.problem": _table1_with(
        lambda doc: doc["evaluations"].update(dm1=list(doc["evaluations"]["dm1"].values()))
    ),
    "two_errors.problem": _table1_with(
        lambda doc: doc["evaluations"]["dm1"]["c2"].update(X1=[0.9, 0.9]),
        lambda doc: doc["importance"]["dm1"].update(c1=[2.0, 0.0]),
    ),
    "unknown_field.problem": _table1_with(lambda doc: doc.update(weights=[0.5, 0.5])),
    "criterion_field.problem": _table1_with(lambda doc: doc["criteria"][0].update(weight=2)),
    "duplicate_key.problem": lambda: TABLE1.read_text(encoding="utf-8").replace(
        '"X1": [0.2, 0.4]', '"X1": [0.2, 0.4], "X1": [0.2, 0.5]'
    ),
}


def _front4d() -> str:
    rng = np.random.default_rng(44)
    rows = np.round(rng.random((30, 4)), 3)
    rows[5] = rows[4]  # a duplicate
    rows[6] = rows[4] * 0.5  # a dominated point
    return "".join(",".join(repr(float(c)) for c in row) + "\n" for row in rows)


def _seeded_problem():
    from gen import random_problem  # tests/gen.py

    from ifhv.hvas import DecisionProblem

    base = random_problem(np.random.default_rng(20240), n_alternatives=240, n_criteria=3, n_dms=1)
    evaluations = base.evaluation_array.copy()
    evaluations[:, :, 1::3] = evaluations[:, :, 0::3]
    return DecisionProblem.from_arrays(
        base.alternatives, base.criteria, base.dms,
        evaluations, base.importance_array, base.expertise_array,
    )


def _seeded_cost_problem():
    from gen import random_problem  # tests/gen.py

    from ifhv.hvas import CriterionKind, CriterionSpec, DecisionProblem

    base = random_problem(np.random.default_rng(20241), n_alternatives=12, n_criteria=4, n_dms=2)
    kinds = (CriterionKind.BENEFIT, CriterionKind.COST) * 2
    return DecisionProblem.from_arrays(
        base.alternatives, [CriterionSpec(c.id, kind) for c, kind in zip(base.criteria, kinds)],
        base.dms, base.evaluation_array, base.importance_array, base.expertise_array,
    )


def write_inputs() -> None:
    """Create the seeded and hand-written inputs that do not exist yet."""
    from ifhv.problemfile import write_problem

    INPUTS.mkdir(parents=True, exist_ok=True)
    texts = dict(POINT_FILES, **{"front4d.txt": _front4d}, **BAD_PROBLEMS)
    for name, text in texts.items():
        path = INPUTS / name
        if not path.exists():
            path.write_text(text if isinstance(text, str) else text(), encoding="utf-8")
    for path, problem in ((SEEDED, _seeded_problem), (SEEDED_COST, _seeded_cost_problem)):
        if not path.exists():
            write_problem(problem(), path)


def _cases() -> dict[str, tuple[Path, list[str]]]:
    """name -> (input file or `HERE`, arguments after the command's input file)."""
    cases: dict[str, tuple[Path, list[str]]] = {}
    for fmt in ("md", "json", "csv"):
        cases[f"rank_table1.{fmt}"] = (TABLE1, ["rank", "--format", fmt])
        cases[f"compare_table1.{fmt}"] = (
            TABLE1, ["compare", "--methods", "hvas,topsis,vikor,codas", "--format", fmt]
        )
        for points in ("tied2d.txt", "front4d.txt"):
            stem = points.removesuffix(".txt")
            cases[f"hv_{stem}.{fmt}"] = (INPUTS / points, ["hv", "--format", fmt])
    cases["rank_table1_alpha_tol0.json"] = (
        TABLE1, ["rank", "--alpha", "0.5", "--tie-tolerance", "0", "--format", "json"]
    )
    cases["rank_table1_reference.json"] = (
        TABLE1, ["rank", "--reference=-0.5,-0.25", "--alpha=-0.3", "--format", "json"]
    )
    for fmt in ("md", "json", "csv"):
        cases[f"rank_seeded240.{fmt}"] = (SEEDED, ["rank", "--format", fmt])
        cases[f"compare_seeded240.{fmt}"] = (SEEDED, ["compare", "--format", fmt])
    for command in ("rank", "compare"):
        cases[f"{command}_seeded_cost.json"] = (SEEDED_COST, [command, "--format", "json"])
    cases["hv_tied2d_reference0.json"] = (
        INPUTS / "tied2d.txt", ["hv", "--reference", "0,0", "--format", "json"]
    )
    for points in ("nan.txt", "below.txt", "ragged.txt", "words.txt", "empty.txt", "overflow.txt"):
        cases[f"hv_{points.removesuffix('.txt')}.err"] = (INPUTS / points, ["hv"])
    cases["hv_tied2d_reference3.err"] = (INPUTS / "tied2d.txt", ["hv", "--reference", "0,0,0"])
    cases["hv_tied2d_reference_far.err"] = (
        INPUTS / "tied2d.txt", ["hv", "--reference=-1e308,-1e308"]
    )
    cases["rank_table1_reference3.err"] = (TABLE1, ["rank", "--reference=-1,-1,-1"])
    for problem in BAD_PROBLEMS:
        cases[f"rank_{problem.removesuffix('.problem')}.err"] = (INPUTS / problem, ["rank"])
    # flag values that break a library rule: usage errors with the library's message
    for name, args in {
        "rank_table1_alpha2.err": ["rank", "--alpha", "2"],
        "rank_table1_tolerance_nan.err": ["rank", "--tie-tolerance", "nan"],
        "rank_table1_reference_positive.err": ["rank", "--reference", "1,1"],
        "rank_table1_reference_far.err": ["rank", "--reference=-1e308,-1e308"],
        "compare_table1_tau2.err": ["compare", "--tau", "2"],
        "compare_table1_v_nan.err": ["compare", "--v", "nan"],
        "compare_table1_methods_saw.err": ["compare", "--methods", "saw"],
        "compare_table1_methods_empty.err": ["compare", "--methods", ","],
        "compare_table1_methods_twice.err": ["compare", "--methods", "hvas,hvas"],
    }.items():
        cases[name] = (TABLE1, args)
    for fmt in ("md", "json", "csv"):
        cases[f"audit_euclidean2.{fmt}"] = (
            HERE, ["audit", "--measure", "euclidean2", "--budget", "2000", "--seed", "7",
                   "--format", fmt],
        )
        cases[f"axioms_euclidean3.{fmt}"] = (
            HERE, ["axioms", "--measure", "euclidean3", "--samples", "2000", "--format", fmt]
        )
    # a robust measure: the csv branch with no violation rows
    cases["audit_hamming_delta.csv"] = (
        HERE, ["audit", "--measure", "hamming", "--budget", "2000", "--delta", "1e-6",
               "--format", "csv"],
    )
    # bench scale: the 10th witness falls at attempt 156 710, so the sampled
    # bits are pinned across 10 chunks
    cases["audit_euclidean2_bench.json"] = (
        HERE, ["audit", "--measure", "euclidean2", "--budget", "200000", "--delta", "0.4",
               "--seed", "7", "--format", "json"],
    )
    cases["axioms_hausdorff_bench.json"] = (
        HERE, ["axioms", "--measure", "hausdorff", "--samples", "100000", "--seed", "7",
               "--format", "json"],
    )
    return cases


CASES = _cases()


def _plugin_reports() -> bytes:
    """`audit` and `check_axioms` reports of two per-pair plugin measures.

    `minkowski3` is homogeneous of degree 1, so the audit's closed form
    finds its partners; `hausdorff_squared` is not, so they come from
    bisection.
    """
    from gen import hausdorff_squared, minkowski3  # tests/gen.py

    from ifhv.distances import DistanceMeasure, MeasureKind, check_axioms
    from ifhv.robustness import audit

    reports = {}
    for name, func in (("plugin-minkowski3", minkowski3),
                       ("plugin-hausdorff-squared", hausdorff_squared)):
        measure = DistanceMeasure(name, MeasureKind.NONLINEAR, None, func)
        reports[name] = {
            "audit": audit(measure, budget=1000, seed=7).to_dict(),
            "axioms": check_axioms(measure, samples=2000, seed=7).to_dict(),
        }
    return (json.dumps(reports, indent=2) + "\n").encode()


# Library calls recorded next to the CLI cases: file name -> bytes.
LIBRARY_CASES = {"plugin_reports.json": _plugin_reports}


def run_case(name: str) -> bytes:
    """The recorded bytes of one case, run from the current directory."""
    source, args = CASES[name]
    command, *options = args
    argv = args if source == HERE else [command, source.name, *options]
    result = CliRunner().invoke(main, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    if name.endswith(".err"):
        return f"exit {result.exit_code}\n".encode() + result.stderr_bytes
    assert result.exit_code == 0 and not result.stderr_bytes, result.output
    return result.stdout_bytes


def main_regen() -> None:
    write_inputs()
    EXPECTED.mkdir(exist_ok=True)
    for name, (source, _args) in CASES.items():
        with contextlib.chdir(source.parent):
            data = run_case(name)
        (EXPECTED / name).write_bytes(data)
    for name, record in LIBRARY_CASES.items():
        (EXPECTED / name).write_bytes(record())
    print(f"wrote {len(CASES) + len(LIBRARY_CASES)} cases to {EXPECTED}")


if __name__ == "__main__":
    main_regen()
