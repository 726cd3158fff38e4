"""The benchmark's workloads: their inputs, their command lists, and the
checks every command output must pass.

A workload writes its inputs from a seed into a directory, then names the
CLI invocations of one pass over it. Each invocation carries a check of its
own output. Checks are semantic (orders, verdicts, oracle agreement), never
golden digests, so a change that moves results by ulps on purpose still
passes; the runner additionally requires every pass of one run to produce
byte-identical output.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen


class CheckFailed(Exception):
    """A command's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Invocation:
    command: str  # rank | compare | audit | axioms | hv
    argv: tuple[str, ...]
    check: Callable[[str], None]
    fresh: bool = False  # run in a fresh interpreter, not in-process

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    write_inputs: Callable[[np.random.Generator, Path], None]
    invocations: Callable[[int, Path], list[Invocation]]
    # run once, untimed, before measuring: lets lazy set-up and caches fill
    warmup: Callable[[int, Path], list[Invocation]]


def invoke(argv) -> tuple[int, str]:
    """Run one CLI command in this process; return (exit code, stdout)."""
    from ifhv.cli import main

    sink = io.StringIO()
    with redirect_stdout(sink):
        try:
            main(list(argv), standalone_mode=False, prog_name="ifhv")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, sink.getvalue()


# -- shared checks -------------------------------------------------------------

def _check_ranking(result: dict, alternatives: list[str], method: str) -> None:
    """Order groups partition the alternatives and follow the scores."""
    expect(result["method"] == method, f"method {result['method']!r} != {method!r}")
    flat = [label for group in result["order"] for label in group]
    expect(sorted(flat) == sorted(alternatives), f"{method}: order is not a partition")
    scores = result["scores"]
    expect(all(math.isfinite(scores[a]) for a in alternatives), f"{method}: non-finite score")
    sign = 1.0 if result["higher_is_better"] else -1.0
    tolerance = result["config"].get("tie_tolerance", 1e-9)
    heads = [sign * scores[group[0]] for group in result["order"]]
    expect(
        all(a > b + tolerance for a, b in zip(heads, heads[1:])),
        f"{method}: tie groups are not in score order",
    )
    for group in result["order"]:
        head = scores[group[0]]
        expect(
            all(abs(scores[label] - head) <= tolerance for label in group),
            f"{method}: a tie group spans more than the tie tolerance",
        )


def _hvas_scores(doc: dict) -> dict[str, tuple[float, float]]:
    """Net hypervolume at alpha 0 and reference -1 of each alternative, with
    the magnitude its rounding error scales with, recomputed with numpy
    straight from the problem document, independently of the package."""
    alts = doc["alternatives"]
    crits = [c["id"] for c in doc["criteria"]]
    dms = doc["dms"]
    ev = np.array([[[doc["evaluations"][d][c][a] for a in alts] for c in crits] for d in dms])
    imp = np.array([[doc["importance"][d][c] for c in crits] for d in dms])
    x = np.array([[doc["expertise"][d][c] for c in crits] for d in dms])
    total = x.sum(axis=0)
    agg = np.einsum("lj,ljnk->jnk", x, ev) / total[:, None, None]
    weight = np.einsum("lj,ljk->jk", x, imp) / total[:, None]
    cost = np.array([c["kind"] == "cost" for c in doc["criteria"]])
    agg[cost] = agg[cost][..., ::-1]
    mu = agg[..., 0] * weight[:, None, 0]
    nu = weight[:, None, 1] + agg[..., 1] * (1.0 - weight[:, None, 1])
    hv_mu = np.prod(1.0 + mu, axis=0)
    hv_nu = np.prod(1.0 + nu, axis=0)
    return {a: (float(hv_mu[i] - hv_nu[i]), float(hv_mu[i] + hv_nu[i])) for i, a in enumerate(alts)}


def _check_hvas_scores(scores: dict, doc_path: Path) -> None:
    expected = _hvas_scores(json.loads(doc_path.read_text(encoding="utf-8")))
    for label, (value, scale) in expected.items():
        expect(
            abs(scores[label] - value) <= 1e-9 * scale,
            f"hvas score of {label} is {scores[label]!r}, independent value {value!r}",
        )


# -- decide: rank and compare on generated decision problems -----------------

DECIDE_SHAPES = ((1000, 10, 5), (3000, 4, 2), (50, 20, 8))
COMPARE_METHODS = ("hvas", "topsis", "vikor", "codas")


def _problem_path(directory: Path, n: int, m: int, q: int) -> Path:
    return directory / f"decide_n{n}_m{m}_q{q}.problem"


def _no_inputs(rng: np.random.Generator, directory: Path) -> None:
    """The workload's inputs are command flags or ship with the package."""


def _decide_inputs(rng: np.random.Generator, directory: Path) -> None:
    for n, m, q in DECIDE_SHAPES:
        gen.write_problem(_problem_path(directory, n, m, q), gen.problem_doc(rng, n, m, q))


def _rank_check(path: Path, expected_scores: Callable[[dict, Path], None]):
    def check(output: str) -> None:
        data = json.loads(output)
        alternatives = data["alternatives"]
        result = data["result"]
        _check_ranking(result, alternatives, "hvas")
        for label, parts in data["components"].items():
            expect(parts["hv_net"] == result["scores"][label], f"{label}: components disagree")
        expected_scores(result["scores"], path)

    return check


def _compare_check(path: Path, expected_scores: Callable[[dict, Path], None]):
    def check(output: str) -> None:
        data = json.loads(output)
        expect(data["methods"] == list(COMPARE_METHODS), "methods echo differs")
        for method in COMPARE_METHODS:
            _check_ranking(data["results"][method], data["alternatives"], method)
        expected_scores(data["results"]["hvas"]["scores"], path)

    return check


def _decide_pair(path: Path, fresh: bool = False, expected_scores=_check_hvas_scores):
    methods = ",".join(COMPARE_METHODS)
    return [
        Invocation("rank", ("rank", str(path), "--format", "json"),
                   _rank_check(path, expected_scores), fresh),
        Invocation("compare", ("compare", str(path), "--methods", methods, "--format", "json"),
                   _compare_check(path, expected_scores), fresh),
    ]


def _decide_invocations(seed: int, directory: Path) -> list[Invocation]:
    return [inv for shape in DECIDE_SHAPES for inv in _decide_pair(_problem_path(directory, *shape))]


def _decide_warmup(seed: int, directory: Path) -> list[Invocation]:
    return _decide_pair(_problem_path(directory, *DECIDE_SHAPES[-1]))


# -- audit: robustness audits and metric-axiom probes -------------------------

AUDIT_BUDGET = 200_000
PLUGIN_BUDGET = 1_000
AXIOM_SAMPLES = 100_000
PLUGIN = "minkowski3"


def minkowski3(a, b) -> float:
    """Order-3 Minkowski distance over (mu, nu) differences, in plain Python.

    Registered as a plugin, so the audit evaluates it pair by pair."""
    total = 0.0
    for x, y in zip(a, b):
        total += abs(x.mu - y.mu) ** 3 + abs(x.nu - y.nu) ** 3
    return (total / (2 * len(a))) ** (1.0 / 3.0)


def register_plugin() -> None:
    from ifhv import available_measures, register_function

    if PLUGIN not in available_measures():
        register_function(PLUGIN, minkowski3)


def _audit_check(measure: str, robust: bool, budget: int):
    def check(output: str) -> None:
        from ifhv import IFN, Counterexample, get_measure

        data = json.loads(output)
        expect(data["measure"] == measure, "audited the wrong measure")
        expect(data["is_robust_on_budget"] == robust,
               f"{measure}: robust={data['is_robust_on_budget']}, expected {robust}")
        expect(1 <= data["samples_used"] <= budget, f"{measure}: samples_used out of range")
        expect(robust or len(data["counterexamples"]) > 0, f"{measure}: no counterexample")
        instance = get_measure(measure)
        for c in data["counterexamples"]:
            example = Counterexample(
                IFN(*c["a"]), IFN(*c["b"]),
                c["d_nis_a"], c["d_nis_b"], c["d_pis_a"], c["d_pis_b"],
            )
            expect(example.verify(instance, data["eps"], data["delta"]),
                   f"{measure}: a counterexample does not verify")

    return check


def _axioms_check(measure: str):
    def check(output: str) -> None:
        data = json.loads(output)
        expect(data["measure"] == measure, "probed the wrong measure")
        # every built-in measure is a metric
        expect(data["symmetry_ok"] and data["identity_ok"] and data["triangle_ok"],
               f"{measure}: an axiom verdict changed")
        expect(data["witnesses"] == [], f"{measure}: unexpected axiom witnesses")

    return check


def _audit(measure: str, robust: bool, budget: int, seed: int) -> Invocation:
    argv = ("audit", "--measure", measure, "--budget", str(budget),
            "--seed", str(seed), "--format", "json")
    return Invocation("audit", argv, _audit_check(measure, robust, budget))


def _axioms(measure: str, samples: int, seed: int) -> Invocation:
    argv = ("axioms", "--measure", measure, "--samples", str(samples),
            "--seed", str(seed), "--format", "json")
    return Invocation("axioms", argv, _axioms_check(measure))


def _audit_invocations(seed: int, directory: Path) -> list[Invocation]:
    return [
        _audit("hamming", True, AUDIT_BUDGET, seed),
        _audit("euclidean2", False, AUDIT_BUDGET, seed),
        _audit("euclidean3", False, AUDIT_BUDGET, seed),
        _audit("hausdorff", False, AUDIT_BUDGET, seed),
        _audit(PLUGIN, False, PLUGIN_BUDGET, seed),
        _axioms("euclidean3", AXIOM_SAMPLES, seed),
        _axioms("hausdorff", AXIOM_SAMPLES, seed),
    ]


def _audit_warmup(seed: int, directory: Path) -> list[Invocation]:
    return [
        _audit("hamming", True, 1_000, seed),
        _audit(PLUGIN, False, 100, seed),
        _axioms("hausdorff", 1_000, seed),
    ]


# -- hypervolume: exact hypervolume with its Monte Carlo cross-check ---------

FRONTS = ((200, 3), (60, 4), (12, 6))
CLOUD = (2000, 3)
HV_SAMPLES = 20_000
INCLUSION_EXCLUSION_MAX = 12


def _points_path(directory: Path, kind: str, k: int, m: int) -> Path:
    return directory / f"hv_{kind}_k{k}_m{m}.pts"


def _hv_inputs(rng: np.random.Generator, directory: Path) -> None:
    for k, m in FRONTS:
        gen.write_points(_points_path(directory, "front", k, m), gen.front_points(rng, k, m))
    k, m = CLOUD
    gen.write_points(_points_path(directory, "cloud", k, m), gen.cloud_points(rng, k, m))


def _hv_check(path: Path, k: int, m: int):
    def check(output: str) -> None:
        from ifhv import hv_inclusion_exclusion

        data = json.loads(output)
        expect(data["points"] == k and data["dimension"] == m, "point set shape differs")
        points = [tuple(float(x) for x in line.split(","))
                  for line in path.read_text(encoding="utf-8").split()]
        value, estimate = data["hypervolume"], data["mc_estimate"]
        # The binomial standard error at the exact hit fraction. The report's
        # own stderr is computed from the estimate, and understates the error
        # when almost every sample hits, as on the cloud (fraction ~0.997).
        box = math.prod(max(p[j] for p in points) - r for j, r in enumerate(data["reference"]))
        fraction = min(value / box, 1.0)
        stderr = box * math.sqrt(fraction * (1.0 - fraction) / data["mc_samples"])
        expect(stderr > 0.0, "Monte Carlo standard error is zero")
        expect(abs(value - estimate) <= 4.0 * stderr,
               f"hv {value!r} and Monte Carlo {estimate!r} differ by more than 4 stderr")
        if k <= INCLUSION_EXCLUSION_MAX:
            exact = hv_inclusion_exclusion(points, data["reference"])
            expect(abs(value - exact) <= 1e-9 * max(1.0, abs(exact)),
                   f"hv {value!r} and inclusion-exclusion {exact!r} differ")

    return check


def _hv(path: Path, k: int, m: int, samples: int, seed: int) -> Invocation:
    argv = ("hv", str(path), "--samples", str(samples), "--seed", str(seed), "--format", "json")
    return Invocation("hv", argv, _hv_check(path, k, m))


def _hv_invocations(seed: int, directory: Path) -> list[Invocation]:
    sets = [("front", k, m) for k, m in FRONTS] + [("cloud", *CLOUD)]
    return [_hv(_points_path(directory, kind, k, m), k, m, HV_SAMPLES, seed) for kind, k, m in sets]


def _hv_warmup(seed: int, directory: Path) -> list[Invocation]:
    k, m = FRONTS[-1]
    return [_hv(_points_path(directory, "front", k, m), k, m, 1_000, seed)]


# -- paper_cli: the paper's own problem, one fresh interpreter per command ----

TABLE1_SCORES = {"X1": -0.36, "X2": -0.42, "X3": -0.29}


def table1_path() -> Path:
    return Path(__file__).resolve().parent.parent / "src" / "ifhv" / "data" / "table1.problem"


def _check_table1(scores: dict, path: Path) -> None:
    from ifhv import IFS, ReferenceKind, hamming, parse_problem, rank_by_reference

    _check_hvas_scores(scores, path)
    for label, value in TABLE1_SCORES.items():
        expect(abs(scores[label] - value) <= 0.005, f"table1 {label}: net hypervolume {scores[label]!r}")
    expect(sorted(scores, key=scores.get, reverse=True) == ["X3", "X1", "X2"],
           "table1: HVAS order is not X3 > X1 > X2")
    problem = parse_problem(path)
    sets = [IFS(tuple(row[i] for row in problem.evaluations[0]))
            for i in range(problem.n_alternatives)]
    for ref in (ReferenceKind.PIS, ReferenceKind.NIS):
        order = rank_by_reference(sets, hamming, ref, labels=problem.alternatives).order
        expect(order == (("X3",), ("X1", "X2")), f"table1: Hamming/{ref.value} order is {order}")


def _paper_invocations(seed: int, directory: Path) -> list[Invocation]:
    return _decide_pair(table1_path(), fresh=True, expected_scores=_check_table1)


def _paper_warmup(seed: int, directory: Path) -> list[Invocation]:
    # in-process, so the benchmark process itself runs the commands once
    return _decide_pair(table1_path(), expected_scores=_check_table1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide", _decide_inputs, _decide_invocations, _decide_warmup),
        Workload("audit", _no_inputs, _audit_invocations, _audit_warmup),
        Workload("hypervolume", _hv_inputs, _hv_invocations, _hv_warmup),
        Workload("paper_cli", _no_inputs, _paper_invocations, _paper_warmup),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(np.random.default_rng(seed), directory)
