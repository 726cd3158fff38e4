"""Bad arguments raise the package's own errors, all under `IfhvError`."""

import math

import numpy as np
import pytest

from ifhv import (
    IFN,
    CompareConfig,
    CriterionKind,
    CriterionSpec,
    DecisionProblem,
    DistanceMeasure,
    DomainError,
    HVConfig,
    IfhvError,
    MeasureKind,
    ValidationError,
    audit,
    build_ranking,
    check_axioms,
    hamming,
    hv_set,
    iso_nis_pairs,
    mc_oracle,
    problem_from_dict,
)
from ifhv.report import render


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: check_axioms(hamming, samples=0), id="check_axioms-samples"),
        pytest.param(lambda: mc_oracle([(0.5, 0.5)], (-1.0, -1.0), samples=0), id="mc_oracle-samples"),
        pytest.param(lambda: iso_nis_pairs(hamming, 0), id="iso_nis_pairs-count"),
        pytest.param(lambda: audit(hamming, budget=0), id="audit-budget"),
        pytest.param(lambda: audit(hamming, eps=math.nan), id="audit-eps-nan"),
        pytest.param(lambda: audit(hamming, eps=0.0), id="audit-eps-zero"),
        pytest.param(lambda: audit(hamming, delta=math.inf), id="audit-delta-inf"),
        pytest.param(lambda: audit(hamming, delta=-1e-3), id="audit-delta-negative"),
    ],
)
def test_bad_argument_is_an_ifhv_error(call):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, IfhvError)


@pytest.mark.parametrize(
    "call,name",
    [
        pytest.param(lambda: HVConfig(alpha="x"), "alpha", id="HVConfig-alpha"),
        pytest.param(lambda: HVConfig(tie_tolerance="x"), "tie_tolerance", id="HVConfig-tie"),
        pytest.param(lambda: HVConfig(reference=(-1.0, "x")), "reference", id="HVConfig-reference"),
        pytest.param(lambda: CompareConfig(tau="x"), "tau", id="CompareConfig-tau"),
        pytest.param(lambda: CompareConfig(v="x"), "v", id="CompareConfig-v"),
        pytest.param(lambda: CompareConfig(tie_tolerance=None), "tie_tolerance",
                     id="CompareConfig-tie-None"),
        pytest.param(lambda: build_ranking("m", ["a"], [0.0], tie_tolerance="x"), "tie_tolerance",
                     id="build_ranking-tie"),
        pytest.param(lambda: audit(hamming, budget="5"), "budget", id="audit-budget-str"),
        pytest.param(lambda: audit(hamming, budget=2.5), "budget", id="audit-budget-float"),
        pytest.param(lambda: audit(hamming, eps="x"), "eps", id="audit-eps-str"),
        pytest.param(lambda: audit(hamming, delta=None), "delta", id="audit-delta-None"),
        pytest.param(lambda: check_axioms(hamming, samples="x"), "samples", id="axioms-samples-str"),
        pytest.param(lambda: check_axioms(hamming, samples=2.5), "samples", id="axioms-samples-float"),
        pytest.param(lambda: iso_nis_pairs(hamming, "5"), "count", id="iso_nis_pairs-count-str"),
        pytest.param(lambda: mc_oracle([(0.5, 0.5)], (-1.0, -1.0), samples="x"), "samples",
                     id="mc_oracle-samples-str"),
        pytest.param(lambda: mc_oracle([(0.5, 0.5)], (-1.0, -1.0), samples=5.0), "samples",
                     id="mc_oracle-samples-float"),
        pytest.param(lambda: audit(hamming, seed="x"), "seed", id="audit-seed-str"),
        pytest.param(lambda: check_axioms(hamming, seed=1.5), "seed", id="axioms-seed-float"),
        pytest.param(lambda: iso_nis_pairs(hamming, 5, seed=None), "seed", id="iso_nis_pairs-seed-None"),
        pytest.param(lambda: IFN("x", 0.1), "mu", id="IFN-mu-str"),
        pytest.param(lambda: IFN(0.1, None), "nu", id="IFN-nu-None"),
    ],
)
def test_non_numeric_argument_is_a_domain_error_naming_it(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an? (number|integer), got "):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: HVConfig(alpha=2), r"alpha must lie in \[-1, 1\], got 2.0"),
        (lambda: CompareConfig(v=-1), r"v must lie in \[0, 1\], got -1.0"),
        (lambda: CompareConfig(tie_tolerance=-1),
         "tie_tolerance: a tie tolerance must be a non-negative finite number, got -1.0"),
        (lambda: audit(hamming, budget=0), "budget must be >= 1"),
        (lambda: audit(hamming, eps=-1), "eps and delta must be positive finite numbers"),
        (lambda: check_axioms(hamming, samples=0), "samples must be >= 1"),
        pytest.param(lambda: mc_oracle([(0.5, 0.5)], (-1.0, -1.0), samples=0),
                     "samples must be >= 1", id="mc_oracle-samples"),
        pytest.param(lambda: iso_nis_pairs(hamming, 0), "count must be >= 1", id="iso_nis_pairs-count"),
        pytest.param(lambda: audit(hamming, seed=-1), "seed must be >= 0", id="audit-seed"),
        pytest.param(lambda: check_axioms(hamming, seed=-1), "seed must be >= 0", id="axioms-seed"),
        pytest.param(lambda: iso_nis_pairs(hamming, 5, seed=-1), "seed must be >= 0",
                     id="iso_nis_pairs-seed"),
        pytest.param(lambda: mc_oracle([], (-1.0, -1.0), seed=-1), "seed must be >= 0",
                     id="mc_oracle-seed"),
        pytest.param(lambda: IFN(1.5, 0.0), r"IFN components must lie in \[0, 1\], got \(1.5, 0.0\)",
                     id="IFN-range"),
    ],
)
def test_numeric_values_keep_their_messages(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_numeric_arguments_are_converted():
    assert type(audit(hamming, budget=np.int64(5), eps=1, delta="0.001").eps) is float
    assert audit(hamming, budget=np.int64(5)).budget == 5
    assert check_axioms(hamming, samples=np.int64(5)).samples == 5
    assert CompareConfig(tau="0.1").tau == 0.1


def _problem(alternatives=("A1",), criteria=("c1",), dms=("dm1",)):
    n, m, q = len(alternatives), len(criteria), len(dms)
    return DecisionProblem.from_arrays(
        alternatives,
        [CriterionSpec(c, CriterionKind.BENEFIT) for c in criteria],
        dms,
        np.full((q, m, n, 2), 0.25),
        np.full((q, m, 2), 0.25),
        np.ones((q, m)),
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: DistanceMeasure("none", MeasureKind.LINEAR), DomainError,
                     "a DistanceMeasure needs exactly one of kernel or function", id="measure-empty"),
        pytest.param(lambda: _problem(alternatives=()), DomainError,
                     "a problem needs at least one alternative, criterion, and DM",
                     id="problem-no-alternative"),
        pytest.param(lambda: _problem(criteria=("c1", "c1")), DomainError,
                     "criterion ids must be unique", id="problem-duplicate-criterion"),
        pytest.param(lambda: _problem(dms=("dm1", "dm1")), DomainError,
                     "DM ids must be unique", id="problem-duplicate-dm"),
        pytest.param(lambda: HVConfig(reference=()), DomainError,
                     "reference must have at least one coordinate", id="HVConfig-reference-empty"),
        pytest.param(lambda: HVConfig(reference=(-1.0, math.nan)), DomainError,
                     "reference coordinates must be finite", id="HVConfig-reference-nan"),
        pytest.param(lambda: hv_set([(0.5, 0.5)], (0.0, math.inf)), DomainError,
                     r"reference must be a non-empty sequence of finite numbers: \(0.0, inf\)",
                     id="hv_set-reference-inf"),
        pytest.param(lambda: problem_from_dict([]), ValidationError,
                     "<problem>: top level must be an object", id="problem_from_dict-list"),
        pytest.param(lambda: build_ranking("m", [], []), DomainError,
                     "cannot rank an empty collection", id="build_ranking-empty"),
        pytest.param(lambda: render({"command": "hv"}, "xml"), DomainError,
                     "unknown report format 'xml'; choose from md, json, csv", id="render-format"),
        pytest.param(lambda: render({"command": "nope"}, "md"), DomainError,
                     "no md renderer for report command 'nope'", id="render-command"),
    ],
)
def test_rejected_input_keeps_its_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
