"""Bad arguments raise the package's own errors, all under `IfhvError`."""

import math

import pytest

from ifhv import DomainError, IfhvError, audit, check_axioms, hamming, iso_nis_pairs, mc_oracle


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
