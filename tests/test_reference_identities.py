"""Closed-form relations between each built-in measure's distances to the
positive ideal (PIS, every element (1, 0)) and the negative ideal (NIS, every
element (0, 1)). With S = mean(mu - nu) over a set's elements:

    hamming                  d_PIS = (1 - S) / 2 and d_NIS = (1 + S) / 2
    euclidean2, euclidean3   d_PIS^2 = d_NIS^2 - S
    hausdorff                d_PIS = 1 - mean(mu) and d_NIS = 1 - mean(nu)

Per element, (1 - mu)^2 + nu^2 - mu^2 - (1 - nu)^2 = 2 (nu - mu), and the
hesitancy difference is pi against both ideals, so it cancels; mu + nu <= 1
makes max(1 - mu, nu) = 1 - mu and max(mu, 1 - nu) = 1 - nu. So a PIS and a
NIS ranking agree under `hamming` always, under the Euclidean measures when
ordering by d_NIS^2 - S and by d_NIS agree, and under `hausdorff` when
ordering by mean(mu) and by -mean(nu) agree: a NIS ranking ignores mu.
"""

from fractions import Fraction

import numpy as np
import pytest

from ifhv import IFS, audit, euclidean2, euclidean3, hamming, hausdorff, robustness_check
from ifhv.distances import sample_simplex
from ifhv.fixtures import table1_path
import exact
from exact import gamma

PIS, NIS = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
MEASURES = (hamming, euclidean2, euclidean3, hausdorff)


def relative_bound(n: int) -> Fraction:
    """A bound on |float d - exact d| / exact d for a built-in measure over
    sets of n elements, from the operation count (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., ch. 3). Each element's
    term is non-negative and carries at most gamma_14: euclidean3's is the
    worst, with two rounded differences, a hesitancy difference whose square
    errs by at most 8.01 u times dmu^2 + dnu^2, three rounded squares and two
    sums. The mean of n terms adds n - 1 sums and one division, and a square
    root at most halves the error and adds one rounding."""
    return gamma(n + 14)


def pairs(mu, nu) -> list[tuple[Fraction, Fraction]]:
    """A float set's (mu, nu) pairs, each converted exactly."""
    out = [(Fraction(m), Fraction(v)) for m, v in zip(mu.tolist(), nu.tolist())]
    assert all(m + v <= 1 for m, v in out)  # valid in exact arithmetic too
    return out


def mean_gap(elements) -> Fraction:
    """S = mean(mu - nu) of a set's elements."""
    return sum(m - v for m, v in elements) / len(elements)


def exact_keys(measure, elements) -> tuple[Fraction, Fraction]:
    """(d_PIS, d_NIS) as the identities give them, squared for the Euclidean
    measures, from the exact d_NIS of `exact`."""
    s = mean_gap(elements)
    if measure is hamming:
        return (1 - s) / 2, (1 + s) / 2
    if measure is hausdorff:
        n = len(elements)
        return 1 - sum(m for m, _ in elements) / n, 1 - sum(v for _, v in elements) / n
    d_nis = exact.euclidean_squared(elements, [NIS] * len(elements), measure is euclidean3)
    return d_nis - s, d_nis


def exact_distance(measure, a, b) -> Fraction:
    """A measure's exact distance by its definition, squared for the Euclidean ones."""
    if measure is hamming:
        return exact.hamming(a, b)
    if measure is hausdorff:
        return exact.hausdorff(a, b)
    return exact.euclidean_squared(a, b, measure is euclidean3)


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
def test_identities_are_exact(measure):
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        for _ in range(25):
            elements = pairs(*sample_simplex(rng, n))
            keys = exact_keys(measure, elements)
            assert keys == tuple(
                exact_distance(measure, elements, [ideal] * n) for ideal in (PIS, NIS)
            )


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
def test_identities_hold_through_evaluate_many_within_the_float_bound(measure):
    rng = np.random.default_rng(10)
    for n in range(1, 9):
        mu, nu = sample_simplex(rng, (50, n))
        g = relative_bound(n)
        d_pis, d_nis = (
            [Fraction(d) for d in measure.evaluate_many(mu, nu, *ideal).tolist()]
            for ideal in ((1.0, 0.0), (0.0, 1.0))
        )
        for row, (pis, nis) in enumerate(zip(d_pis, d_nis)):
            elements = pairs(mu[row], nu[row])
            if measure in (euclidean2, euclidean3):
                # each square errs by at most (2 g + g^2) d^2 <= 3.03 g d_float^2
                assert abs(pis**2 - nis**2 + mean_gap(elements)) <= 4 * g * (pis**2 + nis**2)
            else:
                for value, key in zip((pis, nis), exact_keys(measure, elements)):
                    assert abs(value - key) <= g * key


def separated(keys, bound: Fraction) -> bool:
    """Whether every two keys differ by more than `bound` times their sum, so
    that the float distances they stand for keep the exact order."""
    ordered = sorted(keys)
    return all(b - a > bound * (a + b) for a, b in zip(ordered, ordered[1:]))


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
def test_robustness_check_agrees_with_the_predicted_orders(measure):
    rng = np.random.default_rng(11)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        count, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        draws = [sample_simplex(rng, n) for _ in range(count)]
        keys = [exact_keys(measure, pairs(mu, nu)) for mu, nu in draws]
        pis_keys, nis_keys = zip(*keys)
        # a squared key's float error is at most 4 g times it (see above)
        if not (separated(pis_keys, 4 * relative_bound(n))
                and separated(nis_keys, 4 * relative_bound(n))):
            continue
        by_pis = sorted(range(count), key=lambda i: pis_keys[i])
        by_nis = sorted(range(count), key=lambda i: -nis_keys[i])
        sets = [IFS.from_pairs(zip(mu, nu)) for mu, nu in draws]
        agree = robustness_check(sets, measure, tie_tolerance=0.0)
        assert agree == (by_pis == by_nis)
        outcomes[agree] += 1
    assert sum(outcomes.values()) >= 195
    if measure is hamming:
        assert outcomes[False] == 0
    else:
        assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("measure", (euclidean2, euclidean3, hausdorff), ids=lambda m: m.name)
def test_every_audit_witness_satisfies_its_identity(measure):
    report = audit(measure, budget=2000, seed=7)
    assert report.counterexamples
    g = relative_bound(1)
    for witness in report.counterexamples:
        stored = {
            "a": (witness.d_pis_a, witness.d_nis_a),
            "b": (witness.d_pis_b, witness.d_nis_b),
        }
        for name, ifn in (("a", witness.a), ("b", witness.b)):
            elements = [(Fraction(ifn.mu), Fraction(ifn.nu))]
            pis, nis = map(Fraction, stored[name])
            if measure is hausdorff:
                for value, key in zip((pis, nis), exact_keys(measure, elements)):
                    assert abs(value - key) <= g * key
            else:
                assert abs(pis**2 - nis**2 + mean_gap(elements)) <= 4 * g * (pis**2 + nis**2)
    if measure is hausdorff:
        # equal d_NIS means equal nu, and the d_PIS gap is the mu gap
        for witness in report.counterexamples:
            assert abs(witness.a.nu - witness.b.nu) <= report.eps + 2 * g
            assert abs(witness.a.mu - witness.b.mu) > report.delta - 2 * g


def test_table1_hamming_tie_is_an_equal_mean_score():
    problem = exact.from_text(table1_path().read_text())
    x1, x2, x3 = exact.columns(exact.weighted(problem))
    assert mean_gap(x1) == mean_gap(x2) == Fraction(-3, 20)
    assert mean_gap(x3) == Fraction(-1, 10)
    for column in (x1, x2, x3):
        assert exact_keys(hamming, column) == (
            exact.hamming(column, [PIS] * len(column)),
            exact.hamming(column, [NIS] * len(column)),
        )
