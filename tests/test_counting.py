"""Exact low-weight counts against the enumeration oracle.

The small expected values (4, 33, 7, 1, ...) were recomputed by direct
enumeration before freezing.  One test documents that the count family
is NOT submultiplicative across concatenation (|S(2,1/2,2)| = 3 exceeds
|S(1,1/2,2)|^2 = 1), so the analytic limit is approached from below and
is not an infimum of the finite rates.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interpsets import counting as C
from oracles import sandwich_bounds

HALF = Fraction(1, 2)
DELTAS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), HALF)


def test_entropy_h_endpoints():
    assert C.entropy_H(0) == 0.0
    assert C.entropy_H(1) == 0.0
    assert C.entropy_H(HALF) == pytest.approx(math.log(2))


def test_entropy_h_symmetry():
    for d in (0.1, 0.25, 0.4):
        assert C.entropy_H(d) == pytest.approx(C.entropy_H(1 - d))


def test_entropy_h_range_error():
    with pytest.raises(ValueError):
        C.entropy_H(1.5)


def test_count_examples():
    assert C.count_low_weight(3, Fraction(1, 3), 2).count == 4
    assert C.count_low_weight(4, HALF, 3).count == 33
    assert C.count_low_weight(1, Fraction(0), 2).count == 1


@st.composite
def _deltas(draw):
    """delta = a/b <= 1/2 with b <= 20."""
    b = draw(st.integers(1, 20))
    return Fraction(draw(st.integers(0, b // 2)), b)


@given(st.integers(1, 300), _deltas(), st.integers(2, 10))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_count_equals_the_binomial_sum(m, d, k):
    # the term recurrence against one math.comb per term
    t = math.floor(d * m)
    expected = sum((k - 1) ** i * math.comb(m, i) for i in range(t + 1))
    assert C.count_low_weight(m, d, k).count == expected


def test_brute_examples():
    assert C.brute_force_count(3, Fraction(1, 3), 2) == 4
    assert C.brute_force_count(2, HALF, 4) == 7
    assert C.brute_force_count(5, Fraction(0), 3) == 1


def test_delta_above_half_rejected():
    with pytest.raises(ValueError):
        C.count_low_weight(4, Fraction(2, 3), 2)
    with pytest.raises(ValueError):
        C.brute_force_count(4, Fraction(2, 3), 2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        C.count_low_weight(4, 0.25, 2)


def test_oracle_grid_small():
    for k in (2, 3, 4):
        for m in range(1, 11):
            for d in DELTAS:
                assert C.brute_force_count(m, d, k) == C.count_low_weight(m, d, k).count


def _product_count(m, d, k):
    # every word of {0..k-1}^m, one at a time
    return sum(1 for w in itertools.product(range(k), repeat=m)
               if w.count(0) >= (1 - d) * m)


def test_split_matches_naive_directly():
    # the half-word split agrees with a direct scan of the word space
    for k, m in ((2, 12), (3, 8), (4, 6)):
        for d in DELTAS:
            assert C._split_count(m, d, k) == _product_count(m, d, k)


def test_oracle_work_cap():
    with pytest.raises(ValueError):
        C.brute_force_count(60, HALF, 4)


def test_sandwich_examples():
    assert sandwich_bounds(4, HALF, 3) == (24, 72)
    assert sandwich_bounds(3, Fraction(1, 3), 2) == (3, 6)
    assert sandwich_bounds(7, Fraction(0), 5) == (1, 1)


@given(st.integers(1, 60), st.sampled_from(DELTAS), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_sandwich_contains_count(m, d, k):
    lo, hi = sandwich_bounds(m, d, k)
    count = C.count_low_weight(m, d, k).count
    assert lo <= count <= hi


@given(st.integers(1, 40), st.sampled_from(DELTAS), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_count_monotone(m, d, k):
    base = C.count_low_weight(m, d, k).count
    assert C.count_low_weight(m + 1, d, k).count >= base
    assert C.count_low_weight(m, d, k + 1).count >= base
    bigger = [x for x in DELTAS if x > d]
    if bigger:
        assert C.count_low_weight(m, bigger[0], k).count >= base


def test_growth_profile_shape():
    prof = C.growth_rate_profile(HALF, 2, [10, 25, 50, 100, 200])
    rates = [r.log_rate for r in prof.rows]
    assert all(a >= b for a, b in zip(prof.running_inf, prof.running_inf[1:]))
    # exact rates sit below the analytic reference and close in on it
    limit = prof.rows[0].analytic_limit
    assert all(r <= limit for r in rates)
    assert rates[-1] > rates[0]
    assert abs(rates[-1] - limit) < abs(rates[0] - limit)


def test_growth_profile_zero_delta():
    prof = C.growth_rate_profile(Fraction(0), 4, [5, 10, 20])
    assert all(r.log_rate == 0.0 for r in prof.rows)
    assert prof.running_inf == (0.0, 0.0, 0.0)


def test_growth_profile_requires_ascending():
    with pytest.raises(ValueError):
        C.growth_rate_profile(HALF, 2, [10, 10])


def test_counts_not_submultiplicative():
    # the subadditivity a Fekete argument would need fails at finite m
    assert C.count_low_weight(2, HALF, 2).count == 3
    assert C.count_low_weight(1, HALF, 2).count ** 2 == 1
    a25 = C.count_low_weight(25, HALF, 2).count
    a50 = C.count_low_weight(50, HALF, 2).count
    assert a50 > a25 * a25


def test_rate_vs_analytic_limit_at_400():
    for d, k in ((HALF, 2), (Fraction(1, 4), 3), (Fraction(1, 3), 4)):
        row = C.count_low_weight(400, d, k)
        assert abs(row.log_rate - row.analytic_limit) < 0.03


def test_cross_check_h_quarter():
    # H(1/4) recovered from exact counts at m = 400 within 0.03
    row = C.count_low_weight(400, Fraction(1, 4), 2)
    assert abs(row.log_rate - C.entropy_H(Fraction(1, 4))) < 0.03
