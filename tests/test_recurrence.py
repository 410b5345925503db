"""The sum-free recurrence set F and its two membership oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from interpsets import recurrence as R
from oracles import digit_membership


def test_index_sets_dyadic():
    assert R.index_set(1, 9) == [1, 3, 5, 7, 9]
    assert R.index_set(2, 10) == [2, 6, 10]
    assert R.index_set(3, 20) == [4, 12, 20]
    assert R.index_set(4, 8) == [8]
    assert R.index_set(10 ** 20, 10 ** 6) == []    # 2^(10^20 - 1) is never built


@given(st.integers(1, 8), st.integers(0, 10 ** 4))
@settings(max_examples=60, deadline=None)
def test_index_set_is_the_valuation_class(n, upto):
    got = R.index_set(n, upto)
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got == [k for k in range(1, upto + 1) if R.in_index_set(k, n)]


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_index_sets_pairwise_disjoint(n, m, i, j):
    if n != m:
        upto = 2 ** 5 * 99
        assert R.index_set(n, upto)[i - 1] != R.index_set(m, upto)[j - 1]
        assert not set(R.index_set(n, upto)) & set(R.index_set(m, upto))


def test_min_index_at_least_n():
    for n in range(1, 12):
        assert min(R.index_set(n, 2 ** (n + 1))) == 2 ** (n - 1) >= n


def test_in_index_set_by_valuation():
    assert R.in_index_set(5, 1) and not R.in_index_set(5, 2)
    assert R.in_index_set(6, 2) and not R.in_index_set(6, 1)
    assert R.in_index_set(12, 3)


def test_generators_are_the_powers_that_fit():
    # every 10^k with k in I_n and 10^k <= top, by a search over the powers
    tops = list(range(-3, 3001)) + [10 ** e + d for e in range(4, 13)
                                    for d in (-2, -1, 0, 1)]
    for n in range(1, 8):
        for top in tops:
            want, k = [], 1
            while 10 ** k <= top:
                if R.in_index_set(k, n):
                    want.append(10 ** k)
                k += 1
            assert R._generators(n, top) == want, (n, top)


def test_ip_closure_examples():
    assert R.ip_closure([10, 1000], 2, 10 ** 6) == [10, 1000, 1010]
    assert R.ip_closure([1, 2, 4], 3, 100) == [1, 2, 3, 4, 5, 6, 7]
    assert R.ip_closure([5], 1, 100) == [5]


def test_ip_closure_respects_depth_and_bound():
    assert R.ip_closure([1, 2, 4], 2, 100) == [1, 2, 3, 4, 5, 6]
    assert R.ip_closure([1, 2, 4], 3, 5) == [1, 2, 3, 4, 5]


def test_build_f_200():
    model = R.build_F(200)
    assert model.elements == (11, 102)
    shifts = [digit_membership(x) for x in model.elements]
    assert shifts == [(True, 1), (True, 2)]
    assert all((x - n) % 10 ** n == 0
               for x, (_, n) in zip(model.elements, shifts))


def test_build_f_2000():
    assert R.build_F(2000).elements == (11, 102, 1001, 1011)


def test_build_f_tiny_empty():
    assert R.build_F(10).elements == ()
    for n in range(-1, 11):
        assert R.build_F(n) == R.FSetModel(n, ())
        assert digit_membership(n) == (False, None)


@pytest.mark.parametrize("bound", [10, 1000])
def test_shift_ip_refuses_depth_0_at_every_bound(bound):
    # at bound 10 no generator of J_1 fits, which once skipped the check
    with pytest.raises(ValueError, match="depth must be >= 1"):
        R.verify_shift_ip(R.build_F(bound), 1, 0)


def test_build_f_divisibility():
    # x = j + n with j in J_n, and every generator 10^k of J_n has k >= n
    for x in R.build_F(10 ** 7).elements:
        member, n = digit_membership(x)
        assert member and (x - n) % 10 ** n == 0, x


def test_sum_free_exhaustive():
    model = R.build_F(10 ** 6)
    report = R.verify_sum_free(model.elements, 10 ** 6)
    assert report.ok and report.counterexample is None


def test_sum_free_stops_at_the_bound():
    # F = {11, 102, 1001, 1011}: 1001 + 1001 passes 2000, so the 7 pairs
    # with sums below the bound are all that is checked
    report = R.verify_sum_free(R.build_F(2000).elements, 2000)
    assert report.ok and report.pairs_checked == 7


def test_sum_free_detects_injected_fault():
    model = R.build_F(200)
    report = R.verify_sum_free(list(model.elements) + [113], 200)
    assert not report.ok
    assert report.counterexample == (11, 102, 113)


def test_sum_free_vacuous():
    assert R.verify_sum_free((), 10).ok


def test_shift_ip_examples():
    model = R.build_F(10 ** 6)
    rep1 = R.verify_shift_ip(model, 1, 3)
    assert rep1.ok
    assert rep1.required == (10, 1000, 1010, 100000, 100010, 101000, 101010)
    rep2 = R.verify_shift_ip(model, 2, 1)
    assert rep2.ok and rep2.required == (100,)
    # J_3 starts at 10^4
    rep3 = R.verify_shift_ip(R.build_F(9000), 3, 3)
    assert rep3.ok and rep3.required == ()


def test_shift_ip_depth_two():
    model = R.build_F(10 ** 6)
    rep = R.verify_shift_ip(model, 1, 2)
    assert rep.ok
    assert rep.required == (10, 1000, 1010, 100000, 100010, 101000)


def test_digit_membership_scalar():
    assert digit_membership(11) == (True, 1)
    assert digit_membership(102) == (True, 2)
    assert digit_membership(1011) == (True, 1)
    assert digit_membership(113) == (False, None)
    assert digit_membership(12) == (False, None)


def test_digit_oracle_agrees_to_1e6():
    model = R.build_F(10 ** 6)
    assert R.digit_enumerate(10 ** 6) == list(model.elements)


@pytest.mark.parametrize("n_bound", list(dict.fromkeys([10 ** 9] + [
    10 ** j + d for j in range(1, 9) for d in (-1, 0, 1)] + [
    10 ** (1 << (n - 1)) + n + d for n in (2, 3, 4, 5) for d in (-1, 0)] + [
    10 ** 12, 10 ** 18, 10 ** 24])))
def test_digit_oracle_agrees_with_build_f_at_the_cap(n_bound):
    # the threshold inputs are the bounds at which shift n first has a member
    # (101 for n = 2 is already a 10^j + 1 case, so duplicates are dropped);
    # the walk takes one step per candidate member, 4 167 members at 10^24
    assert R.digit_enumerate(n_bound) == list(R.build_F(n_bound).elements)


@pytest.fixture(scope="module")
def scalar_members():
    """Members of F up to 10^6 + 3 by the scalar digit oracle, one per x;
    membership does not depend on the bound, so each N takes a prefix."""
    return [x for x in range(1, 10 ** 6 + 4) if digit_membership(x)[0]]


@pytest.mark.parametrize("n_bound", [
    1, 10, 11, 99, 100, 101, 9_999, 10_000, 10_001, 10 ** 5, 10 ** 6 + 3])
def test_digit_enumerate_matches_scalar_oracle(scalar_members, n_bound):
    # 10^k adds a digit to n_bound, and with it the patterns of one more place
    assert R.digit_enumerate(n_bound) == [
        x for x in scalar_members if x <= n_bound]


def test_fset_exports_to_intsets():
    assert R.build_F(2000).elements == (11, 102, 1001, 1011)
