"""Totally minimal leveled construction at fast scales.

The full two-level run on [1, 2^18] lives in the acceptance suite; here
a one-level window and membership edge cases keep the loop tight.
"""

import random

import numpy as np
import pytest

from interpsets import construct as K
from interpsets import intsets as S
from interpsets.words import SymbolWord

POW = S.IntegerSetModel.lacunary_powers


@pytest.fixture(scope="module")
def one_level():
    problem = K.random_problem(POW(2), 2, 4096, seed=5)
    return problem, K.totally_minimal_construct(problem, levels=1)


def test_level_zero_anchors(one_level):
    _, trace = one_level
    lvl0 = trace.levels[0]
    assert lvl0.m == 1
    assert lvl0.w.symbols == (0,)
    assert [t.symbols for t in lvl0.t_sample] == [(0,), (1,)]
    assert len(lvl0.t_prime_sample) == 4
    assert lvl0.v_anchor.symbols == (0, 0)


def test_level_one_schedule(one_level):
    _, trace = one_level
    lvl1 = trace.levels[1]
    # G_0 = 4 * 1 * (2 + 4) = 24; spacing bound on the powers window is 56
    assert lvl1.gap_required == 24
    assert lvl1.m == 56
    u = trace.levels[0].u_block
    assert u.symbols == (0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0)
    assert trace.levels[1].w.symbols[:44] == (0,) * 44
    assert trace.levels[1].w.symbols[44:] == u.symbols


def test_structural_checks(one_level):
    problem, trace = one_level
    checks = {c.predicate: c.holds for c in K.verify_trace(trace, problem)}
    assert all(checks.values()), checks


def test_restriction(one_level):
    problem, trace = one_level
    for s, v in problem.f.items():
        if s <= len(trace.result):
            assert trace.result.at(s) == v


def test_membership_positive(one_level):
    _, trace = one_level
    lvl1 = trace.levels[1]
    assert K.is_member_level(lvl1.w, 1, trace)
    assert all(K.is_member_level(t, 1, trace) for t in lvl1.t_sample)
    assert all(K.is_member_level(t, 1, trace) for t in lvl1.t_prime_sample)
    # level 0: any symbol, any pair
    assert K.is_member_level(SymbolWord(2, (1,)), 0, trace)
    assert K.is_member_level(SymbolWord(2, (1, 0)), 0, trace)


def test_membership_rejects_constant(one_level):
    _, trace = one_level
    m1 = trace.levels[1].m
    assert not K.is_member_level(SymbolWord(2, (0,) * m1), 1, trace)
    assert not K.is_member_level(SymbolWord(2, (1,) * m1), 1, trace)


def test_membership_rejects_step_words(one_level):
    _, trace = one_level
    m1 = trace.levels[1].m
    rng = random.Random(7)
    for _ in range(10):
        ell = rng.randrange(2, m1 - 1)
        a, b = rng.choice([(0, 1), (1, 0)])
        w = SymbolWord(2, (a,) * ell + (b,) * (m1 - ell))
        assert not K.is_member_level(w, 1, trace)


def test_membership_length_error(one_level):
    _, trace = one_level
    with pytest.raises(ValueError):
        K.is_member_level(SymbolWord(2, (0,) * 10), 1, trace)
    with pytest.raises(ValueError):
        K.is_member_level(SymbolWord(2, (0,)), 3, trace)


def test_window_too_small_is_structured():
    problem = K.random_problem(POW(2), 2, 100, seed=1)
    with pytest.raises(K.LevelWindowError) as err:
        K.totally_minimal_construct(problem, levels=2)
    assert err.value.level == 2
    assert err.value.required_gap == 4 * 56 * 56 * 4


def test_no_gap_at_all_is_structured():
    problem = K.random_problem(S.IntegerSetModel.arithmetic_progression(7, 0),
                               2, 5000, seed=1)
    with pytest.raises(K.LevelWindowError) as err:
        K.totally_minimal_construct(problem, levels=1)
    assert err.value.level == 1
    assert err.value.certificate is not None
    assert not err.value.certificate.holds


def test_deterministic_traces():
    problem = K.random_problem(POW(2), 2, 4096, seed=9)
    t1 = K.totally_minimal_construct(problem, levels=1)
    t2 = K.totally_minimal_construct(problem, levels=1)
    assert t1.result == t2.result
    assert len(t1.fillings) == len(t2.fillings)
    assert all(np.array_equal(a, b) for a, b in zip(t1.fillings, t2.fillings))
    assert [l.w for l in t1.levels] == [l.w for l in t2.levels]


def test_closing_blocks_are_anchor_copies():
    problem = K.random_problem(POW(2), 2, 4096, seed=5)
    trace = K.totally_minimal_construct(problem, levels=1)
    m1 = trace.levels[1].m
    w1 = trace.levels[1].w.symbols
    for b in trace.closing_blocks:
        assert trace.result.symbols[b * m1:(b + 1) * m1] == w1
