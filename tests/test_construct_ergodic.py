"""Strictly ergodic leveled construction at fast scales."""

import dataclasses

import numpy as np
import pytest

from interpsets import construct as K
from interpsets import intsets as S

CUBES = S.IntegerSetModel.explicit_window([n ** 3 for n in range(1, 13)])


@pytest.fixture(scope="module")
def two_level():
    problem = K.random_problem(CUBES, 2, 2000, seed=3)
    return problem, K.strictly_ergodic_construct(problem, levels=2)


def test_level_zero(two_level):
    _, trace = two_level
    lvl0 = trace.levels[0]
    assert lvl0.m == 1 and lvl0.w.symbols == (0,)


def test_level_schedule(two_level):
    _, trace = two_level
    m1, m2 = trace.levels[1].m, trace.levels[2].m
    assert m1 % 2 == 0 and m1 > 2 * len(trace.levels[0].t_sample)
    assert m2 % (4 * m1) == 0 and m2 > 4 * m1 * len(trace.levels[1].t_sample)
    # density bounds recorded per level and strictly below the requirement
    assert trace.levels[1].density_bound < 1
    count, _ = S.max_window_count(CUBES, 2000, m2)
    assert count * 4 * m1 < m2


def test_structure(two_level):
    problem, trace = two_level
    checks = {c.predicate: c.holds for c in K.verify_trace(trace, problem)}
    assert all(checks.values()), checks


def test_block_conditions(two_level):
    _, trace = two_level
    report = K.ergodic_block_report(trace, 2)
    assert report, "no fully defined blocks"
    big_r = trace.levels[2].m // trace.levels[1].m
    for _b, frac_ok, cover_ok, non_anchor in report:
        assert frac_ok and cover_ok
        assert non_anchor * 2 <= big_r


def test_anchor_word_frequencies(two_level):
    _, trace = two_level
    w2 = trace.levels[2].w
    m1 = trace.levels[1].m
    blocks = [w2.symbols[c:c + m1] for c in range(0, len(w2), m1)]
    w1 = trace.levels[1].w.symbols
    big_r = len(blocks)
    w_count = sum(1 for b in blocks if b == w1)
    assert 2 * w_count >= big_r            # at least (1 - 1/2) R copies
    for t in trace.levels[1].t_sample:
        assert t.symbols in blocks


def test_restriction_alternating():
    f = {c: i % 2 for i, c in enumerate(CUBES.elements(2000))}
    problem = K.InterpolationProblem(CUBES, 2, 2000, f)
    trace = K.strictly_ergodic_construct(problem, levels=2)
    for s, v in f.items():
        if s <= len(trace.result):
            assert trace.result.at(s) == v


def test_member_checker(two_level):
    _, trace = two_level
    assert K.is_ergodic_member(trace.levels[1].w, 1, trace)
    assert K.is_ergodic_member(trace.levels[2].w, 2, trace)
    from interpsets.words import SymbolWord
    m2 = trace.levels[2].m
    assert not K.is_ergodic_member(SymbolWord(2, (0,) * m2), 2, trace)
    with pytest.raises(ValueError):
        K.is_ergodic_member(SymbolWord(2, (0,) * 3), 1, trace)


def test_density_failure_is_structured():
    dense = S.IntegerSetModel.arithmetic_progression(1, 0)
    problem = K.random_problem(dense, 2, 500, seed=1)
    with pytest.raises(K.LevelWindowError) as err:
        K.strictly_ergodic_construct(problem, levels=1)
    assert err.value.level == 1


def test_deterministic():
    problem = K.random_problem(CUBES, 2, 2000, seed=3)
    t1 = K.strictly_ergodic_construct(problem, levels=2)
    t2 = K.strictly_ergodic_construct(problem, levels=2)
    assert t1.result == t2.result
    assert len(t1.fillings) == len(t2.fillings)
    assert all(np.array_equal(a, b) for a, b in zip(t1.fillings, t2.fillings))


def _loop_block_report(trace, level):
    # the per-block scan over Python tuples, kept as the reference
    m, m_prev = trace.levels[level].m, trace.levels[level - 1].m
    fill = trace.fillings[level].tolist()
    anchors = {t.symbols for t in trace.levels[level - 1].t_sample}
    w_prev = trace.levels[level - 1].w.symbols
    out = []
    for b in range(trace.window // m):
        seg = fill[b * m:(b + 1) * m]
        if -1 in seg:
            continue
        blocks = [tuple(seg[c:c + m_prev]) for c in range(0, m, m_prev)]
        non_anchor = sum(1 for bl in blocks if bl != w_prev)
        out.append((b, non_anchor * level <= m // m_prev,
                    anchors.issubset(blocks), non_anchor))
    return out


def test_block_report_matches_loop(two_level):
    _, trace = two_level
    for level in (1, 2):
        assert K.ergodic_block_report(trace, level) == _loop_block_report(trace, level)
    # break the anchor cover and the frequency bound of the first block
    bad = dataclasses.replace(trace, fillings=[f.copy() for f in trace.fillings])
    m = trace.levels[2].m
    bad.fillings[2][:m] = 1
    report = K.ergodic_block_report(bad, 2)
    assert report == _loop_block_report(bad, 2)
    assert report[0][:3] == (0, False, False)
