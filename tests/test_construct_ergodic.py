"""Strictly ergodic leveled construction at fast scales."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpsets import construct as K
from interpsets import intsets as S
from interpsets.words import SymbolWord

import oracles
from oracles import is_ergodic_member

CUBES = S.IntegerSetModel.explicit_window([n ** 3 for n in range(1, 13)])


@pytest.fixture(scope="module")
def two_level():
    problem = K.random_problem(CUBES, 2, 2000, seed=3)
    return problem, K.strictly_ergodic_construct(problem, levels=2)


def test_level_zero(two_level):
    _, trace = two_level
    lvl0 = trace.levels[0]
    assert lvl0.m == 1 and tuple(lvl0.w.symbols) == (0,)


def test_level_schedule(two_level):
    _, trace = two_level
    m1, m2 = trace.levels[1].m, trace.levels[2].m
    assert m1 % 2 == 0 and m1 > 2 * len(trace.levels[0].t_sample)
    assert m2 % (4 * m1) == 0 and m2 > 4 * m1 * len(trace.levels[1].t_sample)
    # density bounds recorded per level and strictly below the requirement
    assert trace.levels[1].density_bound < 1
    count, _ = S.max_window_count(CUBES, 2000, m2)
    assert count * 4 * m1 < m2


@given(st.sets(st.integers(1, 300), min_size=1, max_size=150),
       st.integers(8, 300), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_level_length_matches_scan(members, n, k):
    # the plan skips a length whose tiling average already fails; its
    # m_1, density bound and refusal are those of one scan per length
    model = S.IntegerSetModel.explicit_window(sorted(members))
    problem = K.random_problem(model, k, n, seed=1)
    want = oracles.ergodic_level_length(model, n, 2, k + 1)
    try:
        lvl = K.strictly_ergodic_construct(problem, levels=1).levels[1]
    except K.ConstructionRefused as exc:
        assert want is None
        past = 2 * max(k + 1, n // 2 + 1)     # the first length past N
        assert str(exc) == (f"level 1: window {n} cannot satisfy the density "
                            f"bound 1/2 at level length {past}")
    else:
        assert (lvl.m, lvl.density_bound) == want


def test_dense_refusal_scans_no_ruled_out_length(monkeypatch):
    # 2t consecutive integers hold t evens, so the tiling average rules
    # out every length 2t: the refusal makes no window scan at all, where
    # one scan per length took minutes at this N
    scanned = []
    real = K.max_window_count

    def counted(model, n, length):
        scanned.append(length)
        return real(model, n, length)

    monkeypatch.setattr(K, "max_window_count", counted)
    problem = K.random_problem(S.IntegerSetModel.arithmetic_progression(2, 0),
                               2, 2 ** 17, seed=1)
    with pytest.raises(K.ConstructionRefused,
                       match="1/2 at level length 131074$"):
        K.strictly_ergodic_construct(problem, levels=1)
    assert scanned == []


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
    blocks = [tuple(w2.symbols[c:c + m1].tolist()) for c in range(0, len(w2), m1)]
    w1 = tuple(trace.levels[1].w.symbols.tolist())
    big_r = len(blocks)
    w_count = sum(1 for b in blocks if b == w1)
    assert 2 * w_count >= big_r            # at least (1 - 1/2) R copies
    for t in trace.levels[1].t_sample:
        assert tuple(t.symbols.tolist()) in blocks


def test_restriction_alternating():
    f = {c: i % 2 for i, c in enumerate(CUBES.elements(2000))}
    problem = K.InterpolationProblem.from_pairs(CUBES, 2, 2000, f.items())
    trace = K.strictly_ergodic_construct(problem, levels=2)
    for s, v in f.items():
        if s <= len(trace.result):
            assert trace.result.at(s) == v


def test_member_checker(two_level):
    _, trace = two_level
    assert is_ergodic_member(trace.levels[1].w, 1, trace)
    assert is_ergodic_member(trace.levels[2].w, 2, trace)
    m2 = trace.levels[2].m
    assert not is_ergodic_member(SymbolWord(2, (0,) * m2), 2, trace)
    with pytest.raises(ValueError):
        is_ergodic_member(SymbolWord(2, (0,) * 3), 1, trace)


def test_array_check_matches_recursion(two_level):
    # the array check of verify_trace against the tuple recursion, on the
    # anchor samples, on every fully filled block and on mutated copies
    _, trace = two_level
    rng = random.Random(4)
    words = []
    for level in (1, 2):
        m = trace.levels[level].m
        words += [(t, level) for t in trace.levels[level].t_sample]
        fill = trace.fillings[level]
        for b, *_ in K.ergodic_block_report(trace, level):
            words.append((SymbolWord(2, tuple(fill[b * m:(b + 1) * m].tolist())), level))
    for w, level in list(words):
        for _ in range(3):
            sym = list(w.symbols)
            at = rng.randrange(len(sym))
            span = rng.choice([1, trace.levels[level - 1].m])
            sym[at:at + span] = [rng.randrange(2)] * len(sym[at:at + span])
            words.append((SymbolWord(2, tuple(sym)), level))
    # too many variants: the first R/2 + 1 copies of w_1 in w_2 become T_1[1],
    # so every anchor is still there but the frequency bound fails
    w1 = tuple(trace.levels[1].w.symbols.tolist())
    var = tuple(trace.levels[1].t_sample[1].symbols.tolist())
    m1 = len(w1)
    rows = [tuple(trace.levels[2].w.symbols[c:c + m1].tolist())
            for c in range(0, trace.levels[2].m, m1)]
    swap = [r for r, row in enumerate(rows) if row == w1][:len(rows) // 2 + 1]
    assert len(swap) < rows.count(w1)              # one copy of w_1 stays
    words.append((SymbolWord(2, sum((var if r in swap else row
                                     for r, row in enumerate(rows)), ())), 2))
    verdicts = [is_ergodic_member(w, level, trace) for w, level in words]
    assert True in verdicts and False in verdicts
    assert [K._frequency_member(w, level, trace) for w, level in words] == verdicts
    assert not K._frequency_member(SymbolWord(2, (0,) * 3), 1, trace)


def test_density_failure_is_structured():
    dense = S.IntegerSetModel.arithmetic_progression(1, 0)
    problem = K.random_problem(dense, 2, 500, seed=1)
    with pytest.raises(K.ConstructionRefused) as err:
        K.strictly_ergodic_construct(problem, levels=1)
    assert err.value.certificate.witness["level"] == 1


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
    anchors = {tuple(t.symbols.tolist()) for t in trace.levels[level - 1].t_sample}
    w_prev = tuple(trace.levels[level - 1].w.symbols.tolist())
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
