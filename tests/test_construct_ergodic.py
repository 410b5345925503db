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
from oracles import at, is_ergodic_member

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


def _filled_blocks(trace, level):
    """Each aligned level block with no unfilled cell in fillings[level],
    as a word."""
    m = trace.levels[level].m
    fill = trace.fillings[level]
    return [SymbolWord(trace.alphabet_size, fill[b * m:(b + 1) * m])
            for b in range(trace.window // m)
            if (fill[b * m:(b + 1) * m] != K.UNFILLED).all()]


def _member(w, level, trace):
    return K._frequency_member(w.symbols, level, trace.levels)


def test_block_conditions(two_level):
    _, trace = two_level
    blocks = _filled_blocks(trace, 2)
    assert blocks, "no fully defined blocks"
    w1 = trace.levels[1].w.symbols
    m1 = len(w1)
    big_r = trace.levels[2].m // m1
    for w in blocks:
        assert _member(w, 2, trace) and is_ergodic_member(w, 2, trace)
        non_anchor = (w.symbols.reshape(big_r, m1) != w1).any(axis=1).sum()
        assert non_anchor * 2 <= big_r
        # one more sub-block other than w_1 past R/2 breaks the bound
        sym = w.symbols.reshape(big_r, m1).copy()
        sym[:big_r // 2 + 1] = 1 - w1
        bad = SymbolWord(2, sym.ravel())
        assert not _member(bad, 2, trace) and not is_ergodic_member(bad, 2, trace)


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
            assert at(trace.result, s) == v


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
        words += [(t, level) for t in trace.levels[level].t_sample]
        words += [(w, level) for w in _filled_blocks(trace, level)]
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
    assert [_member(w, level, trace) for w, level in words] == verdicts
    assert not _member(SymbolWord(2, (0,) * 3), 1, trace)


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


def test_block_report_matches_loop(two_level):
    problem, trace = two_level
    for level in (1, 2):
        blocks = _filled_blocks(trace, level)
        assert blocks
        assert all(_member(w, level, trace) and is_ergodic_member(w, level, trace)
                   for w in blocks)
    # break the first block's anchor cover alone (every copy of T_1[1]
    # becomes w_1, which only lowers the non-anchor count), then its
    # anchor cover and frequency bound at once (all ones)
    m, m1 = trace.levels[2].m, trace.levels[1].m
    w1, var = (t.symbols for t in trace.levels[1].t_sample)
    rows = trace.result.symbols[:m].reshape(-1, m1).copy()
    rows[(rows == var).all(axis=1)] = w1
    for first in (rows.ravel(), np.ones(m, np.uint8)):
        w = SymbolWord(2, first)
        assert not _member(w, 2, trace) and not is_ergodic_member(w, 2, trace)
        sym = trace.result.symbols.copy()
        sym[:m] = first
        bad = dataclasses.replace(trace, result=SymbolWord(2, sym),
                                  fillings=[f.copy() for f in trace.fillings])
        bad.fillings[2][:m] = first
        failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
        assert "block-frequencies" in failing


def test_block_frequencies_checks_every_level():
    # zero one level-1 sub-block that was free at level 1, in the top
    # filling and the result alike: the filling stays monotone and x|_S = f
    # still holds, and at the top level the block only gains one sub-block
    # other than w_1, but that sub-block no longer holds the anchor 1 of T_0
    cubes = S.IntegerSetModel.explicit_window([i ** 3 for i in range(1, 47)])
    problem = K.random_problem(cubes, 2, 10 ** 5, seed=9)
    trace = K.strictly_ergodic_construct(problem, levels=2)
    m1 = trace.levels[1].m
    free = [b for b in range(len(trace.result) // m1)
            if (trace.fillings[1][b * m1:(b + 1) * m1] == K.UNFILLED).all()]
    b = free[0]
    sym = trace.result.symbols.copy()
    sym[b * m1:(b + 1) * m1] = 0
    bad = dataclasses.replace(trace, fillings=[f.copy() for f in trace.fillings],
                              result=SymbolWord(2, sym))
    bad.fillings[2][b * m1:(b + 1) * m1] = 0
    checks = [(c.predicate, c.holds) for c in K.verify_trace(bad, problem)]
    assert [name for name, ok in checks if not ok] == ["block-frequencies"]


@pytest.mark.parametrize("level, scale, shift",
                         [(1, 1, 1), (1, 2, 0), (2, 1, 1), (2, 1, -1)])
def test_broken_level_chain_is_no_member(two_level, level, scale, shift):
    # a level length that no longer divides the next one, or that the
    # level's own anchors no longer have, answers False and never raises
    problem, trace = two_level
    lv = list(trace.levels)
    lv[level] = dataclasses.replace(lv[level], m=lv[level].m * scale + shift)
    assert not K._frequency_member(trace.result.symbols, 2, lv)
    assert not K._frequency_member(trace.levels[2].w.symbols, 2, lv)
    bad = dataclasses.replace(trace, levels=lv)
    failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
    assert {"anchor-membership", "block-frequencies"} <= failing
