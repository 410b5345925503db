"""Totally minimal leveled construction at fast scales.

The full two-level run on [1, 2^18] lives in the acceptance suite; here
a one-level window and membership edge cases keep the loop tight.
"""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpsets import construct as K
from interpsets import intsets as S
from interpsets.words import SymbolWord

from oracles import at, is_member_level, parse_member

POW = S.IntegerSetModel.lacunary_powers


@pytest.fixture(scope="module")
def one_level():
    problem = K.random_problem(POW(2), 2, 4096, seed=5)
    return problem, K.totally_minimal_construct(problem, levels=1)


def test_level_zero_anchors(one_level):
    _, trace = one_level
    lvl0 = trace.levels[0]
    assert lvl0.m == 1
    assert tuple(lvl0.w.symbols) == (0,)
    assert [tuple(t.symbols) for t in lvl0.t_sample] == [(0,), (1,)]
    assert len(lvl0.t_prime_sample) == 4
    assert tuple(lvl0.t_prime_sample[0].symbols) == (0, 0)    # v_0


def test_level_one_schedule(one_level):
    _, trace = one_level
    lvl1 = trace.levels[1]
    # G_0 = 4 * 1 * (2 + 4) = 24; spacing bound on the powers window is 56
    assert lvl1.gap_required == 24
    assert lvl1.m == 56
    # w_1 = w_0^44 U_0, with U_0 = T_0, then T'_0, then v_0
    w1 = tuple(trace.levels[1].w.symbols)
    assert w1[:44] == (0,) * 44
    assert w1[44:] == (0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0)


def test_structural_checks(one_level):
    problem, trace = one_level
    checks = {c.predicate: c.holds for c in K.verify_trace(trace, problem)}
    assert all(checks.values()), checks


def test_restriction(one_level):
    problem, trace = one_level
    for s, v in zip(S.window(problem.model, problem.n).tolist(),
                    problem.f.symbols.tolist()):
        if s <= len(trace.result):
            assert at(trace.result, s) == v


def test_membership_positive(one_level):
    _, trace = one_level
    lvl1 = trace.levels[1]
    assert is_member_level(lvl1.w, 1, trace)
    assert all(is_member_level(t, 1, trace) for t in lvl1.t_sample)
    assert all(is_member_level(t, 1, trace) for t in lvl1.t_prime_sample)
    # level 0: any symbol, any pair
    assert is_member_level(SymbolWord(2, (1,)), 0, trace)
    assert is_member_level(SymbolWord(2, (1, 0)), 0, trace)


def test_membership_rejects_constant(one_level):
    _, trace = one_level
    m1 = trace.levels[1].m
    assert not is_member_level(SymbolWord(2, (0,) * m1), 1, trace)
    assert not is_member_level(SymbolWord(2, (1,) * m1), 1, trace)


def test_membership_rejects_step_words(one_level):
    _, trace = one_level
    m1 = trace.levels[1].m
    rng = random.Random(7)
    for _ in range(10):
        ell = rng.randrange(2, m1 - 1)
        a, b = rng.choice([(0, 1), (1, 0)])
        w = SymbolWord(2, (a,) * ell + (b,) * (m1 - ell))
        assert not is_member_level(w, 1, trace)


def test_membership_length_error(one_level):
    _, trace = one_level
    with pytest.raises(ValueError):
        is_member_level(SymbolWord(2, (0,) * 10), 1, trace)
    with pytest.raises(ValueError):
        is_member_level(SymbolWord(2, (0,)), 3, trace)


def test_window_too_small_is_structured():
    problem = K.random_problem(POW(2), 2, 100, seed=1)
    with pytest.raises(K.ConstructionRefused) as err:
        K.totally_minimal_construct(problem, levels=2)
    witness = err.value.certificate.witness
    assert witness["level"] == 2
    assert witness["required_gap"] == 4 * 56 * 56 * 4


def test_no_gap_at_all_is_structured():
    problem = K.random_problem(S.IntegerSetModel.arithmetic_progression(7, 0),
                               2, 5000, seed=1)
    with pytest.raises(K.ConstructionRefused) as err:
        K.totally_minimal_construct(problem, levels=1)
    witness = err.value.certificate.witness
    assert witness["level"] == 1
    assert witness["certificate"] is not None
    assert not S.Certificate.from_json(witness["certificate"]).holds


def test_deterministic_traces():
    problem = K.random_problem(POW(2), 2, 4096, seed=9)
    t1 = K.totally_minimal_construct(problem, levels=1)
    t2 = K.totally_minimal_construct(problem, levels=1)
    assert t1.result == t2.result
    assert len(t1.fillings) == len(t2.fillings)
    assert all(np.array_equal(a, b) for a, b in zip(t1.fillings, t2.fillings))
    assert [l.w for l in t1.levels] == [l.w for l in t2.levels]


def test_construct_memory_budget():
    # tracemalloc peak 1.64 MB with NumPy 2.4, with int8 cells at k = 2;
    # int64 fillings peaked at 7.14 MB on the same problem.
    problem = K.random_problem(POW(2), 2, 2 ** 18, seed=5)
    tracemalloc.start()
    try:
        K.totally_minimal_construct(problem, levels=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0e6, peak


def test_verify_trace_working_set():
    # tracemalloc peak per cell of N: whole-filling masks (three per pair
    # of levels, and one more for the result) peaked at 2.01; slice by
    # slice, 1.41, most of it the top blocks' parse check, which now also
    # runs a slice of pieces at a time: 0.29 (NumPy 2.4).
    problem = K.random_problem(POW(2), 2, 2 ** 18, seed=1)
    trace = K.totally_minimal_construct(problem, levels=2)
    tracemalloc.start()
    try:
        certs = K.verify_trace(trace, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.holds for c in certs)
    assert peak / problem.n <= 1.6, peak / problem.n


def test_parse_check_working_set():
    # tracemalloc peak per cell of a top block (m_2 = 115 808), checked
    # against its recorded parse: gathering every piece, the anchor rows it
    # names and their mismatch mask peaked at 3.04; a slice of pieces at a
    # time, the peak is 0.55, arrays of one entry per piece (NumPy 2.4).
    problem = K.random_problem(POW(2), 2, 2 ** 18, seed=1)
    trace = K.totally_minimal_construct(problem, levels=2)
    m, b = trace.final_m, min(trace.levels[-1].filled)
    block = SymbolWord(2, trace.result.symbols[b * m:(b + 1) * m])
    tracemalloc.start()
    try:
        ok = parse_member(block, 2, trace.levels[-1].filled[b], trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak / m <= 1.0, peak / m


def test_closing_blocks_are_anchor_copies():
    problem = K.random_problem(POW(2), 2, 4096, seed=5)
    trace = K.totally_minimal_construct(problem, levels=1)
    m1 = trace.levels[1].m
    w1 = tuple(trace.levels[1].w.symbols)
    for b in trace.closing_blocks:
        assert tuple(trace.result.symbols[b * m1:(b + 1) * m1]) == w1


# -- parse witnesses -------------------------------------------------------------


def _parsed_words(trace):
    """(word, level, recorded Parse) for every T_j and T'_j word with j >= 1
    and every aligned result block."""
    for j, lvl in enumerate(trace.levels[1:], 1):
        for w, p in zip(lvl.t_sample + lvl.t_prime_sample, lvl.parses):
            yield w, j, p
    top = len(trace.levels) - 1
    m = trace.final_m
    for b in range(len(trace.result) // m):
        block = SymbolWord(trace.alphabet_size, trace.result.symbols[b * m:(b + 1) * m])
        yield block, top, (trace.levels[top].parses[0] if b in trace.closing_blocks
                           else trace.levels[top].filled[b])


SPARSE_SETS = ["kind=powers base=2", "kind=powers base=3", "kind=ap a=97 b=5",
               "kind=union of=(kind=ap a=211 b=3)(kind=powers base=3)"]


@given(spec=st.sampled_from(SPARSE_SETS), k=st.sampled_from([2, 3]),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_parse_check_agrees_with_dp(spec, k, seed):
    problem = K.random_problem(S.parse_set_spec(spec), k, 3000, seed)
    trace = K.totally_minimal_construct(problem, levels=1)
    for word, level, parse in _parsed_words(trace):
        assert parse_member(word, level, parse, trace)
        assert is_member_level(word, level, trace)


@pytest.fixture(scope="module")
def two_levels():
    problem = K.random_problem(POW(2), 2, 2 ** 18, seed=21)
    return problem, K.totally_minimal_construct(problem, levels=2)


@pytest.mark.parametrize("k, base, n", [(2, 2, 2 ** 18), (3, 3, 2 ** 20)])
@pytest.mark.parametrize("levels", [1, 2])
def test_anchors_of_every_level_are_distinct(k, base, n, levels):
    # a Parse names an anchor by its position in T_j then T'_j, which is
    # one word only while no two anchors of the level are equal
    problem = K.random_problem(POW(base), k, n, seed=levels)
    trace = K.totally_minimal_construct(problem, levels=levels)
    assert len(trace.levels) == levels + 1
    for lvl in trace.levels:
        anchors = lvl.t_sample + lvl.t_prime_sample
        assert len(set(anchors)) == len(anchors) >= 4


def test_parse_check_agrees_with_dp_at_two_levels(two_levels):
    problem, trace = two_levels
    words = list(_parsed_words(trace))
    assert len(words) == 4 + 4 + len(trace.result) // trace.final_m
    for word, level, parse in words:
        assert parse_member(word, level, parse, trace)
        assert is_member_level(word, level, trace)
    assert all(c.holds for c in K.verify_trace(trace, problem))


def _with(parse, p, start=None, index=None):
    """A copy of parse with piece p moved to `start` or given `index`."""
    starts, idx = parse.starts.copy(), parse.index.copy()
    if start is not None:
        starts[p] = start
    if index is not None:
        idx[p] = index
    return K.Parse(starts, idx, dict(parse.subs))


def _without(parse, pieces, index0):
    """A copy of parse without the given pieces, its first piece indexed
    index0."""
    keep = np.setdiff1d(np.arange(parse.starts.size), pieces)
    idx = parse.index[keep].copy()
    idx[0] = index0
    return K.Parse(parse.starts[keep], idx, {})


def _mutated_parses(trace):
    """w_1's recorded Parse with a shifted boundary, a wrong anchor index,
    the one piece carrying anchor (1,) dropped to a non-anchor, a piece of
    length 3, an anchor piece one symbol too long and a first piece that
    does not start at 0.  w_1 opens with a run of (0,) pieces, so anchor
    (0,) stays covered by the others."""
    parse = trace.levels[1].parses[0]
    assert parse.index[:3].tolist() == [0, 0, 0]
    ones = np.flatnonzero(parse.index == 1)        # anchor (1,) of T_0
    assert ones.size == 1
    p = int(ones[0])
    return {"shifted boundary": _with(parse, p, start=parse.starts[p] + 1),
            "wrong anchor index": _with(parse, p, index=0),
            "anchor bit dropped": _with(parse, p, index=-1),
            "piece of length 3": _without(parse, [1, 2], -1),
            "anchor piece too long": _without(parse, [1], 0),
            "first piece not at 0": _without(parse, [0], 0)}


def test_mutated_parse_fails_exactly_the_parse_check(one_level):
    problem, trace = one_level
    w1 = trace.levels[1].w
    assert is_member_level(w1, 1, trace)
    for name, bad in _mutated_parses(trace).items():
        assert not parse_member(w1, 1, bad, trace), name
        levels = list(trace.levels)
        levels[1] = dataclasses.replace(
            levels[1], parses=(bad,) + levels[1].parses[1:])
        failing = {c.predicate for c in
                   K.verify_trace(dataclasses.replace(trace, levels=levels), problem)
                   if not c.holds}
        # closing blocks are copies of w_1, so their proof fails with it
        assert failing == {"anchor-membership", "block-membership"}, name


def _with_filled(trace, filled):
    """A copy of trace whose top level recorded the block parses `filled`."""
    top = dataclasses.replace(trace.levels[-1], filled=filled)
    return dataclasses.replace(trace, levels=trace.levels[:-1] + [top])


def test_mutated_block_parse_fails_only_block_membership(one_level):
    problem, trace = one_level
    filled = trace.levels[-1].filled
    b = min(filled)
    sub = filled[b]
    p = int(np.flatnonzero(sub.index >= 0)[1])
    block_parse = _with(sub, p, start=sub.starts[p] + 1)
    bad = _with_filled(trace, {**filled, b: block_parse})
    failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
    assert failing == {"block-membership"}
    # a filled block is no anchor, so without its own Parse nothing proves it
    subs = {q: sub for q, sub in filled.items() if q != b}
    bad = _with_filled(trace, subs)
    failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
    assert failing == {"block-membership"}


def test_block_membership_reads_closing_blocks_then_filled(one_level):
    problem, trace = one_level
    m = trace.final_m
    # a result that is not a positive multiple of m_J fails, never raises
    for cut in (0, m - 1, len(trace.result) - 1):
        short = dataclasses.replace(
            trace, result=SymbolWord(2, trace.result.symbols[:cut]))
        checks = {c.predicate: c.holds for c in K.verify_trace(short, problem)}
        assert checks["block-membership"] is False
    # a closing block not named as one has no recorded Parse to prove it
    closing = trace.closing_blocks[1:]
    bad = dataclasses.replace(trace, closing_blocks=closing)
    failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
    assert failing == {"block-membership"}
    # a filled block named as closing is not w_J
    filled = min(trace.levels[-1].filled)
    bad = dataclasses.replace(trace, closing_blocks=(filled, *closing))
    failing = {c.predicate for c in K.verify_trace(bad, problem) if not c.holds}
    assert failing == {"block-membership"}


def test_changed_cell_at_a_piece_slice_edge_fails_its_parse(two_levels):
    # the anchor pieces of each length are compared a slice of pieces at a
    # time; a changed first or last cell of the pieces on either side of a
    # slice edge, or of the last piece, must still fail the parse
    _, trace = two_levels
    w, parse = trace.levels[2].w, trace.levels[2].parses[0]
    m = trace.levels[1].m
    lens = np.diff(parse.starts, append=len(w))
    cells = []
    for length in (m, m + 1):
        sel = np.flatnonzero((parse.index >= 0) & (lens == length))
        step = max(1, K._SLICE // length)
        assert sel.size > step
        for p in (sel[step - 1], sel[step], sel[-1]):
            cells += [parse.starts[p], parse.starts[p] + length - 1]
    assert parse_member(w, 2, parse, trace)
    for cell in cells:
        sym = w.symbols.copy()
        sym[cell] ^= 1
        assert not parse_member(SymbolWord(2, sym), 2, parse, trace), cell


def test_mutated_word_fails_under_its_parse(one_level, two_levels):
    rng = random.Random(3)
    for _, trace in (one_level, two_levels):
        for level in range(1, len(trace.levels)):
            w, parse = trace.levels[level].w, trace.levels[level].parses[0]
            for at in rng.sample(range(len(w)), 5):
                sym = list(w.symbols)
                sym[at] = 1 - sym[at]
                assert not parse_member(SymbolWord(2, tuple(sym)), level,
                                        parse, trace)


def _toy_family():
    """A hand-made family with m = 1, 4, 13, 54, the smallest in which a
    level (3) counts anchors by residue mod 2! = 2: T_0 = {0, 1},
    T'_0 = {00}; T_1 = {0100}, T'_1 = {01000}; T_2 = {a}, T'_2 = {b} with
    a = 0100 0100 01000 and b = 0100 01000 01000."""
    def word(s):
        return SymbolWord(2, tuple(int(c) for c in s))

    def parse(starts, index):
        return K.Parse(np.array(starts, np.int32), np.array(index, np.int32), {})

    def level(j, m, t, tp, parses=None):
        return K.LevelData(j, m, tuple(map(word, t)),
                           t_prime_sample=tuple(map(word, tp)), parses=parses)

    a, b = "0100" "0100" "01000", "0100" "01000" "01000"
    levels = [level(0, 1, ["0", "1"], ["00"]),
              level(1, 4, ["0100"], ["01000"],
                    (parse([0, 1, 2], [0, 1, 2]), parse([0, 1, 2, 4], [0, 1, 2, 0]))),
              level(2, 13, [a], [b], (parse([0, 4, 8], [0, 0, 1]),
                                      parse([0, 4, 9], [0, 1, 1]))),
              level(3, 54, [a + b + a + b], [])]
    trace = K.ConstructionTrace("totally-minimal", 2, 54, "toy", levels, [],
                                word(a + b + a + b), ())
    return trace, word, parse, a, b


def test_residues_count_at_level_three():
    trace, word, parse, a, b = _toy_family()
    # a b a b puts a at offsets 0, 27 and b at 13, 40: both residues of each
    good = word(a + b + a + b)
    assert parse_member(good, 3, parse([0, 13, 27, 40], [0, 1, 0, 1]), trace)
    assert is_member_level(good, 3, trace)
    # a a b b tiles with the same anchors, but b only at even offsets
    bad = word(a + a + b + b)
    assert not parse_member(bad, 3, parse([0, 13, 26, 40], [0, 0, 1, 1]), trace)
    assert not is_member_level(bad, 3, trace)
    # dropping the b at offset 13 to a non-anchor (proved by its own parse)
    # leaves the pair (b, 1) uncovered
    dropped = K.Parse(np.array([0, 13, 27, 40], np.int32),
                      np.array([0, -1, 0, 1], np.int32),
                      {1: trace.levels[2].parses[1]})
    assert not parse_member(good, 3, dropped, trace)
    # an anchor whose own parse is wrong proves nothing above it
    levels = list(trace.levels)
    levels[2] = dataclasses.replace(
        levels[2], parses=(levels[2].parses[0], parse([0, 5, 9], [1, 0, 1])))
    broken = dataclasses.replace(trace, levels=levels)
    assert not parse_member(good, 3, parse([0, 13, 27, 40], [0, 1, 0, 1]), broken)


def test_deep_verify_does_not_search(one_level, two_levels, monkeypatch):
    # deep verify proves every anchor once and then reads the recorded
    # parses
    calls = {"_proven": 0}
    for name in calls:
        real = getattr(K, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(K, name, counted)
    for problem, trace in (one_level, two_levels):
        checks = K.verify_trace(trace, problem)
        assert [c.predicate for c in checks][-2:] == ["anchor-membership",
                                                      "block-membership"]
        assert all(c.holds for c in checks)
    assert calls == {"_proven": 2}
    # a search would still find the split of a block whose parse is gone;
    # deep verify has only the record, so block-membership fails
    problem, trace = two_levels
    subs = dict(trace.levels[-1].filled)
    del subs[min(subs)]
    cut = _with_filled(trace, subs)
    checks = {c.predicate: c.holds for c in K.verify_trace(cut, problem)}
    assert checks.pop("block-membership") is False
    assert all(checks.values()), checks


def test_parse_member_refuses_other_shapes(one_level):
    _, trace = one_level
    parse = trace.levels[1].parses[0]
    with pytest.raises(ValueError):
        parse_member(SymbolWord(2, (0,) * 10), 1, parse, trace)
    with pytest.raises(ValueError):
        parse_member(trace.levels[1].w, 0, parse, trace)
