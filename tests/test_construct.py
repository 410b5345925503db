"""Zero extension, Sturmian interpolation, mixing extension, witnesses."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpsets import construct as K
from interpsets import counting as C
from interpsets import intsets as S
from interpsets import words as W
from oracles import constant_problem, continued_fraction

AP = S.IntegerSetModel.arithmetic_progression
POW = S.IntegerSetModel.lacunary_powers
EXPL = S.IntegerSetModel.explicit_window

CF_SQRT2M1 = [0] + [2] * 9


def as_dict(model, n, word):
    """A window-aligned word as {s: value} over S intersect [1, n]."""
    return dict(zip(S.window(model, n).tolist(), word.symbols.tolist()))


def f_dict(problem):
    return as_dict(problem.model, problem.n, problem.f)


# -- extend_zero ---------------------------------------------------------------


def test_extend_zero_powers_ones():
    model = POW(2)
    problem = constant_problem(model, 2, 2 ** 14, 1)
    w, _ = K.extend_zero(problem)
    powers = set(model.elements(2 ** 14))
    assert all((w.at(p) == 1) == (p in powers) for p in range(1, 2 ** 14 + 1))


def test_extend_zero_empty_set():
    problem = K.InterpolationProblem.from_pairs(EXPL([], 100), 2, 100, [])
    w, profile = K.extend_zero(problem)
    assert set(w.symbols) == {0}
    assert all(profile.p[n] == 1 for n in profile.p)


def test_extend_zero_squares_entropy():
    model = EXPL([n * n for n in range(1, 101)])
    problem = K.random_problem(model, 3, 10 ** 4, seed=7)
    w, profile = K.extend_zero(problem)
    assert all(w.at(s) == v for s, v in f_dict(problem).items())
    assert profile.h_est[64] < 0.15


def test_extend_zero_entropy_control_bridge():
    # factor counts stay below the low-weight word counts at the certified
    # banach density of the support
    model = EXPL([n * n for n in range(1, 101)])
    n = 10 ** 4
    problem = K.random_problem(model, 3, n, seed=13)
    w, _ = K.extend_zero(problem)
    eta = Fraction(S.max_window_count(model, n, 16)[0], 16)
    assert W.factor_counts(w, 16)[-1] <= C.count_low_weight(16, eta, 3).count


# -- sturmian ------------------------------------------------------------------


def test_sturmian_constant_two():
    model = S.IntegerSetModel.sturmian_floor([0, 2])
    w = K.sturmian_interpolate(constant_problem(model, 3, 12, 2))
    assert tuple(w.symbols) == (0, 2) * 6
    assert W.factor_counts(w, 2) == [2, 2]


def test_sturmian_restriction_identity():
    model = S.IntegerSetModel.sturmian_floor([0, 2, 2])  # delta = 2/5
    problem = K.random_problem(model, 4, 500, seed=3)
    w = K.sturmian_interpolate(problem)
    assert all(w.at(s) == v for s, v in f_dict(problem).items())
    off = set(f_dict(problem))
    assert all(w.at(p) == 0 for p in range(1, 501) if p not in off)


def test_sturmian_factor_bound():
    model = S.IntegerSetModel.sturmian_floor(CF_SQRT2M1)
    delta = model.delta()
    problem = K.random_problem(model, 2, 10 ** 4, seed=5)
    w = K.sturmian_interpolate(problem)
    counts = W.factor_counts(w, 20)
    for m in (6, 12, 20):
        assert counts[m - 1] <= (m + 1) * 2 ** math.ceil(m * delta)


def test_sturmian_domain_error():
    with pytest.raises(K.DomainError):
        K.InterpolationProblem.from_pairs(
            S.IntegerSetModel.sturmian_floor([0, 2]), 2, 10, [(3, 1)])


def test_sturmian_needs_a_sturmian_set():
    with pytest.raises(ValueError, match="sturmian set_spec"):
        K.sturmian_interpolate(K.random_problem(AP(2, 0), 2, 100, seed=1))


def test_sturmian_delta_range():
    with pytest.raises(ValueError):
        model = S.IntegerSetModel.sturmian_floor(
            continued_fraction(Fraction(3, 5)))
        K.sturmian_interpolate(constant_problem(model, 2, 10, 0))


# -- mixing --------------------------------------------------------------------


def test_mixing_refuses_even_numbers():
    problem = K.random_problem(AP(2, 0), 2, 100, seed=1)
    with pytest.raises(K.ConstructionRefused) as err:
        K.mixing_extend(problem, 4)
    witness = err.value.certificate.witness
    cert = S.Certificate.from_json(witness["certificate"])
    assert cert.holds and cert.predicate == "syndetic" and cert.scale["g"] == 2
    assert witness["available_run"] == 1


def test_mixing_powers_cover_all_4_words():
    problem = K.random_problem(POW(2), 2, 2 ** 12, seed=11)
    ext = K.mixing_extend(problem, 4)
    assert ext.l_cover == 4
    assert W.factor_counts(ext.word, 4) == [2, 4, 8, 16]
    assert all(ext.word.at(s) == v for s, v in f_dict(problem).items())


def test_mixing_l_cover_counts_full_lengths():
    # short windows truncate the universal prefix, so l_cover < l_target
    for n, expected in ((40, 3), (64, 4), (200, 5)):
        ext = K.mixing_extend(K.random_problem(POW(2), 2, n, seed=1), 6)
        sym = tuple(ext.word.symbols.tolist())
        full = [len({sym[i:i + m] for i in range(n - m + 1)}) == 2 ** m
                for m in range(1, 7)]
        assert ext.l_cover == full.index(False) == expected


def test_mixing_restriction_alternating():
    model = POW(2)
    f = {2 ** i: i % 2 for i in range(1, 13)}
    problem = K.InterpolationProblem.from_pairs(model, 2, 2 ** 12, f.items())
    ext = K.mixing_extend(problem, 3)
    assert all(ext.word.at(2 ** i) == i % 2 for i in range(1, 13))


def test_mixing_placements_are_record_runs():
    problem = K.random_problem(POW(2), 2, 2 ** 12, seed=2)
    ext = K.mixing_extend(problem, 4)
    lengths = [t for _, t in ext.placements]
    assert lengths == sorted(lengths)
    assert lengths[-1] == len(ext.universal)
    powers = set(POW(2).elements(2 ** 12))
    for start, take in ext.placements:
        assert not powers & set(range(start, start + take))


def _mixing_with_the_full_word(problem, l_target):
    """Word and placements of the mixing extension with the universal word
    of order l_target built whole."""
    y = W.universal_word(problem.k, l_target)
    sym = problem.base_word(0)
    placements, record = [], 0
    starts, ends = S.free_runs(S.window(problem.model, problem.n), 1, problem.n)
    for u, v in zip(starts.tolist(), ends.tolist()):
        if v - u + 1 > record:
            record = v - u + 1
            take = min(record, len(y))
            sym[u - 1:u - 1 + take] = y.symbols[:take]
            placements.append((u, take))
            if record >= len(y):
                break
    return W.SymbolWord(problem.k, sym), tuple(placements)


def test_mixing_builds_only_the_universal_prefix_it_places():
    models = (POW(2), POW(3), AP(7, 3),
              S.IntegerSetModel.union_of([POW(5), AP(97, 0)]))
    for model, k, n, l_target in itertools.product(
            models, (1, 2, 3, 5), (50, 300, 4096), (1, 2, 3, 4, 6)):
        problem = K.random_problem(model, k, n, seed=k + n)
        ext = K.mixing_extend(problem, l_target)
        full = W.universal_word(k, l_target)
        assert np.array_equal(ext.universal.symbols,
                              full.symbols[:len(ext.universal)])
        assert (ext.word, ext.placements) \
            == _mixing_with_the_full_word(problem, l_target)
    # the largest run of 2047 takes 8 423 of the 3 368 430 symbols of order 5
    ext = K.mixing_extend(K.random_problem(POW(2), 20, 4096, seed=1), 5)
    assert ext.placements[-1][1] == 2047 and len(ext.universal) == 8423


# -- witness generators --------------------------------------------------------


def test_partition_full_set():
    part = K.syndetic_partition_witness(AP(1, 0), 1, 2, 10 ** 4)
    assert part.covering_ok
    assert part.pieces[0][:4] == (4, 5, 8, 9)       # {4j, 4j+1}
    assert part.pieces[1][:4] == (6, 7, 10, 11)     # {4j+2, 4j+3}
    assert set(part.pieces[0]) & set(part.pieces[1]) == set()


def test_partition_even_numbers():
    part = K.syndetic_partition_witness(AP(2, 0), 2, 3, 10 ** 4)
    assert part.covering_ok and len(part.pieces) == 3
    assert all(part.pieces)
    # the coloring is the interpolation counterexample function
    coloring = as_dict(AP(2, 0), 10 ** 4, part.coloring)
    for i, piece in enumerate(part.pieces):
        assert all(coloring[x] == i for x in piece)


def test_partition_covering_replay():
    part = K.syndetic_partition_witness(AP(2, 0), 2, 3, 2000)
    member = [set(p) for p in part.pieces]
    for i in range(3):
        q = 1
        while 9 * q + 3 * i <= 2000 - 9:
            assert any(9 * q + 3 * i + j in member[i] for j in range(2))
            q += 1


def test_partition_coloring_is_a_problem():
    # the coloring is window-aligned, so it is the counterexample f as is
    part = K.syndetic_partition_witness(AP(2, 0), 2, 3, 2000)
    problem = K.InterpolationProblem(AP(2, 0), 2000, part.coloring)
    assert problem.k == 3
    word = problem.base_word(-1)
    for i, piece in enumerate(part.pieces):
        assert piece and (word[np.array(piece) - 1] == i).all()


def loop_partition(members, g, h, n):
    """The per-element loop with per-target set scans, as a reference:
    (pieces, coloring as {s: i}, targets checked, failures)."""
    hh = h * h
    pieces = [[] for _ in range(h)]
    coloring = {}
    for x in members:
        coloring[x] = 0
        if x >= hh:
            pieces[(x % hh) // h].append(x)
            coloring[x] = (x % hh) // h
    member = [set(p) for p in pieces]
    failures, checked = [], 0
    for i in range(h):
        q = 1
        while hh * q + i * h <= n - hh:
            target = hh * q + i * h
            checked += 1
            if not any(target + j in member[i] for j in range(g)):
                failures.append((i, target))
            q += 1
    return tuple(tuple(p) for p in pieces), coloring, checked, tuple(failures)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 300),
       st.sets(st.integers(1, 300), max_size=60), st.booleans())
@settings(max_examples=80, deadline=None)
def test_partition_matches_loop(g, dh, n, extra, syndetic):
    # the multiples of g make S syndetic at gap g; without them S may miss
    # targets, and the extras vary the pieces
    h = g + dh
    n = max(n, g)
    multiples = set(range(g, 301, g)) if syndetic else set()
    model = EXPL(sorted(multiples | extra))
    part = K.syndetic_partition_witness(model, g, h, n)
    pieces, coloring, checked, failures = loop_partition(
        model.elements(n), g, h, n)
    assert part.pieces == pieces
    assert as_dict(model, n, part.coloring) == coloring
    assert part.covering_checked == checked
    assert part.failures == failures
    assert part.covering_ok == (not failures)


def test_partition_rejects_bad_h():
    with pytest.raises(ValueError):
        K.syndetic_partition_witness(AP(1, 0), 3, 2, 100)


def test_partition_rejects_non_syndetic():
    # the covering check, not a precondition, refuses the powers of 2
    part = K.syndetic_partition_witness(POW(2), 3, 5, 1000)
    *_, checked, failures = loop_partition(POW(2).elements(1000), 3, 5, 1000)
    assert not part.covering_ok
    assert part.failures == failures and part.covering_checked == checked
    assert (0, 25) in part.failures      # S_0 holds no member of [25, 27]


def test_coloring_by_interval_index():
    col = K.density_coloring_witness(AP(1, 0), [(10, 20), (30, 40)], 2, 50)
    coloring = as_dict(AP(1, 0), 50, col.coloring)
    assert {coloring[s] for s in range(10, 20)} == {1}
    assert {coloring[s] for s in range(30, 40)} == {0}
    assert coloring[5] == 0


def test_coloring_order_one():
    col = K.density_coloring_witness(AP(3, 0), [(10, 20)], 1, 60)
    assert set(as_dict(AP(3, 0), 60, col.coloring).values()) == {0}


def test_coloring_three_blocks():
    intervals = [(n * 100, n * 100 + 50) for n in range(1, 10)]
    col = K.density_coloring_witness(AP(3, 0), intervals, 3, 1000)
    coloring = as_dict(AP(3, 0), 1000, col.coloring)
    for idx, (lo, hi) in enumerate(intervals, start=1):
        vals = {coloring[s] for s in range(lo, hi) if s % 3 == 0}
        assert vals == {idx % 3}


def loop_coloring(members, intervals, k):
    """The interval-by-interval scan over all of S, as a reference."""
    coloring = {s: 0 for s in members}
    for idx, (lo, hi) in enumerate(intervals, start=1):
        for s in coloring:
            if lo <= s < hi:
                coloring[s] = idx % k
    return coloring


@given(st.sets(st.integers(1, 100), max_size=40),
       st.lists(st.integers(1, 12), min_size=2, max_size=12),
       st.integers(1, 4), st.integers(1, 120))
@settings(max_examples=60, deadline=None)
def test_coloring_matches_loop(members, cuts, k, n):
    # consecutive cut points give disjoint ascending intervals with holes
    ends = list(itertools.accumulate(cuts))
    intervals = [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])]
    model = EXPL(sorted(members))
    col = K.density_coloring_witness(model, intervals, k, n)
    assert as_dict(model, n, col.coloring) == loop_coloring(
        model.elements(n), intervals, k)


def test_coloring_rejects_overlap():
    with pytest.raises(ValueError):
        K.density_coloring_witness(AP(1, 0), [(10, 30), (20, 40)], 2, 50)


# -- problems ------------------------------------------------------------------


def test_problem_domain_validation():
    with pytest.raises(K.DomainError):
        K.InterpolationProblem.from_pairs(POW(2), 2, 100, [(3, 1)])
    with pytest.raises(K.DomainError):
        K.InterpolationProblem.from_pairs(
            POW(2), 2, 100, {2: 5, 4: 0, 8: 0, 16: 0, 32: 0, 64: 0}.items())


def dict_f(members, k, n, pairs):
    """The dict form f had, with its set-based domain check, as a
    reference: {s: v}, or None where that check refuses."""
    f = dict(pairs)
    if set(f) != {s for s in members if s <= n}:
        return None
    return f if all(0 <= v < k for v in f.values()) else None


@given(st.sets(st.integers(1, 60), max_size=20), st.integers(1, 4),
       st.integers(1, 70), st.data())
@settings(max_examples=80, deadline=None)
def test_from_pairs_matches_dict_oracle(members, k, n, data):
    model = EXPL(sorted(members))
    domain = model.elements(n)
    pairs = [(s, data.draw(st.integers(0, k - 1))) for s in domain]
    fault = data.draw(st.sampled_from(["none", "drop", "extra", "value",
                                       "repeat"]))
    if fault == "drop" and pairs:
        del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    elif fault == "extra":
        off = data.draw(st.integers(-3, 80).filter(lambda s: s not in domain))
        pairs.append((off, 0))
    elif fault == "value" and pairs:
        pairs[0] = (pairs[0][0], data.draw(st.sampled_from([-1, k, k + 3])))
    elif fault == "repeat" and pairs:
        pairs.append((pairs[-1][0], data.draw(st.integers(0, k - 1))))
    shuffled = data.draw(st.permutations(pairs))
    expected = dict_f(members, k, n, pairs)
    if fault == "repeat" and pairs:
        assert expected is not None      # the dict kept the last value
        with pytest.raises(K.DomainError, match=f"position {pairs[-1][0]} "):
            K.InterpolationProblem.from_pairs(model, k, n, pairs)
        return
    if expected is None:
        with pytest.raises(K.DomainError):
            K.InterpolationProblem.from_pairs(model, k, n, pairs)
        return
    a = K.InterpolationProblem.from_pairs(model, k, n, pairs)
    b = K.InterpolationProblem.from_pairs(model, k, n, shuffled)
    assert a == b and hash(a) == hash(b)
    assert a.k == k
    assert a.base_word(-1).tolist() == [expected.get(p, -1)
                                        for p in range(1, n + 1)]


def test_problem_length_must_match_window():
    with pytest.raises(K.DomainError):
        K.InterpolationProblem(POW(2), 100, W.SymbolWord(2, (0, 1)))


def test_base_word_puts_f_on_fill():
    f = {2: 1, 4: 2, 8: 0, 16: 1}
    problem = K.InterpolationProblem.from_pairs(POW(2), 3, 20, f.items())
    assert problem.base_word(-1).tolist() == [f.get(p, -1) for p in range(1, 21)]


@pytest.mark.parametrize("k, dtype", [(128, np.int8), (129, np.int16)])
def test_base_word_callers_at_the_int8_edge(k, dtype):
    # f takes k - 1, which wraps to -128 as an int8 at k = 129; each caller
    # of base_word is held against an int64 word built here
    def problem_on(model, n):
        size = S.window(model, n).size
        return K.InterpolationProblem(
            model, n, W.SymbolWord(k, [(k - 1 - i) % k for i in range(size)]))

    def int64_word(problem, fill):
        out = np.full(problem.n, fill, np.int64)
        out[S.window(problem.model, problem.n) - 1] = problem.f.symbols
        return out

    def restricts(problem, cells):
        return K.restriction_identity(problem, cells, problem.n, {}).holds

    problem = problem_on(POW(2), 4096)
    assert problem.base_word(K.UNFILLED).dtype == dtype
    w, _ = K.extend_zero(problem)
    assert np.array_equal(w.symbols, int64_word(problem, 0))
    assert restricts(problem, w.symbols)

    sturmian = problem_on(S.IntegerSetModel.sturmian_floor([0, 3]), 300)
    w = K.sturmian_interpolate(sturmian)
    assert np.array_equal(w.symbols, int64_word(sturmian, 0))
    assert restricts(sturmian, w.symbols)

    ext = K.mixing_extend(problem, 2)
    want = int64_word(problem, 0)
    for u, take in ext.placements:
        want[u - 1:u - 1 + take] = ext.universal.symbols[:take]
    assert np.array_equal(ext.word.symbols, want)
    assert restricts(problem, ext.word.symbols)

    for build in (K.totally_minimal_construct, K.strictly_ergodic_construct):
        trace = build(problem, levels=1)
        assert np.array_equal(trace.fillings[0], int64_word(problem, K.UNFILLED))
        assert all(c.holds for c in K.verify_trace(trace, problem)), build


def test_random_problem_deterministic():
    a = K.random_problem(POW(2), 3, 1000, seed=42)
    b = K.random_problem(POW(2), 3, 1000, seed=42)
    assert a.f == b.f


# -- shallow checks of leveled traces ------------------------------------------


@pytest.fixture(scope="module", params=["minimal", "ergodic"])
def leveled(request):
    if request.param == "minimal":
        problem = K.random_problem(POW(2), 2, 4096, seed=5)
        return problem, K.totally_minimal_construct(problem, levels=1)
    cubes = EXPL([n ** 3 for n in range(1, 13)])
    problem = K.random_problem(cubes, 2, 2000, seed=3)
    return problem, K.strictly_ergodic_construct(problem, levels=2)


def _failing_checks(trace, problem):
    return {c.predicate for c in K.verify_trace(trace, problem)
            if not c.holds}


def _copy(trace):
    return dataclasses.replace(trace,
                               fillings=[f.copy() for f in trace.fillings])


def test_shallow_checks_hold(leveled):
    problem, trace = leveled
    assert _failing_checks(trace, problem) == set()


def test_changed_filled_cell_fails_monotone_filling(leveled):
    problem, trace = leveled
    bad = _copy(trace)
    s = min(f_dict(problem))
    bad.fillings[0][s - 1] = 1 - f_dict(problem)[s]
    assert _failing_checks(bad, problem) == {"monotone-filling"}


def test_changed_result_on_s_fails_restriction_identity(leveled):
    problem, trace = leveled
    bad = _copy(trace)
    s = min(f_dict(problem))
    flipped = 1 - f_dict(problem)[s]
    for fill in bad.fillings:
        fill[s - 1] = flipped
    sym = list(trace.result.symbols)
    sym[s - 1] = flipped
    bad.result = W.SymbolWord(2, tuple(sym))
    assert _failing_checks(bad, problem) == {"restriction-identity"}


def test_unfilled_result_cell_fails_result_complete(leveled):
    problem, trace = leveled
    bad = _copy(trace)
    # a cell the last level fills first, so no earlier filling holds it
    p = np.flatnonzero(trace.fillings[-2][:len(trace.result)] == K.UNFILLED)[0]
    bad.fillings[-1][p] = K.UNFILLED
    assert _failing_checks(bad, problem) == {"result-complete"}


def test_unfilled_s_cell_fails_restriction_identity(leveled):
    problem, trace = leveled
    bad = _copy(trace)
    s = min(f_dict(problem))
    for fill in bad.fillings:
        fill[s - 1] = K.UNFILLED
    assert _failing_checks(bad, problem) == {"result-complete",
                                             "restriction-identity"}


def test_leveled_refuses_a_partially_filled_sub_block():
    # S = {13} in [1, 16]; level j+1 has length 2^(j+1).  The level-2
    # filler writes only the first half of each free sub-block, so the
    # block [13, 16] is left part filled: with two levels the finish must
    # refuse it as a top block, and with three level 3 must refuse to split it.
    problem = K.InterpolationProblem.from_pairs(EXPL([13], 16), 2, 16, [(13, 1)])

    def stub_level(problem, j, cur, elems, levels):
        m_next = 2 ** (j + 1)
        nxt = K.LevelData(j + 1, m_next, (W.SymbolWord(2, (0,) * m_next),))

        def fill_block(lo, hi, subs, free):
            subs[free, :max(1, cur.m // 2)] = 0

        return nxt, fill_block

    assert K._leveled("strictly-ergodic", problem, 1, stub_level).result \
        == W.SymbolWord(2, (0,) * 12 + (1, 0, 0, 0))
    with pytest.raises(AssertionError, match="partially filled top block"):
        K._leveled("strictly-ergodic", problem, 2, stub_level)
    with pytest.raises(AssertionError, match="partially filled sub-block"):
        K._leveled("strictly-ergodic", problem, 3, stub_level)


@pytest.mark.parametrize("kind, spec, k, n, levels", [
    ("minimal", "kind=powers base=2", 2, 4096, 1),
    ("minimal", "kind=ap a=97 b=5", 3, 3000, 1),
    ("minimal", "kind=powers base=3", 2, 2 ** 18, 2),
    ("minimal", "kind=explicit elements=1,8,27,64,125,216,343,512,729,1000",
     3, 2 ** 18, 2),
    ("ergodic", "kind=powers base=2", 3, 3000, 1),
    ("ergodic", "kind=sturmian cf=0,40", 2, 3000, 2),
    ("ergodic", "kind=union of=(kind=ap a=211 b=3)(kind=powers base=3)",
     2, 2 ** 14, 2),
])
def test_result_spans_every_top_block(kind, spec, k, n, levels):
    build = {"minimal": K.totally_minimal_construct,
             "ergodic": K.strictly_ergodic_construct}[kind]
    problem = K.random_problem(S.parse_set_spec(spec), k, n, seed=levels + n)
    trace = build(problem, levels=levels)
    m = trace.final_m
    assert len(trace.levels) == levels + 1
    assert len(trace.result) == (n // m) * m
