"""Factor languages, complexity profiles, and the word generators."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpsets import construct as K
from interpsets import words as W
from interpsets.intsets import IntegerSetModel, continued_fraction_value
from oracles import (
    at,
    continued_fraction,
    line_joined_word_file,
    mechanical_word,
    profile_violations,
    refinement_counts,
    slice_factors,
    universal_word,
)

CF_SQRT2M1 = [0] + [2] * 9          # convergent 985/2378 of sqrt(2) - 1


def wd(symbols, k=2):
    return W.SymbolWord(k, tuple(symbols))


# -- factors -------------------------------------------------------------------


def test_factors_periodic():
    w = wd([0, 1] * 10)
    assert sorted(slice_factors(w, 3)) == [(0, 1, 0), (1, 0, 1)]
    assert W.factor_counts(w, 3) == [2, 2, 2]


def test_factors_all_three_blocks():
    sym = [s for block in itertools.product((0, 1), repeat=3) for s in block]
    w = wd(sym)
    got = slice_factors(w, 3)
    assert len(got) == 8 == W.factor_counts(w, 3)[-1]
    assert got == set(itertools.product((0, 1), repeat=3))


def test_factors_constant():
    w = wd([0] * 12)
    assert W.factor_counts(w, 12) == [1] * 12


def test_factors_out_of_range():
    with pytest.raises(ValueError):
        W.factor_counts(wd([0, 1]), 3)
    with pytest.raises(ValueError):
        W.factor_counts(wd([0, 1]), 0)
    assert W.factor_counts(W.SymbolWord(256, (255, 0, 255, 0)), 4) == [2, 2, 2, 1]
    # the symbols are ranked among those present, and the level-1 key, the
    # symbol itself, stays below 2^31, so any alphabet up to 2^31 - 1 counts
    # exactly, and one past it is refused
    rng = np.random.default_rng(3)
    for k in (257, 1000, 70000):
        sym = rng.integers(0, 3, 120) * (k // 2 - 1) + rng.integers(0, 2, 120)
        w = W.SymbolWord(k, np.append(sym, k - 1))
        assert W.factor_counts(w, 121) == [len(slice_factors(w, n))
                                           for n in range(1, 122)], k
    top = 2 ** 31 - 1
    assert W.factor_counts(W.SymbolWord(top, (top - 1, 0, top - 1, 0)), 4) \
        == [2, 2, 2, 1]
    with pytest.raises(ValueError, match="alphabet_size <= 2\\^31 - 1"):
        W.factor_counts(W.SymbolWord(top + 1, (top,)), 1)


def _symbols(k):
    # Repeats of 0 and k - 1 give long shared factors at every k, and the
    # alphabets sit on each side of a dtype edge of the symbols (uint8 below
    # k = 257, uint16 below 65 537) and reach 2^31 - 1.  A word longer than k
    # ranks its symbols through a table, a shorter one by the packed sort.
    return st.one_of(st.sampled_from(sorted({0, k - 1})), st.integers(0, k - 1))


@given(st.sampled_from([1, 2, 3, 5, 255, 256, 257, 65535, 65536, 65537,
                        2 ** 31 - 1]).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(_symbols(k), min_size=1,
                                             max_size=80))), st.data())
@settings(max_examples=200, deadline=None)
def test_factor_counts_match_slice_sets(case, data):
    k, sym = case
    w = W.SymbolWord(k, tuple(sym))
    full = [len(slice_factors(w, n)) for n in range(1, len(sym) + 1)]
    assert W.factor_counts(w, len(sym)) == full == refinement_counts(w, len(sym))
    n_max = data.draw(st.integers(1, len(sym)))
    assert W.factor_counts(w, n_max) == full[:n_max]
    for bad in (0, len(sym) + 1):
        with pytest.raises(ValueError):
            W.factor_counts(w, bad)


def test_factor_counts_n_max_around_powers_of_two():
    rng = np.random.default_rng(7)
    for k, size in ((2, 70), (3, 64), (256, 65)):
        sym = rng.integers(0, 2, size) * (k - 1)    # symbols 0 and k - 1 only
        w = W.SymbolWord(k, sym)
        full = [len(slice_factors(w, n)) for n in range(1, size + 1)]
        for n_max in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, size):
            assert W.factor_counts(w, n_max) == full[:n_max], (k, n_max)


def test_factor_counts_structured_word():
    problem = K.random_problem(IntegerSetModel.lacunary_powers(2), 2, 2 ** 18,
                               seed=5)
    xu = K.totally_minimal_construct(problem, levels=2).result
    w = W.SymbolWord(2, xu.symbols[:10 ** 4])
    assert W.factor_counts(w, 64) == refinement_counts(w, 64)


def test_factor_counts_rank_widths():
    # the distinct factors per level pass 255 at n = 8 and 65 535 at n = 32,
    # so the ranks step from uint8 to uint16 to uint32 within one call
    w = W.SymbolWord(2, np.random.default_rng(17).integers(0, 2, 2 ** 17))
    counts = W.factor_counts(w, 40)
    assert counts[7] > 255 and counts[31] > 65535
    assert counts == refinement_counts(w, 40)


def test_dense_ranks_every_path():
    # a span up to |w| goes through the table, a wider one through the sort
    # of keys packed with their positions in uint32 or uint64, and one too
    # wide to share 64 bits with a position (span * |w| > 2^64) through two
    # such sorts, low digit first
    rng = np.random.default_rng(11)
    for size, span in ((1, 1), (5000, 300), (5000, 5000), (5000, 2 ** 19),
                       (5000, 2 ** 40), (5000, 2 ** 52), (5000, 2 ** 62)):
        key = rng.integers(0, span, size, dtype=np.uint64)
        key[rng.integers(0, size, size // 3)] = span - 1
        uniq, inverse = np.unique(key, return_inverse=True)
        count, pairs = W._dense_ranks(lambda lo, hi: key[lo:hi], span, size)
        got = np.zeros(size, np.int64)
        for pos, r in pairs:
            got[pos] = r
        assert count == uniq.size, (size, span)
        assert (got == inverse + 1).all(), (size, span)


def test_factor_counts_longer_than_a_slice():
    # over 2^16 symbols, so every pass runs many slices and the last one is
    # short; random symbols, a long constant stretch and a periodic tail
    rng = np.random.default_rng(23)
    size = 2 ** 16 + 1234
    for k in (2, 5, 300):
        sym = rng.integers(0, k, size)
        sym[1000:9000] = 0
        sym[-5000:] = np.arange(5000) % 7 % k
        w = W.SymbolWord(k, sym)
        assert W.factor_counts(w, 12) == refinement_counts(w, 12), k
    w = W.SymbolWord(2, rng.integers(0, 2, 2 ** 17))
    assert W.factor_counts(w, 5) == [2, 4, 8, 16, 32]


def test_factor_counts_all_distinct_before_n_max():
    # every factor of these words is distinct from some length on, where
    # doubling stops, so p(n) = |w| - n + 1 from there up to n_max = |w|
    rng = np.random.default_rng(29)
    de_bruijn = list(W._de_bruijn(2, 9))
    cases = [W.SymbolWord(2, de_bruijn + de_bruijn[:8]),      # each 9-factor once
             W.SymbolWord(3, list(W._de_bruijn(3, 5)) + [0] * 4),
             W.SymbolWord(2, rng.integers(0, 2, 300)),
             W.SymbolWord(4, rng.integers(0, 4, 257)),
             W.SymbolWord(2 ** 31 - 1, rng.integers(0, 2 ** 31 - 1, 200))]
    for w in cases:
        size = len(w)
        full = [len(slice_factors(w, n)) for n in range(1, size + 1)]
        assert full[-1] == 1 and full[size // 2] == size - size // 2
        assert W.factor_counts(w, size) == full == refinement_counts(w, size)
        for n_max in (1, 9, 17, 33, size // 2):
            assert W.factor_counts(w, n_max) == full[:n_max], (size, n_max)


def _mixing_word():
    problem = K.random_problem(IntegerSetModel.lacunary_powers(2), 2, 2 ** 18,
                               seed=3)
    return K.mixing_extend(problem, 6).word, 6


def _minimal_word():
    problem = K.random_problem(IntegerSetModel.lacunary_powers(2), 2, 2 ** 18,
                               seed=5)
    return K.totally_minimal_construct(problem, levels=2).result, 64


def _random_word():
    return W.SymbolWord(2, np.random.default_rng(41).integers(0, 2, 2 ** 18)), 64


@pytest.mark.parametrize("make, bound", [(_mixing_word, 10), (_minimal_word, 15),
                                         (_random_word, 31.3)])
def test_factor_counts_working_set(make, bound):
    # tracemalloc peak per symbol, which is deterministic for numpy buffers.
    # With a sort permutation per level (an intp argsort and its int32 copy)
    # these words peaked at 17.3, 23.3 and 31.3 B/symbol; the slice-wise
    # ranking holds them to 3.4, 9.5 and 19.8 (NumPy 2.4).
    w, n_max = make()
    tracemalloc.start()
    try:
        W.factor_counts(w, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(w) <= bound, peak / len(w)


def test_factor_counts_memory_budget():
    # tracemalloc peak 0.90 MB with NumPy 2.4, with narrow ranks and no sort
    # permutation; a permutation per level peaked at 4.53 MB, int32 ranks
    # and an int64 key at 8.46 MB, and the refinement pass at 9.70 MB, on
    # the same word.
    w = W.SymbolWord(2, np.random.default_rng(2018).integers(0, 2, 2 ** 18))
    tracemalloc.start()
    try:
        W.factor_counts(w, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6, peak


@given(st.lists(st.integers(0, 2), min_size=4, max_size=40),
       st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_factor_of_factor_is_factor(sym, n, m):
    if m > n or n > len(sym):
        return
    w = W.SymbolWord(3, tuple(sym))
    subs = slice_factors(w, m)
    for fac in slice_factors(w, n):
        inner = W.SymbolWord(3, fac)
        assert slice_factors(inner, m) <= subs


# -- complexity profiles -------------------------------------------------------


def test_profile_sturmian_n_plus_one():
    delta = continued_fraction_value(CF_SQRT2M1)
    w = mechanical_word(delta, 10 ** 4)
    profile = W.complexity_profile(w, 100)
    assert all(profile.p[n] == n + 1 for n in range(1, 101))
    assert profile.violations() == []


def test_profile_periodic_saturates():
    w = wd([0, 1, 1] * 20)
    profile = W.complexity_profile(w, 20)
    assert all(profile.p[n] == 3 for n in range(3, 21))
    assert profile.violations() == []


def test_profile_violation_messages():
    # |w| = 10, k = 2: 2^n binds at n = 1, 2 and 10 - n + 1 from n = 4 on;
    # the two tie at n = 3, where the span is named; keys 5, 9 are absent
    p = {1: 2, 2: 5, 3: 9, 4: 8, 6: 5, 7: 4, 8: 4, 10: 2}
    profile = W.ComplexityProfile(2, 10, p, {})
    assert profile.violations() == ["p(2) = 5 exceeds k^n",
                                    "p(3) = 9 exceeds |w| - n + 1",
                                    "p(4) = 8 exceeds |w| - n + 1",
                                    "p(8) = 4 exceeds |w| - n + 1",
                                    "p(10) = 2 exceeds |w| - n + 1"]
    # k = 3 at |w| = 100: 3^n binds through n = 4, and 3^5 = 243 is built
    # (3^4 = 81 <= |w|) but |w| - 5 + 1 = 96 is the smaller bound
    p = {1: 4, 3: 27, 4: 82, 5: 97, 7: 94}
    assert W.ComplexityProfile(3, 100, p, {}).violations() == [
        "p(1) = 4 exceeds k^n", "p(4) = 82 exceeds k^n",
        "p(5) = 97 exceeds |w| - n + 1"]
    # k = 1: every p(n) is at most 1, however deep the keys run
    p = {1: 1, 50: 2, 99: 1, 100: 1}
    assert W.ComplexityProfile(1, 100, p, {}).violations() == [
        "p(50) = 2 exceeds k^n"]


@st.composite
def profile_words(draw):
    """Random words and near-periodic ones (a short block repeated, with a
    few symbols changed) over k in {1, ..., 4}, of length at most 300."""
    k = draw(st.integers(1, 4))
    size = draw(st.integers(1, 300))
    if draw(st.booleans()):
        sym = draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    else:
        block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))
        sym = (block * size)[:size]
        for _ in range(draw(st.integers(0, 3))):
            sym[draw(st.integers(0, size - 1))] = draw(st.integers(0, k - 1))
    return W.SymbolWord(k, sym)


@given(profile_words())
@settings(max_examples=100, deadline=None)
def test_factor_counts_obey_the_profile_theorems(w):
    # every n <= |w|: p(n) <= k^n, a nondecreasing head, p(n+m) <= p(n) p(m)
    p = dict(enumerate(W.factor_counts(w, len(w)), 1))
    profile = W.ComplexityProfile(w.alphabet_size, len(w), p, {})
    assert profile_violations(profile) == []
    assert profile.violations() == []


def test_profile_universal_full_growth():
    w = universal_word(2, 12)
    profile = W.complexity_profile(w, 12)
    assert all(profile.p[n] == 2 ** n for n in range(1, 13))


def test_profile_cap_is_a_flag():
    w = wd([0, 1] * 8)
    with pytest.raises(ValueError):
        W.complexity_profile(w, 12)
    with pytest.raises(ValueError):
        W.complexity_profile(w, 9)
    assert W.complexity_profile(w, 8).p[8] == 2
    assert W.factor_counts(w, 12)[-1] == 2


@given(st.lists(st.integers(0, 1), min_size=8, max_size=60))
@settings(max_examples=80, deadline=None)
def test_profile_submultiplicative(sym):
    w = W.SymbolWord(2, tuple(sym))
    profile = W.complexity_profile(w, len(sym) // 2)
    p = profile.p
    for n in p:
        for m in p:
            if n + m in p:
                assert p[n + m] <= p[n] * p[m]


# -- mechanical words ----------------------------------------------------------


def test_mechanical_half():
    w = mechanical_word(Fraction(1, 2), 12)
    assert tuple(w.symbols) == (0, 1) * 6


def test_mechanical_two_fifths():
    # S = {floor(5n/2)} = {2, 5, 7, 10, ...}
    w = mechanical_word(Fraction(2, 5), 10)
    assert tuple(w.symbols) == (0, 1, 0, 0, 1, 0, 1, 0, 0, 1)


def test_mechanical_weight_bound():
    delta = continued_fraction_value(CF_SQRT2M1)
    w = mechanical_word(delta, 5000)
    ones = [0]
    for s in w.symbols.tolist():
        ones.append(ones[-1] + s)
    for m in (7, 20, 53):
        worst = max(ones[i + m] - ones[i] for i in range(len(w) - m))
        assert worst <= math.ceil(m * delta)


def test_mechanical_balance():
    delta = continued_fraction_value([0, 2, 2, 2, 2, 2])
    w = mechanical_word(delta, 2000)
    ones = [0]
    for s in w.symbols.tolist():
        ones.append(ones[-1] + s)
    for m in (5, 12, 31):
        counts = {ones[i + m] - ones[i] for i in range(len(w) - m)}
        assert max(counts) - min(counts) <= 1


@given(st.fractions(min_value=Fraction(1, 10 ** 6), max_value=Fraction(1, 2),
                    max_denominator=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_continued_fraction_inverts_its_value(delta):
    cf = continued_fraction(delta)
    assert continued_fraction_value(cf) == delta
    assert continued_fraction(cf) == cf
    assert mechanical_word(cf, 50) == mechanical_word(delta, 50)


def test_mechanical_range_errors():
    with pytest.raises(ValueError):
        mechanical_word(Fraction(2, 3), 10)
    with pytest.raises(ValueError):
        mechanical_word(Fraction(0), 10)


# -- universal words -----------------------------------------------------------


def test_universal_trivial():
    w = universal_word(2, 1)
    assert {0, 1} <= set(w.symbols)


def test_universal_exhaustive_grid():
    for k in (2, 3):
        for max_len in range(1, 7):
            w = universal_word(k, max_len)
            assert len(w) <= k ** max_len * max_len + k
            assert W.factor_counts(w, max_len) == [
                k ** n for n in range(1, max_len + 1)]


def test_universal_single_letter_alphabet():
    w = universal_word(1, 5)
    assert set(w.symbols) == {0} and len(w) >= 5


# -- entropy estimates ---------------------------------------------------------


def test_entropy_constant_word_zero():
    h = W.complexity_profile(wd([0] * 64), 20).h_est
    assert h[20] == 0.0 and min(h.values()) == 0.0


def test_entropy_universal_log2():
    w = universal_word(2, 10)
    profile = W.complexity_profile(w, 10)
    assert profile.h_est[10] == pytest.approx(math.log(2))


def test_entropy_sturmian_near_zero():
    delta = continued_fraction_value(CF_SQRT2M1)
    w = mechanical_word(delta, 10 ** 4)
    h = W.complexity_profile(w, 100).h_est
    assert h[100] == pytest.approx(math.log(101) / 100)
    assert h[100] < 0.05
    assert min(h.values()) <= h[100]


# -- word files ----------------------------------------------------------------


def test_word_file_roundtrip(tmp_path):
    w = mechanical_word(Fraction(2, 5), 500)
    path = tmp_path / "w.word"
    W.write_word_file(path, w)
    assert W.read_word_file(path) == w
    assert path.read_text().startswith("k=2\n")
    digits = W.SymbolWord(10, tuple(range(10)) * 13)
    W.write_word_file(path, digits)
    assert path.read_text() == "k=10\n" + "0123456789" * 12 + "\n0123456789\n"
    assert W.read_word_file(path) == digits


def test_word_file_large_alphabet(tmp_path):
    w = W.SymbolWord(40, tuple(range(40)) * 3)
    path = tmp_path / "big.word"
    W.write_word_file(path, w)
    assert path.read_bytes() == b"k=40\n" + (",".join(map(str, range(40))).encode()
                                            + b"\n") * 3
    assert W.read_word_file(path) == w
    path.write_bytes(b"k=40\n10,3,7\n39,0\n")
    assert W.read_word_file(path) == W.SymbolWord(40, (10, 3, 7, 39, 0))


@pytest.mark.parametrize("k, lengths", [
    (1, [0, 1, 119, 120, 121, 240, 2 ** 16 + 7]),
    (2, [0, 1, 119, 120, 121, 240, 2 ** 16 + 7]),
    (10, [0, 1, 119, 120, 121, 240, 2 ** 16 + 7]),
    (11, [0, 1, 39, 40, 41, 1000]),             # comma rows of 40
    (300, [0, 1, 39, 40, 41, 1000]),
])
def test_word_file_bytes_match_line_joined_writer(tmp_path, k, lengths):
    rng = np.random.default_rng(k)
    for length in lengths:
        w = W.SymbolWord(k, rng.integers(0, k, length))
        W.write_word_file(tmp_path / "w.word", w)
        line_joined_word_file(tmp_path / "oracle.word", w)
        assert (tmp_path / "w.word").read_bytes() \
            == (tmp_path / "oracle.word").read_bytes(), length
        assert W.read_word_file(tmp_path / "w.word") == w, length


def test_write_word_file_working_set(tmp_path):
    # tracemalloc peak per symbol: the line-joined writer held about five
    # copies of the word (bytes, digits, str, lines, joined text) and
    # peaked at 4.5; one buffer of digit rows peaks at 1.05 (NumPy 2.4).
    w = W.SymbolWord(2, np.random.default_rng(3).integers(0, 2, 2 ** 18))
    tracemalloc.start()
    try:
        W.write_word_file(tmp_path / "w.word", w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(w) <= 1.5, peak / len(w)


@pytest.mark.parametrize("text", [
    "k=40\n1_0,+3, 7\n",                 # int() would read (10, 3, 7)
    "k=40\n3,-1\n", "k=40\n3,,4\n", "k=40\n3,\n", "k=40\n0x1\n",
    "k=40\n1,\u0663\n",                  # ARABIC-INDIC DIGIT THREE
    "k=4_0\n1,2\n", "k=+40\n1,2\n", "k=\n1\n",
])
def test_word_file_refuses_non_digit_tokens(tmp_path, text):
    path = tmp_path / "bad.word"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        W.read_word_file(path)


def test_symbol_validation():
    with pytest.raises(ValueError):
        W.SymbolWord(2, (0, 2))
    with pytest.raises(ValueError):
        W.SymbolWord(0, ())
    with pytest.raises(ValueError):
        W.SymbolWord(2, (0.5, 1))
    with pytest.raises(ValueError):
        W.SymbolWord(2, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        W.SymbolWord(256, (0, 256))         # would wrap to 0 as uint8
    with pytest.raises(ValueError):
        W.SymbolWord(256, (-1, 0))          # would wrap to 255 as uint8
    assert W.SymbolWord(256, (255, 0)).symbols.dtype == np.uint8
    assert W.SymbolWord(257, (256, 0)).symbols.dtype == np.uint16
    assert W.SymbolWord(2 ** 16, (2 ** 16 - 1, 0)).symbols.dtype == np.uint16
    assert W.SymbolWord(2 ** 16 + 1, (2 ** 16, 0)).symbols.dtype == np.uint32
    assert W.SymbolWord(2 ** 70, np.array([2 ** 63, 0], np.uint64)).symbols.dtype == np.uint64


def test_symbols_read_only_copy():
    src = np.array([0, 1, 1], dtype=np.int64)
    w = W.SymbolWord(2, src)
    src[0] = 1
    assert w.symbols.tolist() == [0, 1, 1]
    with pytest.raises(ValueError):
        w.symbols[0] = 1
    assert type(at(w, 2)) is int and at(w, 2) == 1


def test_equality_ignores_container(tmp_path):
    forms = [[0, 1, 0, 1], (0, 1, 0, 1), np.array([0, 1, 0, 1]),
             np.array([0, 1, 0, 1], dtype=np.uint8)]
    ws = [W.SymbolWord(2, f) for f in forms]
    assert all(w == ws[0] and hash(w) == hash(ws[0]) for w in ws)
    assert len(set(ws)) == 1
    assert W.SymbolWord(3, (0, 1, 0, 1)) != ws[0]
    assert W.SymbolWord(2, (0, 1, 0)) != ws[0]
    path = tmp_path / "w.word"
    W.write_word_file(path, ws[0])
    assert W.read_word_file(path) == W.SymbolWord(2, [0, 1, 0, 1])


@given(st.sampled_from([1, 2, 10, 11, 256, 257]).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1),
                                             max_size=300))))
@settings(max_examples=120, deadline=None)
def test_word_file_array_roundtrip(tmp_path_factory, case):
    k, sym = case
    arr = np.array(sym, dtype=np.int64)
    w = W.SymbolWord(k, arr)
    assert w == W.SymbolWord(k, sym) and w.symbols.tolist() == sym
    assert w.symbols.dtype == (np.uint8 if k <= 256 else np.uint16)
    path = tmp_path_factory.mktemp("rt") / "w.word"
    W.write_word_file(path, w)
    back = W.read_word_file(path)
    assert back == w and np.array_equal(back.symbols, arr)
    assert back.symbols.dtype == w.symbols.dtype
    body = path.read_bytes().split(b"\n", 1)[1]
    assert body.isascii() and (k > 10 or b"," not in body)
