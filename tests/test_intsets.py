"""Certificates and densities for integer-set models.

Derived expected values were computed with the brute-force oracles below
(direct window scans over materialized membership) and then frozen.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from interpsets import intsets as S
from interpsets.periodic import witness_consistent

import oracles
from oracles import contains

AP = S.IntegerSetModel.arithmetic_progression
POW = S.IntegerSetModel.lacunary_powers
EXPL = S.IntegerSetModel.explicit_window


# -- brute-force oracles -------------------------------------------------------


def brute_syndetic(members, n, g):
    """Every length-g subwindow of [1, n] meets the set."""
    mem = set(members)
    return all(any(x in mem for x in range(a, a + g)) for a in range(1, n - g + 2))


def brute_thick(members, n, run_len):
    mem = set(members)
    return any(all(a + i in mem for i in range(run_len))
               for a in range(1, n - run_len + 2))


def brute_pw(members, n, g, run_len):
    mem = set(members)
    for a in range(1, n - run_len + 2):
        if all(any(x in mem for x in range(c, c + g))
               for c in range(a, a + run_len - g + 1)):
            return True
    return False


def brute_spacing(members, n, gap_len):
    """Least L such that every length-L window holds a full gap_len-gap."""
    mem = set(members)
    starts = [p for p in range(1, n - gap_len + 2)
              if not any(x in mem for x in range(p, p + gap_len))]
    if not starts:
        return None
    sset = set(starts)
    for length in range(gap_len, n + 1):
        if all(any(p in sset and p + gap_len - 1 <= a + length - 1
                   for p in range(a, a + length - gap_len + 1))
               for a in range(1, n - length + 2)):
            return length
    return None


def brute_window_count(members, n, length):
    """Largest |S intersect [m, m+length)| over every start m, and the first
    member position, clamped to [1, n-length+1], whose window attains it."""
    mem = sorted(x for x in members if x <= n)
    if not mem:
        return 0, 1

    def count(m):
        return sum(1 for x in mem if m <= x < m + length)

    hi = n - length + 1
    best = max(count(m) for m in range(1, max(hi, 1) + 1))
    starts = (max(min(e, hi), 1) for e in mem)
    return best, next(m for m in starts if count(m) == best)


def brute_runs(members, n):
    """Maximal runs of consecutive members inside [1, n], as (start, length)."""
    mem = set(members)
    return [(a, next(b for b in itertools.count(a) if b + 1 not in mem or b == n)
             - a + 1)
            for a in range(1, n + 1) if a in mem and a - 1 not in mem]


def brute_first_largest_gap(members, n):
    """The first (lo, hi) of largest hi - lo among consecutive members of
    S in [1, n], with a virtual member at 0."""
    mem = [0] + sorted(x for x in members if x <= n)
    pairs = list(zip(mem, mem[1:]))
    widest = max(b - a for a, b in pairs)
    return next([a, b] for a, b in pairs if b - a == widest)


small_sets = st.sets(st.integers(1, 120), min_size=1, max_size=40)


# -- gaps: consecutive differences of the window --------------------------------


def test_gap_sequence_even():
    assert np.diff(S.window(AP(2, 0), 10)).tolist() == [2, 2, 2, 2]


def test_gap_sequence_powers():
    assert np.diff(S.window(POW(2), 64)).tolist() == [2, 4, 8, 16, 32]


def test_gap_sequence_sturmian():
    # delta = [0;2,2,2] = 5/12, a convergent of sqrt(2)-1
    model = S.IntegerSetModel.sturmian_floor([0, 2, 2, 2])
    gaps = np.diff(S.window(model, 50)).tolist()
    assert set(gaps) <= {2, 3}
    elems = model.elements(50)
    assert elems[:6] == [2, 4, 7, 9, 12, 14]
    assert sum(gaps) + elems[0] == elems[-1] <= 50


def test_gap_sequence_empty_window():
    assert np.diff(S.window(EXPL([200], 300), 100)).tolist() == []


# -- syndetic ------------------------------------------------------------------


def test_syndetic_even_holds():
    cert = S.syndetic_certificate(AP(2, 0), 100, 2)
    assert cert.holds
    assert S.replay_certificate(AP(2, 0), cert)


def test_syndetic_powers_fails_with_witness():
    cert = S.syndetic_certificate(POW(2), 100, 10)
    assert not cert.holds
    assert cert.witness["gap"] == [32, 64]
    assert S.replay_certificate(POW(2), cert)


def test_syndetic_union_holds():
    model = S.IntegerSetModel.union_of([AP(3, 0), EXPL([1])])
    assert S.syndetic_certificate(model, 60, 3).holds


def test_syndetic_witness_is_first_of_tied_gaps():
    cert = S.syndetic_certificate(EXPL([3, 6, 9]), 9, 2)
    assert cert.witness["gap"] == [0, 3]
    cert = S.syndetic_certificate(EXPL([3, 6, 9]), 10, 3)
    assert cert.holds and cert.witness["max_gap"] == [0, 3]


def test_syndetic_pending_tail_fails():
    # knowledge stops at 3 but the window reaches 100
    cert = S.syndetic_certificate(EXPL([1, 2, 3]), 100, 5)
    assert not cert.holds
    assert cert.witness["kind"] == "pending-tail"


# -- thick ---------------------------------------------------------------------


def test_thick_complement_of_tens():
    model = EXPL([x for x in range(1, 101) if x % 10])
    assert S.thick_certificate(model, 100, 8).holds


def test_thick_even_fails():
    assert not S.thick_certificate(AP(2, 0), 100, 2).holds


@given(small_sets, st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_thick_matches_brute(members, run_len):
    n = 120
    cert = S.thick_certificate(EXPL(sorted(members)), n, run_len)
    assert cert.holds == brute_thick(members, n, run_len)
    runs = brute_runs(members, n)
    if cert.holds:
        assert cert.witness["run_start"] == next(a for a, ln in runs
                                                 if ln >= run_len)
    else:
        longest = max(ln for _, ln in runs)
        assert cert.witness["longest_run"] == longest
        assert cert.witness["longest_run_start"] == next(
            a for a, ln in runs if ln == longest)


def test_thick_square_intervals_witness():
    # union of [n^2, n^2 + n); first 5-run starts at 25 (computed by scan)
    model = EXPL([x for n in range(1, 11) for x in range(n * n, n * n + n)])
    cert = S.thick_certificate(model, 100, 5)
    assert cert.holds and cert.witness["run_start"] == 25
    assert brute_thick(model.members, 100, 5)


# -- gap syndeticity table -----------------------------------------------------


def test_gap_table_powers():
    cert = S.gap_syndeticity_table(POW(2), 10 ** 4, 5)
    assert cert.holds
    # frozen from the brute spacing oracle: leading span 9 + 5 - 1
    assert cert.witness["spacing_bound"] == 13
    assert cert.witness["first_gap_start"] == 9


def test_gap_table_brute_agreement():
    model = POW(2)
    cert = S.gap_syndeticity_table(model, 300, 5)
    assert cert.witness["spacing_bound"] == brute_spacing(model.elements(300), 300, 5)


@given(st.sets(st.integers(1, 60), max_size=25), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_gap_table_matches_brute(members, gap_len):
    n = 60
    cert = S.gap_syndeticity_table(EXPL(sorted(members)), n, gap_len)
    starts = [p for p in range(1, n - gap_len + 2)
              if not any(x in members for x in range(p, p + gap_len))]
    assert cert.holds == bool(starts)
    if cert.holds:
        assert cert.witness["spacing_bound"] == brute_spacing(members, n, gap_len)
        assert cert.witness["first_gap_start"] == starts[0]
        assert cert.witness["gap_start_count"] == len(starts)
    else:
        free = [x for x in range(1, n + 1) if x not in members]
        assert cert.witness["longest_free_run"] == max(
            (ln for _, ln in brute_runs(free, n)), default=0)


def test_gap_table_empty_window():
    # S misses [1, 100], so the window is one free run and D = gap_len
    model = EXPL([200], 300)
    cert = S.gap_syndeticity_table(model, 100, 7)
    assert cert.holds and cert.witness == {
        "spacing_bound": 7, "first_gap_start": 1, "gap_start_count": 94}
    assert cert.witness["spacing_bound"] == brute_spacing([], 100, 7)
    assert S.replay_certificate(model, cert)
    cert = S.gap_syndeticity_table(model, 100, 101)
    assert not cert.holds
    assert cert.witness == {"stretch": [1, 100], "longest_free_run": 100}
    assert S.replay_certificate(model, cert)


def test_gap_table_even_no_2gap():
    assert not S.gap_syndeticity_table(AP(2, 0), 1000, 2).holds


def test_gap_table_full_set():
    assert not S.gap_syndeticity_table(AP(1, 0), 100, 1).holds


# -- piecewise syndetic --------------------------------------------------------


def test_pw_factorial_runs():
    import math
    elems = sorted({x for n in range(1, 11)
                    for x in range(math.factorial(n), math.factorial(n) + n + 1)})
    model = EXPL(elems)
    cert = S.piecewise_syndetic_certificate(model, math.factorial(10), 1, 10)
    assert cert.holds
    # the qualifying window sits at 9! (the 10! run is cut by the window edge)
    assert cert.witness["interval"][0] == math.factorial(9)


def test_pw_powers_fails():
    assert not S.piecewise_syndetic_certificate(POW(2), 10 ** 6, 4, 100).holds


def test_pw_full_set_trivial():
    cert = S.piecewise_syndetic_certificate(AP(1, 0), 500, 1, 500)
    assert cert.holds and cert.witness["interval"] == [1, 500]


@given(small_sets, st.integers(1, 6), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_pw_matches_brute(members, g, extra):
    run_len = g + extra
    model = EXPL(sorted(members))
    n = 120
    if run_len > n:
        return
    cert = S.piecewise_syndetic_certificate(model, n, g, run_len)
    assert cert.holds == brute_pw(members, n, g, run_len)


@pytest.mark.parametrize("n", [50, 10 ** 12])
@pytest.mark.parametrize("query, lengths, message", [
    (S.syndetic_certificate, lambda n: (0,), "gap bound g must be >= 1"),
    (S.syndetic_certificate, lambda n: (n + 1,), "window must satisfy N >= g"),
    (S.thick_certificate, lambda n: (0,), "run length must be >= 1"),
    (S.gap_syndeticity_table, lambda n: (0,), "gap length must be >= 1"),
    (S.piecewise_syndetic_certificate, lambda n: (5, 3),
     "need run length L >= g >= 1"),
    (S.piecewise_syndetic_certificate, lambda n: (2, n + 1),
     "window must satisfy N >= L"),
])
def test_certificate_argument_refusals(query, lengths, message, n):
    # at N = 10^12 the query is asked through the one-period reduction
    with pytest.raises(ValueError) as err:
        query(AP(3, 0), n, *lengths(n))
    assert str(err.value) == message


@given(small_sets, st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_syndetic_matches_brute(members, g):
    model = EXPL(sorted(members))
    cert = S.syndetic_certificate(model, 120, g)
    assert cert.holds == brute_syndetic(members, 120, g)


# gaps drawn from a few values, so equal largest gaps are common
tied_gap_sets = st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=30).map(
    lambda gaps: list(itertools.accumulate(gaps)))


@given(tied_gap_sets, st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_syndetic_witness_matches_brute(members, g, tail):
    n = max(members[-1] + tail, g)
    cert = S.syndetic_certificate(EXPL(members), n, g)
    widest = brute_first_largest_gap(members, n)
    if cert.holds:
        assert cert.witness["max_gap"] == widest
    elif cert.witness["kind"] == "completed":
        assert cert.witness["gap"] == widest and widest[1] - widest[0] > g
    else:
        assert widest[1] - widest[0] <= g
        assert cert.witness["gap"] == [members[-1], n + 1]


# -- banach density ------------------------------------------------------------


def test_banach_ap_exact():
    profile = S.banach_density_profile(AP(3, 0), 600, n_max=30)
    assert profile.exact == Fraction(1, 3)
    assert profile.rows[29].value == Fraction(10, 30)


def test_banach_sturmian_exact_is_delta():
    model = S.IntegerSetModel.sturmian_floor([0, 2, 2, 2])
    profile = S.banach_density_profile(model, 400, n_max=24)
    assert profile.exact == Fraction(5, 12)
    # observed density at the computed scales brackets delta
    assert abs(profile.rows[23].value - Fraction(5, 12)) <= Fraction(1, 24)


def test_banach_powers_sparse():
    count, _ = S.max_window_count(POW(2), 2 ** 20, 1024)
    assert count == 10
    assert Fraction(count, 1024) <= Fraction(11, 1024)


def test_banach_rejects_deep_windows():
    with pytest.raises(ValueError):
        S.banach_density_profile(AP(2, 0), 100, n_max=51)


def test_banach_start_tie_break():
    # [2, 3] and [5, 6] both hold 2 members; the first member position wins,
    # and a member past N-L+1 = 7 starts its window at 7
    model = EXPL([2, 3, 5, 6, 9])
    assert S.max_window_count(model, 9, 2) == (2, 2)
    assert S.max_window_count(EXPL([9]), 9, 3) == (1, 7)
    assert S.max_window_count(EXPL([20]), 9, 3) == (0, 1)
    # every member past 7 shares the window [7, 9], which wins only when
    # no earlier start holds as many
    assert S.max_window_count(EXPL([8, 9]), 9, 3) == (2, 7)
    assert S.max_window_count(EXPL([2, 3, 8, 9]), 9, 3) == (2, 2)
    assert S.max_window_count(EXPL([2, 8, 9]), 9, 3) == (2, 7)
    assert S.max_window_count(EXPL([]), 9, 3) == (0, 1)
    assert S.max_window_count(EXPL([1, 5, 9]), 9, 9) == (3, 1)


@given(small_sets, st.integers(1, 130), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_max_window_count_matches_brute(members, n, length):
    length = min(length, n)
    got = S.max_window_count(EXPL(sorted(members)), n, length)
    assert got == brute_window_count(members, n, length)


@given(st.sets(st.integers(1, 160), max_size=40), st.integers(1, 130),
       st.integers(0, 30), st.booleans())
@settings(max_examples=200, deadline=None)
def test_max_window_count_matches_scan(members, n, back, near_n):
    # L near N puts most or all starts at the clamp; an empty set or one
    # past N gives the empty window
    length = max(n - back, 1) if near_n else min(back + 1, n)
    model = EXPL(sorted(members))
    assert S.max_window_count(model, n, length) == \
        oracles.max_window_count(model, n, length)


@given(small_sets, st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_banach_subadditive(members, n1, n2):
    model = EXPL(sorted(members))
    n = 300
    f = {}
    for length in (n1, n2, n1 + n2):
        f[length], _ = S.max_window_count(model, n, length)
    assert f[n1 + n2] <= f[n1] + f[n2]


# -- window monotonicity and duality -------------------------------------------


@given(small_sets, st.integers(1, 6), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_window_monotonicity(members, g, run_len):
    model = EXPL(sorted(members))
    for n1, n2 in ((140, 200), (150, 260)):
        if S.thick_certificate(model, n1, run_len).holds:
            assert S.thick_certificate(model, n2, run_len).holds
        if run_len >= g:
            if S.piecewise_syndetic_certificate(model, n1, g, run_len).holds:
                assert S.piecewise_syndetic_certificate(model, n2, g, run_len).holds
        if not S.syndetic_certificate(model, n1, g).holds:
            assert not S.syndetic_certificate(model, n2, g).holds


@given(small_sets, st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_thick_syndetic_duality(members, run_len):
    n = 140
    model = EXPL(sorted(members))
    cert = S.thick_certificate(model, n, run_len)
    if not cert.holds:
        return
    complement = sorted(set(range(1, n + 1)) - set(members))
    if not complement:
        return
    assert not S.syndetic_certificate(EXPL(complement), n, run_len - 1).holds


@given(small_sets, st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_replay_reproduces(members, g):
    model = EXPL(sorted(members))
    cert = S.syndetic_certificate(model, 130, g)
    assert S.replay_certificate(model, cert)
    cert2 = S.thick_certificate(model, 130, g)
    assert S.replay_certificate(model, cert2)


def loop_witness_consistent(model, cert):
    """Oracle: the witness checks, one contains() call per position."""
    s, w = cert.scale, cert.witness
    n = s["N"]
    if cert.predicate == "syndetic" and cert.verdict == S.FAILS:
        lo, hi = w["gap"]
        if w["kind"] == "completed":
            if hi - lo <= s["g"]:
                return False
            interior = any(contains(model, x) for x in range(lo + 1, hi))
            return (not interior and (lo == 0 or contains(model, lo))
                    and contains(model, hi))
        return (lo == 0 or contains(model, lo)) and not any(
            contains(model, x) for x in range(lo + 1, n + 1))
    if cert.predicate == "thick" and cert.verdict == S.HOLDS:
        a = w["run_start"]
        return all(contains(model, a + i) for i in range(w["length"]))
    if cert.predicate == "piecewise-syndetic" and cert.verdict == S.HOLDS:
        a, b = w["interval"]
        g = s["g"]
        return all(any(contains(model, y) for y in range(x, x + g))
                   for x in range(a, b - g + 2))
    if cert.predicate == "gap-syndetic" and cert.verdict == S.HOLDS:
        u = w["first_gap_start"]
        return not any(contains(model, x) for x in range(u, u + s["n"]))
    return True


def _shifted_witness(witness, shifts):
    """The witness with every integer moved by the next shift."""
    shifts = iter(shifts)
    out = {}
    for key, value in witness.items():
        if isinstance(value, list):
            out[key] = [v + next(shifts) for v in value]
        elif isinstance(value, int):
            out[key] = value + next(shifts)
        else:
            out[key] = value
    return out


@pytest.mark.parametrize("model, n", [(POW(2), 100), (AP(3, 0), 100),
                                      (AP(1, 0), 100), (POW(8192), 4096)])
def test_replay_rejects_an_altered_certificate(model, n):
    certs = [S.syndetic_certificate(model, n, 5), S.thick_certificate(model, n, 2),
             S.gap_syndeticity_table(model, n, 3),
             S.piecewise_syndetic_certificate(model, n, 3, 12)]
    for cert in certs:
        assert S.replay_certificate(model, cert)
        flipped = S.Certificate(cert.predicate, cert.scale,
                                S.FAILS if cert.holds else S.HOLDS, cert.witness)
        moved = S.Certificate(
            cert.predicate, cert.scale, cert.verdict,
            _shifted_witness(cert.witness,
                             itertools.chain([1], itertools.repeat(0))))
        assert not S.replay_certificate(model, flipped), cert.predicate
        assert not S.replay_certificate(model, moved), cert.predicate


@given(small_sets, st.integers(1, 130), st.integers(1, 8), st.integers(0, 8),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_witness_replay_matches_loop(members, n, g, extra, shifts):
    model = EXPL(sorted(members))
    certs = [S.syndetic_certificate(model, n, g) if n >= g else None,
             S.thick_certificate(model, n, g),
             S.gap_syndeticity_table(model, n, g),
             S.piecewise_syndetic_certificate(model, n, g, g + extra)
             if g + extra <= n else None]
    for cert in filter(None, certs):
        assert witness_consistent(model, cert)
        assert loop_witness_consistent(model, cert)
        bent = S.Certificate(cert.predicate, cert.scale, cert.verdict,
                             _shifted_witness(cert.witness, shifts))
        assert (witness_consistent(model, bent)
                == loop_witness_consistent(model, bent))


# windows of [1, n]: any subset, one with a free run ending at n, one with
# tied largest gaps and runs, the empty window and the whole of [1, n]
streamed_windows = st.integers(1, 70).flatmap(lambda n: st.tuples(
    st.just(n),
    st.one_of(st.sets(st.integers(1, n)),
              st.sets(st.integers(1, n)).map(lambda ms: ms - {n}),
              tied_gap_sets.map(lambda ms: {x for x in ms if x <= n}),
              st.just(set()), st.just(set(range(1, n + 1))))))


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, S._CHUNK])
@given(streamed_windows, st.integers(1, 8), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_streamed_scan_matches_diff_oracles(chunk, case, g, extra):
    n, members = case
    model = EXPL(sorted(members), n)
    arr = S.window(model, n)
    gaps = np.diff(arr).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_CHUNK", chunk)
        pairs = [(S.thick_certificate(model, n, g),
                  oracles.thick_certificate(model, n, g)),
                 (S.gap_syndeticity_table(model, n, g),
                  oracles.gap_syndeticity_table(model, n, g))]
        if g <= n:
            pairs.append((S.syndetic_certificate(model, n, g),
                          oracles.syndetic_certificate(model, n, g)))
            assert S.max_window_count(model, n, g) == \
                oracles.max_window_count(model, n, g)
        run_len = g + extra
        if run_len <= n:
            pairs.append((S.piecewise_syndetic_certificate(model, n, g, run_len),
                          oracles.piecewise_syndetic_certificate(model, n, g, run_len)))
        starts, lengths = (np.concatenate(part)
                           for part in zip(*S.free_run_chunks(arr, 1, n)))
        runs = [starts, starts + lengths - 1]
        histogram = S.gap_histogram(model, n)
    for got, want in pairs:
        assert got.to_json() == want.to_json(), got.predicate
    for got, want in zip(runs, oracles.free_runs(arr, 1, n)):
        assert got.tolist() == want.tolist()
    assert list(histogram.items()) == \
        [(gap, gaps.count(gap)) for gap in sorted(set(gaps))]


def streamed_peaks(model, n):
    """The tracemalloc peak of each analyze query once the window is built."""
    S.window(model, n)
    queries = {
        "syndetic": lambda: S.syndetic_certificate(model, n, 3),
        "thick": lambda: S.thick_certificate(model, n, 1000),
        "piecewise": lambda: S.piecewise_syndetic_certificate(model, n, 4, 64),
        "gap-table": lambda: S.gap_syndeticity_table(model, n, 1),
        "banach-row": lambda: S.max_window_count(model, n, 64),
        "gap-histogram": lambda: S.gap_histogram(model, n),
    }
    peaks = {}
    for name, query in queries.items():
        tracemalloc.start()
        try:
            query()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("a", [1, 2])
def test_streamed_queries_hold_the_window_and_one_chunk(a):
    # the whole-window scans these replaced peak at 15 to 48 MiB on these windows
    peaks = streamed_peaks(AP(a, 0), 2 * 10 ** 6)
    assert max(peaks.values()) < 4 * 2 ** 20, peaks


@pytest.mark.parametrize("a", [1, 2])
def test_streamed_queries_on_the_window_path(a):
    # ap alone is answered from one period; a powers part leaves the union
    # no descriptor, so there the same queries scan all of [1, n]
    model = S.IntegerSetModel.union_of([AP(a, 0), POW(2)])
    assert model.descriptor()[1] is None
    peaks = streamed_peaks(model, 2 * 10 ** 6)
    assert max(peaks.values()) < 4 * 2 ** 20, peaks


def test_witness_edges_are_checked():
    # each witness is one position off the true one, at an edge of its span
    cases = [
        (EXPL([1, 20]), "syndetic", {"N": 30, "g": 5}, S.FAILS,
         {"gap": [0, 20], "length": 20, "kind": "completed"}),
        (EXPL([3, 4]), "syndetic", {"N": 20, "g": 5}, S.FAILS,
         {"gap": [3, 21], "length": 18, "kind": "pending-tail"}),
        (EXPL([3, 6]), "gap-syndetic", {"N": 20, "n": 2}, S.HOLDS,
         {"spacing_bound": 4, "first_gap_start": 2, "gap_start_count": 16}),
        (EXPL([3, 4, 5]), "thick", {"N": 10, "L": 3}, S.HOLDS,
         {"run_start": 4, "length": 3}),
    ]
    for model, predicate, scale, verdict, witness in cases:
        cert = S.Certificate(predicate, scale, verdict, witness)
        assert not witness_consistent(model, cert), predicate
        assert not loop_witness_consistent(model, cert), predicate


def test_witness_replay_reads_the_window():
    powers = POW(2)
    syndetic = S.syndetic_certificate(powers, 2 ** 20, 10)
    pw = S.piecewise_syndetic_certificate(AP(3, 0), 10 ** 5, 3, 10 ** 5)
    assert not syndetic.holds and pw.holds

    # window() is the one membership decider; contains() is a test oracle
    assert not hasattr(S.IntegerSetModel, "contains")
    assert S.replay_certificate(powers, syndetic)
    assert S.replay_certificate(AP(3, 0), pw)


def test_certificate_json_roundtrip():
    cert = S.syndetic_certificate(AP(2, 0), 50, 2)
    again = S.Certificate.from_json(cert.to_json())
    assert again == cert


# -- generators, grammar, files -------------------------------------------------


def test_contains_matches_elements():
    models = [
        AP(3, 2),
        POW(3),
        S.IntegerSetModel.sturmian_floor([0, 2, 2]),
        S.IntegerSetModel.finite_sums([1, 2, 4]),
        S.IntegerSetModel.shifted(POW(2), 3),
        S.IntegerSetModel.union_of([AP(5, 1), EXPL([4, 8])]),
    ]
    for model in models:
        elems = set(model.elements(200))
        assert all(contains(model, x) == (x in elems) for x in range(1, 201))


def brute_subset_sums(gens):
    return {sum(c) for r in range(1, len(gens) + 1)
            for c in itertools.combinations(gens, r)}


models_of_every_kind = st.one_of(
    st.builds(AP, st.integers(1, 9), st.integers(0, 20)),
    st.builds(POW, st.integers(2, 5)),
    st.lists(st.integers(1, 4), min_size=1, max_size=6).map(
        lambda tail: S.IntegerSetModel.sturmian_floor([0] + tail)),
    st.sets(st.integers(1, 40), min_size=1, max_size=7).map(
        S.IntegerSetModel.finite_sums),
    st.builds(lambda m, t: S.IntegerSetModel.shifted(m, t),
              st.builds(AP, st.integers(1, 9), st.integers(0, 8)),
              st.integers(-10, 10)),
    st.sets(st.integers(1, 150), max_size=20).map(EXPL),
)


@given(st.lists(models_of_every_kind, min_size=2, max_size=3), st.integers(1, 400))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_union_window_is_the_sorted_set_of_its_parts(models, n):
    # the union's window merges its parts' windows, shifts included
    union = S.IntegerSetModel.union_of(models)
    want = sorted(set().union(*(S.window(m, n).tolist() for m in models)))
    got = S.window(union, n)
    assert got.dtype == np.int64 and got.tolist() == want


@given(st.lists(models_of_every_kind, min_size=1, max_size=3), st.integers(1, 150))
@settings(max_examples=120, deadline=None)
def test_contains_matches_elements_every_kind(models, n):
    model = models[0] if len(models) == 1 else S.IntegerSetModel.union_of(models)
    elems = model.elements(n)
    assert elems == [x for x in range(1, n + 1) if contains(model, x)]
    if model.kind == "sums":
        assert elems == sorted(x for x in brute_subset_sums(model.gens) if x <= n)
    if model.kind == "sturmian":
        d = model.delta()
        assert elems == sorted({int(m / d) for m in range(1, n + 1)} - {0}
                               & set(range(1, n + 1)))


def test_sturmian_window_exact_past_int64():
    # q ~ 10^16, so m * q leaves int64 well inside the window
    model = S.IntegerSetModel.sturmian_floor([0] + [2] * 42)
    assert model.delta().denominator > 10 ** 16
    elems = model.elements(5000)
    assert elems == [x for x in range(1, 5001) if contains(model, x)]


FIB_CF_NEAR_2_62 = [0] + [1] * 91     # F_91 / F_92: p ~ 2^62.02, r = F_90


@given(st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=60).map(
        lambda tail: [0] + tail),
    st.lists(st.integers(1, 300), min_size=1, max_size=12).map(
        lambda tail: [0] + tail),
    st.just(FIB_CF_NEAR_2_62)), st.integers(1, 3000))
@settings(max_examples=150, deadline=None)
def test_sturmian_window_matches_python_ints(cf, n):
    model = S.IntegerSetModel.sturmian_floor(cf)
    got = S.window(model, n)
    assert got.dtype == np.int64
    assert got.tolist() == oracles.sturmian_window(model, n)


def test_sturmian_window_chunk_edges():
    # near 2^62, (2^63 - 1 - p) // r = 1, so every member is its own chunk
    model = S.IntegerSetModel.sturmian_floor(FIB_CF_NEAR_2_62)
    d = model.delta()
    p, q = d.numerator, d.denominator
    assert 2 ** 62 < p < 2 ** 63 and (2 ** 63 - 1 - p) // (q % p) == 1
    assert S.window(model, 10 ** 4).tolist() == oracles.sturmian_window(model, 10 ** 4)
    # 165 685 members: the window crosses two slices of 2^16 members
    model = S.IntegerSetModel.sturmian_floor([0] + [2] * 9)
    got = S.window(model, 4 * 10 ** 5)
    assert got.size > 2 * 2 ** 16
    assert got.tolist() == oracles.sturmian_window(model, 4 * 10 ** 5)


def test_finite_sums_closure():
    model = S.IntegerSetModel.finite_sums([1, 2, 4])
    assert model.elements(100) == [1, 2, 3, 4, 5, 6, 7]


def test_finite_sums_at_scale():
    gens = list(range(1, 41))
    reach = {0}
    for g in gens:
        reach |= {r + g for r in reach}
    model = S.IntegerSetModel.finite_sums(gens)
    assert model.elements(2000) == sorted(x for x in reach if 1 <= x <= 2000)


def test_finite_sums_huge_generators_stay_small():
    # the window is built up to the query, never up to sum(gens)
    model = S.IntegerSetModel.finite_sums([1, 2 ** 40])
    assert contains(model, 3) is False and contains(model, 1)
    model = S.IntegerSetModel.finite_sums([1, 2, 2 ** 40])
    assert contains(model, 3) and not contains(model, 4)
    powers = S.IntegerSetModel.finite_sums([2 ** i for i in range(41)])
    assert contains(powers, 3) and powers.elements(20) == list(range(1, 21))
    cert = S.syndetic_certificate(powers, 100, 1)
    assert cert.verdict == S.HOLDS and S.replay_certificate(powers, cert)


def test_window_is_one_read_only_array():
    model = POW(3)
    big = S.window(model, 10 ** 6)
    small = S.window(model, 100)
    assert big.dtype == np.int64 and not big.flags.writeable
    assert small.tolist() == [3, 9, 27, 81] == model.elements(100)
    assert np.shares_memory(big, small)
    with pytest.raises(ValueError):
        big[0] = 1


def test_spec_roundtrip():
    models = [
        AP(3, 0),
        POW(2),
        S.IntegerSetModel.sturmian_floor([0, 2, 2, 2]),
        EXPL([1, 5, 9], 20),
        S.IntegerSetModel.finite_sums([10, 1000]),
        S.IntegerSetModel.shifted(S.IntegerSetModel.union_of([AP(2, 0), POW(3)]), 7),
    ]
    for model in models:
        assert S.parse_set_spec(model.spec_string()) == model


def test_spec_errors():
    for bad in ["", "a=3", "kind=ap a=3", "kind=nope x=1",
                "kind=ap a=3 b=0 c=9", "kind=union of=(kind=ap a=2",
                # a repeated key, at the top or inside a group
                "kind=ap a=3 b=0 a=4", "kind=ap kind=ap a=3 b=0",
                "kind=union of=(kind=ap a=2 b=0 b=1)(kind=powers base=3)",
                # a shift's of= holds exactly one group
                "kind=shift t=2 of=", "kind=shift t=2 of=(kind=ap a=2 b=0)()",
                "kind=shift t=2 of=(kind=ap a=2 b=0)(kind=powers base=3)",
                # nothing but groups in of=
                "kind=union of=junk(kind=ap a=3 b=0)",
                "kind=union of=(kind=ap a=3 b=0)xyz(kind=powers base=2)",
                "kind=shift t=2 of=zz(kind=ap a=3 b=0)"]:
        with pytest.raises(S.SpecGrammarError):
            S.parse_set_spec(bad)


MODEL = S.IntegerSetModel
_LEAVES = st.one_of(
    st.builds(lambda ms, extra: EXPL(ms, None if extra is None
                                     else max(ms, default=1) + extra),
              st.lists(st.integers(1, 500), max_size=6),
              st.none() | st.integers(0, 50)),
    st.builds(AP, st.integers(1, 40), st.integers(-60, 60)),
    st.builds(POW, st.integers(2, 9)),
    st.builds(lambda tail: MODEL.sturmian_floor([0, *tail]),
              st.lists(st.integers(1, 9), min_size=1, max_size=5)),
    st.builds(MODEL.finite_sums, st.lists(st.integers(1, 300), min_size=1,
                                          max_size=5)),
)


def _nested(inner):
    return st.one_of(inner,
                     st.builds(MODEL.union_of, st.lists(inner, min_size=1,
                                                        max_size=3)),
                     st.builds(MODEL.shifted, inner, st.integers(-50, 50)))


@given(_nested(_nested(_LEAVES)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_spec_string_parses_back(model):
    # every kind, with union and shift nested up to two deep
    assert S.parse_set_spec(model.spec_string()) == model


@pytest.mark.parametrize("spec, message", [
    ("kind=ap a=3) b=(0", "unbalanced parentheses"),
    ("kind=union of=(kind=ap a=2 b=0)) (", "unbalanced parentheses"),
    ("kind=ap a=3 b=0 sturmian", "expected key=value, got 'sturmian'"),
    ("kind=union of=(kind=ap a=3 b=0)(powers)",
     "expected key=value, got 'powers'"),
])
def test_spec_scanner_refusals(spec, message):
    with pytest.raises(S.SpecGrammarError) as err:
        S.parse_set_spec(spec)
    assert str(err.value) == message


def test_explicit_window_bound_enforced():
    model = EXPL([2, 4], 10)
    with pytest.raises(ValueError):
        model.elements(50)
    with pytest.raises(ValueError):
        contains(model, 11)
    assert contains(model, 4) and not contains(model, 3)


def test_explicit_window_bound_edge():
    model = EXPL([2, 10], 10)
    assert model.elements(10) == [2, 10]
    assert contains(model, 10) and not contains(model, 9)
    with pytest.raises(ValueError):
        model.elements(11)
    with pytest.raises(ValueError):
        contains(model, 11)
