"""Independent oracles for the tests.

The membership oracles decide a level family of the two leveled
constructions by search from its definition, with no use of the parses or
array checks that construct.verify_trace runs, so the tests can hold those
checks against them on small traces: is_member_level against
parse_member, and is_ergodic_member against construct._frequency_member,
the one array decider of the strictly ergodic family.  The window-count oracles are the
direct scans that intsets.max_window_count and the strictly ergodic level
plan replaced.  The certificate oracles are the whole-window diff scans
that the streamed free-run scan of intsets replaced: each builds arrays
as long as S intersect [1, N].

The second deciders answer a question the package answers once:
`contains` decides one integer of a set model, beside intsets.window;
`digit_membership` decides one integer of F from its digits, beside
recurrence.digit_enumerate; `sturmian_window` lists a Sturmian window as
Python ints, beside the chunked int64 one of intsets.window;
`mechanical_word` is the indicator word of a Sturmian window;
`constant_problem` is a constant f on S.  The factor-count oracles,
`slice_factors` (a set of slices) and `refinement_counts` (one np.unique
refinement per length), stand beside words.factor_counts.  The profile
oracle is the double loop over the theorems every factor count obeys
(p(n) <= k^n, a nondecreasing head, p(n+m) <= p(n) p(m)), which
ComplexityProfile.violations() no longer runs.  The word-file oracle,
`line_joined_word_file`, is the writer words.write_word_file replaced: it
builds the file as a list of lines joined into one str.

The rest are helpers that only tests call, so the package does not carry
them: `parse_member` checks one word against a given Parse through
construct._parse_holds, the check verify_trace runs on the recorded
parses; `at` reads the symbol at a 1-based position; `universal_word`
builds the word of words.universal_symbols whole; `sandwich_bounds` gives
binomial bounds on a low-weight count; and the witness generators,
`syndetic_partition_witness` and `density_coloring_witness`, build the
colorings f of the paper's "only if" direction.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from interpsets import construct, counting
from interpsets.certificate import FAILS, HOLDS, Certificate, atomic_write_text
from interpsets.construct import ConstructionTrace, InterpolationProblem, Parse
from interpsets.intsets import IntegerSetModel, window
from interpsets.recurrence import in_index_set
from interpsets.words import SymbolWord, universal_symbols


# -- second deciders -----------------------------------------------------------


def contains(model: IntegerSetModel, x: int) -> bool:
    """Is x in S?  Decided from the generator, one integer at a time."""
    if x < 1:
        return False
    if model.kind == "ap":
        return x % model.a == model.b
    if model.kind == "powers":
        v = model.base
        while v < x:
            v *= model.base
        return v == x
    if model.kind == "sturmian":
        d = model.delta()
        # x in S iff some integer m satisfies x*d <= m < (x+1)*d
        lo = x * d
        m = -((-lo.numerator) // lo.denominator)  # ceil(lo)
        return m < (x + 1) * d or lo == m
    if model.kind == "union":
        return any(contains(p, x) for p in model.parts)
    if model.kind == "shift":
        return contains(model.inner, x - model.t)
    if model.kind not in ("explicit", "sums"):
        raise ValueError(f"unknown kind {model.kind!r}")
    arr = window(model, x)   # refuses x beyond an explicit window_bound
    return arr.size > 0 and int(arr[-1]) == x


def _digit_positions(y: int):
    """(ok, positions) where positions lists the decimal places of 1-digits;
    ok is False when any digit exceeds 1."""
    pos = []
    p = 0
    while y:
        y, d = divmod(y, 10)
        if d > 1:
            return False, []
        if d == 1:
            pos.append(p)
        p += 1
    return True, pos


def digit_membership(x: int):
    """(member, n) via the sparse-digit oracle: x in F iff for some n the
    decimal digits of x - n are all 0/1 with 1s exactly at places in I_n."""
    n = 1
    while 10 ** (1 << (n - 1)) + n <= x:
        ok, pos = _digit_positions(x - n)
        if ok and pos and all(in_index_set(p, n) for p in pos):
            return True, n
        n += 1
    return False, None


def continued_fraction(delta) -> list:
    """delta as a continued fraction [a0; a1, ...]: a list or tuple is taken
    as one already, any other exact rational is expanded (Euclid)."""
    if isinstance(delta, (list, tuple)):
        return list(delta)
    p, q = Fraction(delta).as_integer_ratio()
    cf = []
    while q:
        cf.append(p // q)
        p, q = q, p % q
    return cf


def sturmian_window(model: IntegerSetModel, n: int) -> list:
    """S intersect [1, n] for a Sturmian model, x_m = floor(m q / p) for
    delta = p/q, one Python int per member, exact at any size of p and q."""
    d = model.delta()
    p, q = d.numerator, d.denominator
    return [(m * q) // p for m in range(1, ((n + 1) * p - 1) // q + 1)]


def mechanical_word(delta, length: int) -> SymbolWord:
    """Indicator word of S = {floor(m/delta) : m in N} on positions 1..length.

    delta is an exact rational in (0, 1/2], given as a Fraction or as a
    truncated continued fraction.  Every length-m factor carries at most
    ceil(m*delta) ones.
    """
    model = IntegerSetModel.sturmian_floor(continued_fraction(delta))
    if not 0 < model.delta() <= Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2]")
    if length < 1:
        raise ValueError("length must be >= 1")
    sym = np.zeros(length, dtype=np.uint8)
    sym[window(model, length) - 1] = 1
    return SymbolWord(2, sym)


def constant_problem(model: IntegerSetModel, k: int, n: int,
                     value: int) -> InterpolationProblem:
    return InterpolationProblem(
        model, n, SymbolWord(k, np.full(window(model, n).size, value)))


def at(w: SymbolWord, position: int) -> int:
    """Symbol at 1-based sequence position."""
    if not 1 <= position <= w.symbols.size:
        raise IndexError(position)
    return int(w.symbols[position - 1])


def universal_word(k: int, max_len: int) -> SymbolWord:
    """A word containing every word of length <= max_len over {0..k-1}:
    the symbols of words.universal_symbols, built whole."""
    return SymbolWord(k, list(universal_symbols(k, max_len)))


def sandwich_bounds(m: int, delta, k: int):
    """(lower, upper) with lower <= count <= upper, both exact.

    lower = (k-1)^t C(m,t), upper = (t+1) * lower for t = floor(delta*m);
    valid because the binomials increase up to t when delta <= 1/2.
    """
    d = counting._check_args(m, delta, k)
    t = (d * m).numerator // (d * m).denominator
    lead = (k - 1) ** t * math.comb(m, t)
    return lead, (t + 1) * lead


# -- factor counts -------------------------------------------------------------


def slice_factors(w, n):
    """The distinct length-n factors of w, one slice per position."""
    data = w.symbols.tolist()
    if not 1 <= n <= len(data):
        raise ValueError(f"factor length {n} out of range for |w| = {len(data)}")
    return {tuple(data[i:i + n]) for i in range(len(data) - n + 1)}


def refinement_counts(w, n_max):
    """One np.unique refinement per n.  Each position holds the id of the
    length-n factor starting there, and the ids at n + 1 renumber the pairs
    (id at n, next symbol)."""
    sym = w.symbols.astype(np.int64)
    counts, ids = [], sym
    for n in range(1, n_max + 1):
        uniq, ids = np.unique(ids, return_inverse=True)
        counts.append(len(uniq))
        if n < n_max:
            ids = ids[:-1] * w.alphabet_size + sym[n:]
    return counts


# -- word files ----------------------------------------------------------------


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def line_joined_word_file(path, w: SymbolWord) -> None:
    """Header 'k=<alphabet>', then symbols; ASCII digits for k <= 10.

    Written atomically (temp file + rename)."""
    lines = [f"k={w.alphabet_size}"]
    if w.alphabet_size <= 10:
        text = w.symbols.tobytes().translate(_DIGITS).decode("ascii")
        lines.extend(text[i:i + 120] for i in range(0, len(text), 120))
    else:
        sym = w.symbols.tolist()
        lines.extend(",".join(map(str, sym[i:i + 40]))
                     for i in range(0, len(sym), 40))
    atomic_write_text(path, "\n".join(lines) + "\n")


# -- complexity profiles: the theorem checks -----------------------------------


def profile_violations(profile):
    """The plain double loop over (n, m): p(n) <= k^n, p nondecreasing up
    to its first maximum, and p(n+m) <= p(n) p(m) wherever n + m is a key."""
    out = []
    p, k = profile.p, profile.alphabet_size
    ns = sorted(p)
    out += [f"p({n}) = {p[n]} exceeds k^n" for n in ns if p[n] > k ** n]
    peak = max(ns, key=lambda n: (p[n], -n))
    prev = 0
    for n in ns:
        if n > peak:
            break
        if p[n] < prev:
            out.append(f"p not nondecreasing at n = {n}")
        prev = p[n]
    for n in ns:
        for m in ns:
            if n + m in p and p[n + m] > p[n] * p[m]:
                out.append(f"p({n + m}) > p({n}) p({m})")
    return out


# -- Banach rows and the ergodic density loop ---------------------------------


def max_window_count(model, n, length):
    """(count, start) maximizing |S intersect [m, m+length)| over [1, n]:
    every member of S, clamped to [1, n-length+1], is a candidate start
    with two searches of its own, and the first maximizing one wins."""
    arr = window(model, n)
    if not arr.size:
        return 0, 1
    ms = np.maximum(np.minimum(arr, n - length + 1), 1)
    counts = (arr.searchsorted(ms + (length - 1), "right")
              - arr.searchsorted(ms, "left"))
    i = int(counts.argmax())
    return int(counts[i]), int(ms[i])


def ergodic_level_length(model, n, step, t_mult):
    """(m_{j+1}, density bound) of the strictly ergodic level plan by one
    full window scan per multiple t_mult, t_mult + 1, ... of step: the
    first length step * t whose windows all hold fewer than t points of
    S.  None when no length up to n passes."""
    while step * t_mult <= n:
        cand = step * t_mult
        count, _ = max_window_count(model, n, cand)
        if count * step < cand:
            return cand, Fraction(count, cand)
        t_mult += 1
    return None


# -- set certificates: whole-window diff scans ---------------------------------


def free_runs(arr: np.ndarray, lo: int, hi: int):
    """(starts, ends) of the maximal S-free runs inside [lo, hi], where arr
    holds the members of S in [lo, hi]."""
    prev = np.concatenate(([lo - 1], arr))
    nxt = np.concatenate((arr, [hi + 1]))
    keep = nxt - prev >= 2
    return prev[keep] + 1, nxt[keep] - 1


def syndetic_certificate(model: IntegerSetModel, n: int, g: int) -> Certificate:
    """Does every length-g subwindow of [1, n] meet S?

    Equivalent to all gaps (counting a virtual element at 0) being <= g
    and the pending tail gap being < g.  The fails witness is the first
    largest completed gap when it exceeds g, else the pending tail if it
    violates: [0, n + 1] when S misses [1, n].
    """
    if g < 1:
        raise ValueError("gap bound g must be >= 1")
    if n < g:
        raise ValueError("window must satisfy N >= g")
    arr = window(model, n)
    scale = {"N": n, "g": g}
    lo = hi = last = 0      # only the virtual element when S misses [1, n]
    if arr.size:
        gaps = np.diff(arr, prepend=0)
        i = int(gaps.argmax())
        hi = int(arr[i])
        lo = hi - int(gaps[i])
        last = int(arr[-1])
    pending = n - last
    if hi - lo > g:
        witness = {"gap": [lo, hi], "length": hi - lo, "kind": "completed"}
        return Certificate("syndetic", scale, FAILS, witness)
    if pending >= g:
        witness = {"gap": [last, n + 1], "length": pending + 1,
                   "kind": "pending-tail"}
        return Certificate("syndetic", scale, FAILS, witness)
    witness = {"max_gap": [lo, hi], "length": hi - lo, "pending_tail": pending}
    return Certificate("syndetic", scale, HOLDS, witness)


def thick_certificate(model: IntegerSetModel, n: int, run_len: int) -> Certificate:
    """Does [1, n] contain run_len consecutive members of S?"""
    if run_len < 1:
        raise ValueError("run length must be >= 1")
    arr = window(model, n)
    scale = {"N": n, "L": run_len}
    if not arr.size:
        return Certificate("thick", scale, FAILS,
                           {"longest_run_start": None, "longest_run": 0})
    # maximal runs of consecutive members, as index ranges into arr
    first = np.flatnonzero(np.diff(arr, prepend=arr[0] - 2) != 1)
    lengths = np.diff(first, append=arr.size)
    long_enough = lengths >= run_len
    if long_enough.any():
        start = int(arr[first[long_enough.argmax()]])
        return Certificate("thick", scale, HOLDS,
                           {"run_start": start, "length": run_len})
    best = int(lengths.argmax())
    return Certificate("thick", scale, FAILS,
                       {"longest_run_start": int(arr[first[best]]),
                        "longest_run": int(lengths[best])})


def gap_syndeticity_table(model: IntegerSetModel, n: int, gap_len: int) -> Certificate:
    """Do S-free runs of length gap_len recur across the whole window?

    The holds witness carries spacing_bound D: the least L such that every
    length-L subinterval of [1, n] contains a full gap_len-run disjoint
    from S.  Fails when no such run exists at all in the window.  When S
    misses the window, [1, n] is one run and D = gap_len.
    """
    if gap_len < 1:
        raise ValueError("gap length must be >= 1")
    starts, ends = free_runs(window(model, n), 1, n)
    scale = {"N": n, "n": gap_len}
    keep = ends - starts + 1 >= gap_len
    if not keep.any():
        longest = int((ends - starts).max()) + 1 if starts.size else 0
        witness = {"stretch": [1, n], "longest_free_run": longest}
        return Certificate("gap-syndetic", scale, FAILS, witness)
    # start positions of gap_len-gaps within run [u, v] are u .. v-gap_len+1
    u = starts[keep]
    last = ends[keep] - gap_len + 1
    d = max(int(u[0]) + gap_len - 1, n - int(last[-1]) + 1,
            int((u[1:] - last[:-1]).max(initial=0)) + gap_len - 1)
    witness = {"spacing_bound": d, "first_gap_start": int(u[0]),
               "gap_start_count": int((last - u + 1).sum())}
    return Certificate("gap-syndetic", scale, HOLDS, witness)


def piecewise_syndetic_certificate(model: IntegerSetModel, n: int, g: int,
                                   run_len: int) -> Certificate:
    """Does some length-run_len subinterval of [1, n] have all S-gaps <= g?

    A window [a, a+L-1] qualifies when every length-g subwindow of it
    meets S.  Scan is linear in the number of S-free runs.
    """
    if g < 1 or run_len < g:
        raise ValueError("need run length L >= g >= 1")
    if run_len > n:
        raise ValueError("window must satisfy N >= L")
    starts, ends = free_runs(window(model, n), 1, n)
    scale = {"N": n, "g": g, "L": run_len}
    # violation positions x: [x, x+g-1] misses S; they form intervals
    keep = ends - starts + 1 >= g
    viol_lo = np.append(starts[keep], n - g + 2)
    # good positions between violations: [cur, viol_lo - 1]
    cur = np.concatenate(([1], ends[keep] - g + 2))
    stretch = viol_lo - cur
    need = run_len - g + 1
    hit = stretch >= need
    if hit.any():
        a = int(cur[hit.argmax()])
        return Certificate("piecewise-syndetic", scale, HOLDS,
                           {"interval": [a, a + run_len - 1]})
    i = int(stretch.argmax())
    best = int(stretch[i])
    witness = {"best_stretch": best,
               "best_start": int(cur[i]) if best > 0 else None, "needed": need}
    return Certificate("piecewise-syndetic", scale, FAILS, witness)


# -- witness generators: the "only if" counterexamples -------------------------


@dataclass(frozen=True)
class SyndeticPartition:
    g: int
    h: int
    window: int
    pieces: tuple                # tuple of tuples of positions
    coloring: SymbolWord         # piece index per window member, 0 off all pieces
    covering_ok: bool
    covering_checked: int
    failures: tuple


def syndetic_partition_witness(model: IntegerSetModel, g: int, h: int,
                               n: int) -> SyndeticPartition:
    """Split S into h residue-window pieces S_i and check that each piece,
    smeared g-1 steps left, covers h^2 N + ih inside the window; each
    target it misses is a failure.  A syndetic S at gap g < h misses none.

    The coloring f = i on S_i is the witness function used against
    totally transitive interpolation.
    """
    if g < 1 or h <= g or n < g:
        raise ValueError(f"need 1 <= g < h and N >= g, got g={g}, h={h}, N={n}")
    hh = h * h
    elems = window(model, n)
    colors = np.where(elems < hh, 0, elems % hh // h)
    pieces, failures, checked = [], [], 0
    for i in range(h):
        piece = elems[(elems >= hh) & (colors == i)]
        pieces.append(tuple(piece.tolist()))
        targets = np.arange(hh + i * h, n - hh + 1, hh)
        checked += targets.size
        # the first member of S_i at or after a target (n + g when none is)
        # must lie within g of it
        first = np.append(piece, n + g)[piece.searchsorted(targets)]
        failures.extend((i, t) for t in targets[first >= targets + g].tolist())
    return SyndeticPartition(g, h, n, tuple(pieces), SymbolWord(h, colors),
                             not failures, checked, tuple(failures))


@dataclass(frozen=True)
class DensityColoring:
    k: int
    intervals: tuple
    coloring: SymbolWord         # color per member of the window


def density_coloring_witness(model: IntegerSetModel, intervals, k: int,
                             n: int) -> DensityColoring:
    """Color S by interval index mod k over a disjoint ascending family of
    half-open intervals [lo, hi); 0 off all intervals."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ivs = [(int(lo), int(hi)) for lo, hi in intervals]
    prev_hi = 0
    for lo, hi in ivs:
        if lo < 1 or hi <= lo or lo < prev_hi:
            raise ValueError("intervals must be disjoint, ascending, nonempty")
        prev_hi = hi
    arr = window(model, n)
    colors = np.zeros(arr.size, dtype=np.int64)
    for idx, (lo, hi) in enumerate(ivs, start=1):
        colors[arr.searchsorted(lo):arr.searchsorted(hi)] = idx % k
    return DensityColoring(k, tuple(ivs), SymbolWord(k, colors))


# -- totally minimal: a given parse, and the split-point DP -------------------


def parse_member(w: SymbolWord, level: int, parse: Parse,
                 trace: ConstructionTrace) -> bool:
    """Does `parse` prove that w belongs to the level-`level` family X
    (length m) or X' (m+1)?  The check is linear in the pieces of w and of
    the anchor words below it, whose recorded parses it checks first."""
    if trace.kind != "totally-minimal":
        raise ValueError("parses are recorded for totally-minimal traces")
    if not 1 <= level < len(trace.levels):
        raise ValueError(f"no parse at level {level} in this trace")
    m = trace.levels[level].m
    if len(w) not in (m, m + 1):
        raise ValueError(f"|w| = {len(w)} but level {level} needs {m} or {m + 1}")
    return construct._parse_holds(w.symbols, parse, trace.levels,
                                  construct._proven(trace.levels, level), level)



def _index_by_bytes(words) -> dict:
    keys = dict.fromkeys(w.symbols.tobytes() for w in words)
    return {b: i for i, b in enumerate(keys)}


class _MemberContext:
    def __init__(self, trace: ConstructionTrace):
        self.ms = [lvl.m for lvl in trace.levels]
        self.t_idx = [_index_by_bytes(lvl.t_sample) for lvl in trace.levels]
        self.tp_idx = [_index_by_bytes(lvl.t_prime_sample) for lvl in trace.levels]
        self.memo = {}


def _insert_maximal(masks: list, mask: int) -> None:
    for other in masks:
        if other | mask == other:
            return
    masks[:] = [other for other in masks if other | mask != mask]
    masks.append(mask)


def _member(ctx: _MemberContext, level: int, data: bytes) -> bool:
    if level == 0:
        return len(data) in (1, 2)
    key = (level, data)
    memo = ctx.memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    m_prev = ctx.ms[level - 1]
    rho = math.factorial(level - 1)
    t_idx = ctx.t_idx[level - 1]
    tp_idx = ctx.tp_idx[level - 1]
    n_t = len(t_idx)
    full = (1 << ((n_t + len(tp_idx)) * rho)) - 1
    total = len(data)
    states = {0: [0]}
    result = False
    for p in range(total + 1):
        masks = states.pop(p, None)
        if not masks:
            continue
        if p == total:
            result = any(mask == full for mask in masks)
            break
        end = p + m_prev
        if end <= total:
            piece = data[p:end]
            if _member(ctx, level - 1, piece):
                ti = t_idx.get(piece)
                bit = 1 << (ti * rho + p % rho) if ti is not None else 0
                bucket = states.setdefault(end, [])
                for mask in masks:
                    _insert_maximal(bucket, mask | bit)
        end = p + m_prev + 1
        if end <= total:
            piece = data[p:end]
            if _member(ctx, level - 1, piece):
                ti = tp_idx.get(piece)
                bit = (1 << ((n_t + ti) * rho + p % rho)) if ti is not None else 0
                bucket = states.setdefault(end, [])
                for mask in masks:
                    _insert_maximal(bucket, mask | bit)
    memo[key] = result
    return result


def is_member_level(w: SymbolWord, level: int, trace: ConstructionTrace) -> bool:
    """Does w belong to the level-`level` family X (length m) or X' (m+1)?

    Decided by dynamic programming over split points into level-(level-1)
    pieces, tracking which anchor elements appeared at which residue
    mod (level-1)!, with a memo local to the call.  Words of any other
    length are an error.  This search is the independent oracle for
    parse_member, which checks a given split instead.
    """
    if trace.kind != "totally-minimal":
        raise ValueError("membership DP is defined for totally-minimal traces")
    if not 0 <= level < len(trace.levels):
        raise ValueError(f"no level {level} in this trace")
    m = trace.levels[level].m
    if len(w) not in (m, m + 1):
        raise ValueError(f"|w| = {len(w)} but level {level} needs {m} or {m + 1}")
    if w.alphabet_size != trace.alphabet_size or w.alphabet_size > 256:
        raise ValueError("alphabet mismatch, or above the DP's 256 symbols")
    ctx = _MemberContext(trace)
    return _member(ctx, level, w.symbols.tobytes())


# -- strictly ergodic: recursion over tuples -----------------------------------


def _ergodic_member(trace, level, syms, memo):
    if level == 0:
        return len(syms) == 1
    key = (level, syms)
    hit = memo.get(key)
    if hit is not None:
        return hit
    lvl = trace.levels[level]
    prev = trace.levels[level - 1]
    m, m_prev = lvl.m, prev.m
    ok = False
    if len(syms) == m:
        big_r = m // m_prev
        blocks = [syms[c:c + m_prev] for c in range(0, m, m_prev)]
        w_count = sum(1 for bl in blocks if bl == tuple(prev.w.symbols.tolist()))
        anchors = {tuple(w.symbols.tolist()) for w in prev.t_sample}
        ok = (all(_ergodic_member(trace, level - 1, bl, memo) for bl in blocks)
              and anchors.issubset(set(blocks))
              and w_count * level >= big_r * (level - 1))
    memo[key] = ok
    return ok


def is_ergodic_member(w, level, trace):
    """Frequency-family membership by recursion over tuples: the oracle for
    construct._frequency_member, which verify_trace runs on each anchor
    word and on the whole result."""
    if not 0 <= level < len(trace.levels):
        raise ValueError(f"no level {level} in this trace")
    if len(w) != trace.levels[level].m:
        raise ValueError("length mismatch")
    return _ergodic_member(trace, level, tuple(w.symbols.tolist()), {})
