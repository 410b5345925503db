"""Independent oracles for the tests.

The membership oracles decide a level family of the two leveled
constructions by search from its definition, with no use of the parses or
array checks that construct.verify_trace runs, so the tests can hold those
checks against them on small traces.  The window-count oracles are the
direct scans that intsets.max_window_count and the strictly ergodic level
plan replaced.
"""

import math
from fractions import Fraction

import numpy as np

from interpsets.construct import ConstructionTrace
from interpsets.intsets import window
from interpsets.words import SymbolWord


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


# -- totally minimal: split-point DP ------------------------------------------


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
    the array check verify_trace runs."""
    if not 0 <= level < len(trace.levels):
        raise ValueError(f"no level {level} in this trace")
    if len(w) != trace.levels[level].m:
        raise ValueError("length mismatch")
    return _ergodic_member(trace, level, tuple(w.symbols.tolist()), {})
