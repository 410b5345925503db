"""The sum-free set F with shifted IP structure, built and verified
exhaustively up to a bound.

F = union over n of (J_n + n), where J_n is the IP-set generated by
{10^k : k in I_n} and the index sets I_n = {2^(n-1) (2i-1) : i >= 1} are
pairwise disjoint with min I_n = 2^(n-1) >= n.  All arithmetic in base
10 is carry-free, which gives a second, digit-based membership oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def index_set(n: int, upto: int) -> list:
    """Elements of I_n = {2^(n-1) (2i-1) : i >= 1} that are <= upto."""
    return list(range(1 << (n - 1), upto + 1, 1 << n))


def in_index_set(k: int, n: int) -> bool:
    """k in I_n iff the 2-adic valuation of k equals n - 1."""
    if k < 1:
        return False
    v = (k & -k).bit_length() - 1
    return v == n - 1


def _generators(n: int, top: int) -> list:
    """{10^k : k in I_n, 10^k <= top}, the generators of J_n that fit
    below `top`, ascending."""
    return [10 ** k for k in index_set(n, len(str(max(top, 1))) - 1)]


def ip_closure(generators, depth: int, bound: int) -> list:
    """All sums of at most `depth` distinct generators, up to `bound`."""
    gens = sorted(set(int(g) for g in generators))
    if gens and gens[0] < 1:
        raise ValueError("generators must be positive")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = set()

    def rec(i, acc, used):
        if used == depth:
            return
        for j in range(i, len(gens)):
            v = acc + gens[j]
            if v > bound:
                break
            out.add(v)
            rec(j + 1, v, used + 1)

    rec(0, 0, 0)
    return sorted(out)


@dataclass(frozen=True)
class FSetModel:
    """F intersected with [1, N], with per-element provenance."""

    bound: int
    elements: tuple                # ascending
    provenance: dict               # element -> (n, j) with j in J_n, element = j + n


def build_F(n_bound: int) -> FSetModel:
    """Materialize F = union(J_n + n) on [1, n_bound] by subset sums."""
    elements = []
    provenance = {}
    n = 1
    while 10 ** (1 << (n - 1)) + n <= n_bound:   # so 10^(2^(n-1)) is in gens
        gens = _generators(n, n_bound - n)
        for j in ip_closure(gens, depth=len(gens), bound=n_bound - n):
            x = j + n
            elements.append(x)
            provenance[x] = (n, j)
        n += 1
    elements.sort()
    if len(set(elements)) != len(elements):
        raise AssertionError("J_n + n overlapped; dyadic disjointness broken")
    return FSetModel(n_bound, tuple(elements), provenance)


@dataclass(frozen=True)
class SumFreeReport:
    ok: bool
    counterexample: tuple | None   # (x, y, x + y) if found
    pairs_checked: int


def verify_sum_free(elements, n_bound: int) -> SumFreeReport:
    """Check x + y not in the set for every pair x <= y with x + y <= bound."""
    elems = sorted(elements)
    member = set(elems)
    checked = 0
    for i, x in enumerate(elems):
        for y in elems[i:]:
            s = x + y
            if s > n_bound:
                break
            checked += 1
            if s in member:
                return SumFreeReport(False, (x, y, s), checked)
    return SumFreeReport(True, None, checked)


@dataclass(frozen=True)
class ShiftIPReport:
    n: int
    depth: int
    ok: bool
    required: tuple
    missing: tuple


def verify_shift_ip(f_model: FSetModel, n: int, depth: int) -> ShiftIPReport:
    """Check that F - n contains the depth-truncated IP closure of
    {10^k : k in I_n}, for every materialized element within the bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = _generators(n, f_model.bound - n)
    required = ip_closure(gens, depth, f_model.bound - n)
    member = set(f_model.elements)
    missing = tuple(j for j in required if j + n not in member)
    return ShiftIPReport(n, depth, not missing, tuple(required), missing)


def _place_masks(count: int) -> np.ndarray:
    """For each v < count, the bitmask of the decimal places where v has a
    1-digit (bit p for place p), or -1 when some digit of v exceeds 1."""
    rest = np.arange(count, dtype=np.int64)
    mask = np.zeros(count, dtype=np.int64)
    bad = np.zeros(count, dtype=bool)
    place = 0
    while rest.any():
        rest, d = np.divmod(rest, 10)
        bad |= d > 1
        mask |= (d == 1).astype(np.int64) << place
        place += 1
    mask[bad] = -1
    return mask


DIGIT_ORACLE_LIMIT = 10 ** 9    # 3.6 s at the cap on a 2-vCPU machine


def digit_enumerate(n_bound: int) -> list:
    """All members of F in [1, n_bound], found by applying the digit oracle
    to every integer; independent of build_F.

    x is split as x - n = high * 10^h + low, with h half the digits of
    n_bound, and two O(sqrt(n_bound)) tables give the 1-digit places of
    every high and every low half (or -1 when a digit exceeds 1).  For
    each shift n, a half is admissible when its digits are all 0/1 and
    its 1s sit at places in I_n; x - n qualifies exactly when both halves
    are and it is positive, which the outer AND of the two admissible
    rows decides over the (high, low) grid, a bounded block of rows at a
    time.  The grid has about n_bound cells per shift, so callers refuse
    an n_bound above DIGIT_ORACLE_LIMIT.
    """
    digits = len(str(n_bound))
    half = digits // 2
    base = 10 ** half
    low_masks = _place_masks(base)
    high_masks = _place_masks(n_bound // base + 1)
    rows = max(1, (1 << 20) // base)        # about 1 MB of grid per block
    found = [np.empty(0, dtype=np.int64)]
    n = 1
    while 10 ** (1 << (n - 1)) + n <= n_bound:
        allowed = sum(1 << p for p in range(1, digits) if in_index_set(p, n))
        low_ok = (low_masks >= 0) & (low_masks & ~allowed == 0)
        high_ok = (high_masks >= 0) & ((high_masks << half) & ~allowed == 0)
        top = n_bound - n
        for r in range(0, top // base + 1, rows):
            y = r * base + np.flatnonzero(high_ok[r:r + rows, None] & low_ok)
            found.append(y[(y >= 1) & (y <= top)] + n)
        n += 1
    return np.unique(np.concatenate(found)).tolist()
