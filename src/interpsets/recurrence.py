"""The sum-free set F with shifted IP structure, built and verified
exhaustively up to a bound.

F = union over n of (J_n + n), where J_n is the IP-set generated by
{10^k : k in I_n} and the index sets I_n = {2^(n-1) (2i-1) : i >= 1} are
pairwise disjoint with min I_n = 2^(n-1) >= n.  All arithmetic in base
10 is carry-free, which gives a second, digit-based membership oracle.
The module needs only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass


def index_set(n: int, upto: int) -> list:
    """Elements of I_n = {2^(n-1) (2i-1) : i >= 1} that are <= upto."""
    if upto >> (n - 1) < 1:      # min I_n = 2^(n-1) > upto, for any n
        return []
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
    """F intersected with [1, N]."""

    bound: int
    elements: tuple                # ascending


def build_F(n_bound: int) -> FSetModel:
    """Materialize F = union(J_n + n) on [1, n_bound] by subset sums."""
    elements = []
    n = 1
    while 10 ** (1 << (n - 1)) + n <= n_bound:   # so 10^(2^(n-1)) is in gens
        gens = _generators(n, n_bound - n)
        for j in ip_closure(gens, depth=len(gens), bound=n_bound - n):
            elements.append(j + n)
        n += 1
    elements.sort()
    if len(set(elements)) != len(elements):
        raise AssertionError("J_n + n overlapped; dyadic disjointness broken")
    return FSetModel(n_bound, tuple(elements))


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


def digit_enumerate(n_bound: int) -> list:
    """All members of F in [1, n_bound] by the digit oracle alone,
    independent of build_F: x is in F iff for some shift n the decimal
    digits of x - n are all 0/1 with every 1 at a place in I_n.  Each shift
    walks the nonzero submasks of its place mask, read as decimal 0/1
    numbers, so the work is one step per candidate member."""
    digits = len(str(n_bound))
    found = []
    n = 1
    while 10 ** (1 << (n - 1)) + n <= n_bound:
        allowed = sum(1 << p for p in range(digits) if in_index_set(p, n))
        sub = allowed
        while sub:
            x = int(format(sub, "b")) + n
            if x <= n_bound:
                found.append(x)
            sub = (sub - 1) & allowed
        n += 1
    return sorted(found)
