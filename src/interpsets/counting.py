"""Exact counting of low-weight words and their growth rates.

count_low_weight is the closed form for the number of length-m words
over {0..k-1} with at least (1-delta)m zeros; brute_force_count is an
enumeration oracle for the same quantity.  All counts are exact big
integers; log rates are taken of exact counts, and the binary-entropy
reference H(delta) + delta log(k-1) is only ever an analytic comparison
value, never a substitute for counting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

ORACLE_LIMIT = 10 ** 8


def _exact(delta) -> Fraction:
    """Coerce delta to an exact rational; floats are refused."""
    if isinstance(delta, float):
        raise TypeError("delta must be exact (Fraction, int, or 'p/q' string)")
    return Fraction(delta)


def entropy_H(delta) -> float:
    """Binary entropy -d log d - (1-d) log(1-d), with H(0) = H(1) = 0."""
    d = float(delta)
    if not 0.0 <= d <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if d == 0.0 or d == 1.0:
        return 0.0
    return -d * math.log(d) - (1.0 - d) * math.log(1.0 - d)


def _check_args(m, delta, k) -> Fraction:
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    d = _exact(delta)
    if not 0 <= d <= Fraction(1, 2):
        raise ValueError("delta must lie in [0, 1/2]")
    return d


@dataclass(frozen=True)
class CountResult:
    m: int
    k: int
    delta: Fraction
    count: int
    log_rate: float
    analytic_limit: float


def analytic_limit(delta, k) -> float:
    d = _exact(delta)
    return entropy_H(d) + float(d) * math.log(k - 1)


def count_low_weight(m: int, delta, k: int) -> CountResult:
    """Exact |{w in {0..k-1}^m : #zeros(w) >= (1-delta)m}|.

    Equals sum over i <= floor(delta*m) of T_i = (k-1)^i C(m, i): choose
    the non-zero positions, then the non-zero letters.  The terms come from
    T_0 = 1 and T_{i+1} = T_i (m-i)(k-1) / (i+1), an exact division.
    """
    d = _check_args(m, delta, k)
    t = (d * m).numerator // (d * m).denominator
    count = term = 1
    for i in range(t):
        term = term * (m - i) * (k - 1) // (i + 1)
        count += term
    return CountResult(m, k, d, count, math.log(count) / m, analytic_limit(d, k))


def _zeros_needed(m, d: Fraction) -> int:
    # smallest integer number of zeros satisfying zeros >= (1-d)*m
    need = (1 - d) * m
    return -((-need.numerator) // need.denominator)


@lru_cache(maxsize=256)
def _zero_histogram(k: int, m: int) -> tuple:
    """hist[z] = number of words in {0..k-1}^m with exactly z zeros,
    obtained by exhaustive enumeration."""
    hist = [0] * (m + 1)
    for w in itertools.product(range(k), repeat=m):
        hist[w.count(0)] += 1
    return tuple(hist)


def _split_count(m, d: Fraction, k) -> int:
    """Enumerate both halves exhaustively and pair their zero counts."""
    need = _zeros_needed(m, d)
    m1 = m // 2
    m2 = m - m1
    h1 = _zero_histogram(k, m1)
    h2 = _zero_histogram(k, m2)
    suffix = [0] * (m2 + 2)
    for z in range(m2, -1, -1):
        suffix[z] = suffix[z + 1] + h2[z]
    total = 0
    for z1, c1 in enumerate(h1):
        z2 = max(0, need - z1)
        if z2 <= m2:
            total += c1 * suffix[z2]
    return total


def check_oracle_work(m: int, k: int) -> None:
    """Refuse an oracle run whose enumeration work, k^ceil(m/2) words per
    half, would exceed ORACLE_LIMIT."""
    work = k ** ((m + 1) // 2)
    if work > ORACLE_LIMIT:
        raise ValueError(
            f"enumeration work k^ceil(m/2) = {work} exceeds the "
            f"{ORACLE_LIMIT} cap")


def brute_force_count(m: int, delta, k: int) -> int:
    """Independent enumeration oracle for count_low_weight.

    Enumerates both half-words exhaustively and pairs their zero-count
    histograms, which covers the full k^m word space without the closed
    form.  Refuses once the enumeration work, k^ceil(m/2) words, would
    exceed 10^8.
    """
    d = _check_args(m, delta, k)
    check_oracle_work(m, k)
    return _split_count(m, d, k)


@dataclass(frozen=True)
class GrowthProfile:
    delta: Fraction
    k: int
    rows: tuple
    running_inf: tuple


def growth_rate_profile(delta, k: int, m_list) -> GrowthProfile:
    """Per-m log rates log|S(m, delta, k)| / m with the running infimum.

    The analytic reference H(delta) + delta log(k-1) is the limit of the
    rates; at finite m the exact rates sit below it (the floor in
    floor(delta*m) only ever removes words), so the running infimum
    converges upward while staying a true infimum of the computed values.
    """
    ms = list(m_list)
    if ms != sorted(ms) or len(set(ms)) != len(ms):
        raise ValueError("m_list must be strictly ascending")
    rows = []
    inf_so_far = []
    best = math.inf
    for m in ms:
        row = count_low_weight(m, delta, k)
        rows.append(row)
        best = min(best, row.log_rate)
        inf_so_far.append(best)
    return GrowthProfile(_exact(delta), k, tuple(rows), tuple(inf_so_far))
