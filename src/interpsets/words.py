"""Finite words over {0, ..., k-1}: factor languages, complexity profiles,
entropy estimates, and the two special generators every construction leans
on (mechanical words and universal words).

Words stand in for one-sided sequences; position p of the modeled
sequence (positions start at 1) lives at symbols[p-1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intsets import (
    IntegerSetModel,
    atomic_write_text,
    continued_fraction,
    window,
)


@dataclass(frozen=True, eq=False)
class SymbolWord:
    """Immutable finite word over the alphabet {0, ..., alphabet_size-1}:
    `symbols` is a read-only copy of the input, uint8 for alphabet_size
    <= 256 and int64 above, and equality ignores the input's container."""

    alphabet_size: int
    symbols: np.ndarray

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        sym = np.asarray(self.symbols)
        if sym.ndim != 1 or (sym.size and sym.dtype.kind not in "iu"):
            raise ValueError("symbols must be a flat sequence of integers")
        if sym.size and not 0 <= sym.min() <= sym.max() < self.alphabet_size:
            raise ValueError(f"symbols outside alphabet {self.alphabet_size}")
        sym = sym.astype(np.uint8 if self.alphabet_size <= 256 else np.int64)
        sym.flags.writeable = False
        object.__setattr__(self, "symbols", sym)

    def _key(self):
        return self.alphabet_size, self.symbols.tobytes()

    def __eq__(self, other):
        return isinstance(other, SymbolWord) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return self.symbols.size

    def at(self, position: int) -> int:
        """Symbol at 1-based sequence position."""
        if not 1 <= position <= self.symbols.size:
            raise IndexError(position)
        return int(self.symbols[position - 1])


def factor_counts(w: SymbolWord, n_max: int) -> list:
    """[p(1), ..., p(n_max)]: the number of distinct length-n factors of w.

    One refinement pass: each position holds the id of the length-n factor
    starting there, and the ids at n + 1 are the pairs (id at n, next
    symbol), renumbered densely by np.unique.  Ids are below |w|, so the
    pairs fit uint32 whenever |w| k < 2^32, which halves what np.unique
    sorts; longer words keep int64.
    """
    if w.alphabet_size > 256:
        raise ValueError("factor_counts needs alphabet_size <= 256")
    sym = w.symbols
    if not 1 <= n_max <= sym.size:
        raise ValueError(f"factor length {n_max} out of range for |w| = {sym.size}")
    id_type = np.uint32 if sym.size * w.alphabet_size < 2 ** 32 else np.int64
    counts = []
    ids = sym
    for n in range(1, n_max + 1):
        uniq, ids = np.unique(ids, return_inverse=True)
        counts.append(len(uniq))
        if n < n_max:
            ids = ids[:-1].astype(id_type, copy=False) * w.alphabet_size + sym[n:]
    return counts


@dataclass(frozen=True)
class ComplexityProfile:
    """p(n) = number of distinct length-n factors, with h(n) = log p(n) / n."""

    alphabet_size: int
    word_length: int
    p: dict
    h_est: dict

    def violations(self) -> list:
        """Invariant check: p(n) <= k^n, submultiplicativity, monotone head."""
        out = []
        k = self.alphabet_size
        ns = sorted(self.p)
        for n in ns:
            if self.p[n] > k ** n:
                out.append(f"p({n}) = {self.p[n]} exceeds k^n")
        peak = max(ns, key=lambda n: (self.p[n], -n))
        prev = 0
        for n in ns:
            if n > peak:
                break
            if self.p[n] < prev:
                out.append(f"p not nondecreasing at n = {n}")
            prev = self.p[n]
        for n in ns:
            for m in ns:
                if n + m in self.p and self.p[n + m] > self.p[n] * self.p[m]:
                    out.append(f"p({n + m}) > p({n}) p({m})")
        return out


def complexity_profile(w: SymbolWord, n_max: int) -> ComplexityProfile:
    """Factor counts for n = 1..n_max, with n_max at most |w|/2.

    Beyond half the length the profile measures the prefix artifact, not
    the sequence it approximates; factor_counts gives the deeper counts.
    """
    if len(w) < 2:
        raise ValueError("word too short for a profile")
    cap = len(w) // 2
    if n_max > cap:
        raise ValueError(f"n_max {n_max} beyond |w|/2 = {cap}")
    p = dict(enumerate(factor_counts(w, n_max), 1))
    h = {n: math.log(cnt) / n for n, cnt in p.items()}
    return ComplexityProfile(w.alphabet_size, len(w), p, h)


@dataclass(frozen=True)
class EntropyEstimate:
    n_max: int
    at_n_max: float
    infimum: float


def entropy_estimate(profile: ComplexityProfile) -> EntropyEstimate:
    """log p(n)/n at the deepest computed n, and the infimum over all n."""
    if not profile.p:
        raise ValueError("empty profile")
    n_max = max(profile.p)
    return EntropyEstimate(n_max, profile.h_est[n_max], min(profile.h_est.values()))


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


def _de_bruijn(k: int, n: int) -> list:
    """Cyclic de Bruijn sequence of order n over {0..k-1} (FKM algorithm)."""
    if k == 1:
        return [0]
    a = [0] * (k * n)
    seq = []

    def db(t, p):
        if t > n:
            if n % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return seq


def universal_word(k: int, max_len: int) -> SymbolWord:
    """A word containing every word of length <= max_len over {0..k-1}.

    Concatenates linearized de Bruijn sequences of orders 1..max_len, so
    prefixes already cover all short orders; total length stays below the
    k^L * L + k budget.
    """
    if k < 1 or max_len < 1:
        raise ValueError("need k >= 1 and max_len >= 1")
    sym = []
    for n in range(1, max_len + 1):
        cyc = _de_bruijn(k, n)
        sym.extend(cyc)
        sym.extend(cyc[:n - 1])
    return SymbolWord(k, sym)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def write_word_file(path, w: SymbolWord) -> None:
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


def read_word_file(path) -> SymbolWord:
    """Inverse of write_word_file; a k <= 10 body must be ASCII digits."""
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        if not header.startswith(b"k="):
            raise ValueError(f"{path}: missing k= header")
        k = int(header[2:])
        body = [line.strip() for line in fh]
    if k <= 10:
        sym = np.frombuffer(b"".join(body), np.uint8) - ord("0")
    else:
        sym = np.array([int(x) for line in body if line
                        for x in line.split(b",")])
    return SymbolWord(k, sym)
