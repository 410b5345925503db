"""Finite words over {0, ..., k-1}: factor counts, complexity profiles
with entropy estimates log p(n) / n, universal words and word files.

Words stand in for one-sided sequences; position p of the modeled
sequence (positions start at 1) lives at symbols[p-1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import atomic_write_text


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

    Prefix doubling (Manber & Myers 1993) over dense ranks: the word is
    padded past its end with a 0 that sorts below every symbol (symbol s
    has rank s + 1), and the rank of the length-2h factor at i is the
    dense id of the pair (rank_h[i], rank_h[i + h]), numbered by one
    argsort of the key rank_h[i] (top + 1) + rank_h[i + h], where top is
    the largest rank_h.  Each rank array and each key is held in the
    narrowest unsigned dtype its largest value fits, and a key of at most
    16 bits is sorted by radix ("stable"), a wider one by the default
    sort, which is the faster of the two at each width.  Doubling stops at
    the first power of two 2^T >= max(n_max, 2), whose sort puts equal
    length-n factors next to each other for every n <= n_max.  The common
    prefix of each adjacent pair, capped at n_max, comes from a binary
    descent over the T stored rank arrays, and p(n) = (|w| - n + 1) -
    #{adjacent pairs sharing n symbols}.  That is T = ceil(log2 n_max)
    sorts of |w| keys (one when n_max = 1).
    """
    if w.alphabet_size > 2 ** 31 - 1:     # keeps the level-0 key below 2^62
        raise ValueError("factor_counts needs alphabet_size <= 2^31 - 1")
    sym = w.symbols
    size = sym.size
    if not 1 <= n_max <= size:
        raise ValueError(f"factor length {n_max} out of range for |w| = {size}")
    top = w.alphabet_size                   # the rank of symbol k - 1
    rank = np.zeros(size + 1, np.min_scalar_type(top))
    rank[:size] = sym
    rank[:size] += 1
    ranks, h = [], 1
    while True:
        ranks.append(rank)
        key = rank[:size].astype(np.min_scalar_type((top + 1) ** 2 - 1))
        key *= top + 1
        key[:size - h] += rank[h:size]
        order = np.argsort(key, kind="stable" if key.itemsize <= 2 else None)
        order = order.astype(np.int32)
        key = key[order]
        new = np.empty(size, bool)          # where a sorted key differs from the one before
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        h *= 2
        if h >= n_max:
            break
        top = int(np.count_nonzero(new))
        rank = np.zeros(size + 1, np.min_scalar_type(top))
        rank[order] = np.cumsum(new, dtype=rank.dtype)
        del order, new                      # before the next level allocates its own
    # A common prefix never runs past the shorter suffix, so a + lcp <= |w|.
    a, b = order[:-1], order[1:]
    lcp = np.where(new[1:], np.int32(0), np.int32(h))
    del new
    while ranks:
        rank = ranks.pop()
        h //= 2
        np.add(lcp, h, out=lcp, where=rank[a + lcp] == rank[b + lcp])
    del a, b, order, rank                   # before bincount's intp copy of lcp
    hist = np.bincount(np.minimum(lcp, n_max, out=lcp), minlength=n_max + 1)
    shared = hist[::-1].cumsum()[::-1]      # shared[n] = #{adjacent pairs with lcp >= n}
    return (np.arange(size, size - n_max, -1) - shared[1:]).tolist()


@dataclass(frozen=True)
class ComplexityProfile:
    """p(n) = number of distinct length-n factors, with h(n) = log p(n) / n."""

    alphabet_size: int
    word_length: int
    p: dict
    h_est: dict

    def violations(self) -> list:
        """Each p(n) above min(k^n, |w| - n + 1), the two counts no word can
        exceed, named by the bound it breaks.  k^n is built only while
        k^(n-1) <= |w|; past that |w| - n + 1 is the smaller bound."""
        out = []
        k, size = self.alphabet_size, self.word_length
        power, at = 1, 0            # k^at, raised to k^n until it passes |w|
        for n in sorted(self.p):
            while at < n and power <= size:
                power, at = power * k, at + 1
            span = size - n + 1     # below power whenever at < n
            bound, name = (power, "k^n") if power < span else (span, "|w| - n + 1")
            if self.p[n] > bound:
                out.append(f"p({n}) = {self.p[n]} exceeds {name}")
        return out


def complexity_profile(w: SymbolWord, n_max: int) -> ComplexityProfile:
    """Factor counts for n = 1..n_max, with n_max at most |w|/2.

    Beyond half the length the profile measures the prefix artifact, not
    the sequence it approximates; factor_counts gives the deeper counts.
    One factor_counts call fills the profile, so its cost grows with
    log n_max: the whole profile to |w|/2 takes O(|w| log^2 |w|).
    """
    if len(w) < 2:
        raise ValueError("word too short for a profile")
    cap = len(w) // 2
    if n_max > cap:
        raise ValueError(f"n_max {n_max} beyond |w|/2 = {cap}")
    p = dict(enumerate(factor_counts(w, n_max), 1))
    h = {n: math.log(cnt) / n for n, cnt in p.items()}
    return ComplexityProfile(w.alphabet_size, len(w), p, h)


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
    """Inverse of write_word_file.  A k <= 10 body must be ASCII digits;
    a larger k takes comma-separated tokens of ASCII digits only, so a
    sign, an underscore, a space or an empty token is refused."""
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        if not (header.startswith(b"k=") and header[2:].isdigit()):
            raise ValueError(f"{path}: missing k=<digits> header")
        k = int(header[2:])
        body = [line.strip() for line in fh]
    if k <= 10:
        text = b"".join(body)
        bad = text.translate(None, b"0123456789")[:1]    # the first non-digit byte
        if bad:
            raise ValueError(f"{path}: symbol {bad!r} is not an ASCII decimal")
        sym = np.frombuffer(text, np.uint8) - ord("0")
    else:
        tokens = [x for line in body if line for x in line.split(b",")]
        bad = next((x for x in tokens if not x.isdigit()), None)
        if bad is not None:
            raise ValueError(f"{path}: symbol {bad!r} is not an ASCII decimal")
        sym = np.array([int(x) for x in tokens])
    return SymbolWord(k, sym)
