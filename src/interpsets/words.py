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
    `symbols` is a read-only copy of the input in the narrowest unsigned
    dtype that holds alphabet_size - 1 (uint8 for alphabet_size <= 256,
    uint16 up to 2^16, at most uint64, which holds every integer array
    numpy accepts), and equality ignores the input's container."""

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
        sym = sym.astype(np.min_scalar_type(min(self.alphabet_size, 2 ** 64) - 1))
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


_SLICE = 1 << 12      # positions per step of every |w|-long pass in factor_counts


def _dense_ranks(keys, span: int, size: int):
    """(D, pairs) for the keys keys(lo, hi) of positions 0..size-1, each in
    [0, span): D distinct keys, and pairs yields, one slice at a time,
    positions (a slice of them, or an index array) with their keys' dense
    ranks 1..D in key order.

    A span of at most size is ranked through a table of the keys present,
    with no sort.  A wider key is sorted with the position in its low bits,
    so the sort carries the positions and builds no permutation; the sorted
    array then numbers its runs of equal keys.  A key too wide to share 64
    bits with a position, which a pair key can be only past 2^21 symbols,
    is sorted in two such passes, least significant digit first, where the
    second pass carries each position's place in the first instead of the
    position.
    """
    slices = [(lo, min(lo + _SLICE, size)) for lo in range(0, size, _SLICE)]
    if span <= size:
        table = np.zeros(span, np.min_scalar_type(span))
        for lo, hi in slices:
            table[keys(lo, hi)] = 1
        np.cumsum(table, out=table)         # table[key] = dense rank of key
        return int(table[-1]), ((slice(lo, hi), table[keys(lo, hi)])
                                for lo, hi in slices)
    bits = (size - 1).bit_length()
    width, digit = (span - 1).bit_length(), 64 - bits
    dtype = np.uint32 if width + bits <= 32 else np.uint64
    passes, place = [], None                # place[pos]: pos's index in the last pass

    def entries(lo, hi):
        """Key digits from the last pass back, and the positions, of the
        sorted slice lo..hi."""
        parts, at = [], slice(lo, hi)
        for sorted_ in reversed(passes):
            entry = sorted_[at]
            parts.append(entry >> bits)
            at = entry & (2 ** bits - 1)
        return parts, at

    for shift in range(0, width, digit):
        sorted_ = np.empty(size, dtype)
        for lo, hi in slices:
            part = sorted_[lo:hi]
            part[:] = keys(lo, hi) >> shift
            if shift + digit < width:
                part &= 2 ** digit - 1
            part <<= bits
            part |= np.arange(lo, hi, dtype=dtype) if place is None else place[lo:hi]
        sorted_.sort()
        passes.append(sorted_)
        if shift + digit < width:
            place = np.empty(size, np.min_scalar_type(size))
            for lo, hi in slices:
                place[entries(lo, hi)[1]] = np.arange(lo, hi)
    del place

    def runs():     # per slice: positions, and where a key differs from the one before
        last = None
        for lo, hi in slices:
            parts, pos = entries(lo, hi)
            new = np.zeros(hi - lo, bool)
            for part in parts:
                new[1:] |= part[1:] != part[:-1]
            new[0] = last != [int(part[0]) for part in parts]
            last = [int(part[-1]) for part in parts]
            yield pos, new

    def pairs():
        done = 0
        for pos, new in runs():
            rank = np.cumsum(new)
            rank += done
            done = int(rank[-1])
            yield pos, rank

    return sum(int(np.count_nonzero(new)) for _, new in runs()), pairs()


def _pair_keys(rank, h: int, top: int):
    """keys(lo, hi) of level 2h: rank_h[i] (top + 1) + rank_h[i + h] for
    i in lo..hi-1, as intp, which numpy indexes with no conversion."""
    def keys(lo, hi):
        key = rank[lo:hi].astype(np.intp)
        key *= top + 1
        tail = rank[lo + h:hi + h]          # shorter at the end: those pairs end in the pad
        key[:tail.size] += tail
        return key
    return keys


def factor_counts(w: SymbolWord, n_max: int) -> list:
    """[p(1), ..., p(n_max)]: the number of distinct length-n factors of w.

    Prefix doubling (Manber & Myers 1993) over dense ranks: the word is
    padded past its end with a 0 that sorts below every symbol, rank_1 is
    the dense rank of each symbol among those present, and rank_2h[i] is
    the dense rank of the pair key rank_h[i] (D_h + 1) + rank_h[i + h],
    where D_h counts the distinct (padded) length-h factors.  No level
    sorts a permutation of the word: `_dense_ranks` numbers each level's
    distinct keys, one slice of positions at a time, and each rank array is
    held in the narrowest unsigned dtype D_h fits.  Doubling stops at the
    first level H >= n_max, or earlier at the first level whose D_H = |w|
    factors are all distinct.  That level keeps one position per distinct
    factor, in factor order; the common prefix of each adjacent pair comes
    from a binary descent over the stored rank arrays, and since two of
    the D_H sorted factors share their first n symbols exactly when they
    give one length-n factor (or one of the n - 1 padded ones),
    p(n) = D_H - n + 1 - #{adjacent pairs sharing n symbols}.
    """
    if w.alphabet_size > 2 ** 31 - 1:     # keeps the level-1 key below 2^31
        raise ValueError("factor_counts needs alphabet_size <= 2^31 - 1")
    sym = w.symbols
    size = sym.size
    if not 1 <= n_max <= size:
        raise ValueError(f"factor length {n_max} out of range for |w| = {size}")
    ranks, h = [], 1
    keys, span = lambda lo, hi: sym[lo:hi].astype(np.intp), w.alphabet_size
    while True:
        count, pairs = _dense_ranks(keys, span, size)
        if h >= n_max or count == size:
            break
        rank = np.zeros(size + 1, np.min_scalar_type(count))
        for pos, r in pairs:
            rank[pos] = r
        ranks.append(rank)
        keys, span, h = _pair_keys(rank, h, count), (count + 1) ** 2, 2 * h
    first = np.empty(count, np.min_scalar_type(size))   # a position of each factor, in order
    for pos, r in pairs:
        first[r - 1] = np.r_[pos]           # a table level gives its positions as a slice
    # A common prefix never runs past the shorter factor, so a + lcp <= |w|.
    hist = np.zeros(n_max + 1, np.int64)
    for lo in range(0, count - 1, _SLICE):
        hi = min(lo + _SLICE, count - 1)
        a, b = first[lo:hi].astype(np.intp), first[lo + 1:hi + 1].astype(np.intp)
        lcp = np.zeros(a.size, np.intp)
        step = h
        for rank in reversed(ranks):
            step //= 2
            np.add(lcp, step, out=lcp, where=rank[a + lcp] == rank[b + lcp])
        hist += np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    shared = hist[::-1].cumsum()[::-1]      # shared[n] = #{adjacent pairs with lcp >= n}
    return (np.arange(count, count - n_max, -1) - shared[1:]).tolist()


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
    One factor_counts call fills the profile: one level of |w|-long passes
    per power of two up to n_max, and none past the first level whose
    factors are all distinct, each level a table lookup or one sort, so
    the whole profile to |w|/2 takes O(|w| log^2 |w|).
    """
    if len(w) < 2:
        raise ValueError("word too short for a profile")
    cap = len(w) // 2
    if n_max > cap:
        raise ValueError(f"n_max {n_max} beyond |w|/2 = {cap}")
    p = dict(enumerate(factor_counts(w, n_max), 1))
    h = {n: math.log(cnt) / n for n, cnt in p.items()}
    return ComplexityProfile(w.alphabet_size, len(w), p, h)


def _de_bruijn(k: int, n: int):
    """Yield the cyclic de Bruijn sequence of order n over {0..k-1} (FKM
    algorithm), from n + 1 work cells whatever k is."""
    a = [0] * (n + 1)

    def db(t, p):
        if t > n:
            if n % p == 0:
                yield from a[1:p + 1]
        else:
            a[t] = a[t - p]
            yield from db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                yield from db(t + 1, t)

    yield from db(1, 1)


def universal_symbols(k: int, max_len: int):
    """Yield, in order, the symbols of a word that contains every word of
    length <= max_len over {0..k-1}, so a prefix costs only its own length.

    The word concatenates linearized de Bruijn sequences of orders
    1..max_len, so its prefixes already cover the short orders, and its
    length stays below the k^L * L + k budget.  Each cyclic de Bruijn
    sequence is linearized by repeating its first n - 1 symbols, which are
    0s (it opens with 0^n, or is the single symbol 0 when k = 1)."""
    if k < 1 or max_len < 1:
        raise ValueError("need k >= 1 and max_len >= 1")
    for n in range(1, max_len + 1):
        yield from _de_bruijn(k, n)
        yield from [0] * min(n - 1, k ** n)


def write_word_file(path, w: SymbolWord) -> None:
    """Header 'k=<alphabet>', then symbols; for k <= 10, rows of 120 ASCII
    digits, and for a larger k, rows of 40 comma-separated decimals.

    A k <= 10 file is laid out in one uint8 buffer, digits and newlines,
    about one byte per symbol, which is written as it stands.  Written
    atomically (temp file + rename)."""
    if w.alphabet_size > 10:
        lines = [f"k={w.alphabet_size}"]
        sym = w.symbols.tolist()
        lines.extend(",".join(map(str, sym[i:i + 40]))
                     for i in range(0, len(sym), 40))
        atomic_write_text(path, "\n".join(lines) + "\n")
        return
    head, row = f"k={w.alphabet_size}\n".encode("ascii"), 120
    size = len(w)
    full, tail = divmod(size, row)
    buf = np.empty(len(head) + size + full + (tail > 0), np.uint8)
    buf[:len(head)] = np.frombuffer(head, np.uint8)
    rows = buf[len(head):len(head) + full * (row + 1)].reshape(full, row + 1)
    np.add(w.symbols[:full * row].reshape(full, row), ord("0"), out=rows[:, :row])
    rows[:, row] = ord("\n")
    if tail:
        np.add(w.symbols[full * row:], ord("0"), out=buf[-tail - 1:-1])
        buf[-1] = ord("\n")
    atomic_write_text(path, buf)


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
