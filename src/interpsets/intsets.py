"""Subsets of N = {1, 2, ...} with scale-tagged combinatorial certificates.

A set is described either by a closed-form generator (arithmetic
progression, powers of a fixed base, Sturmian floor set, finite subset
sums, shifts and unions of these) or by an explicit finite window.  The
syndetic / thick / piecewise-syndetic predicates are evaluated on an
explicit window [1, N] and return Certificates that can be replayed
against the set.  Nothing here claims an infinitary verdict: every
answer is tagged with the scale it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .certificate import FAILS, HOLDS, Certificate, atomic_write_text


class SpecGrammarError(ValueError):
    """Malformed generator spec string."""


def continued_fraction_value(cf) -> Fraction:
    """Evaluate a continued fraction [a0; a1, a2, ...] to an exact rational."""
    cf = list(cf)
    if not cf:
        raise ValueError("empty continued fraction")
    if cf[0] < 0 or any(a < 1 for a in cf[1:]):
        raise ValueError("continued fraction needs a0 >= 0 and a_i >= 1")
    value = Fraction(cf[-1])
    for a in reversed(cf[:-1]):
        value = a + 1 / value
    return value


@dataclass(frozen=True)
class IntegerSetModel:
    """A subset of N given by a generator or an explicit window.

    Membership is exact and deterministic; explicit sets are only known
    up to window_bound and refuse questions beyond it.
    """

    kind: str
    a: int = 0
    b: int = 0
    base: int = 0
    cf: tuple = ()
    members: tuple = ()
    window_bound: int | None = None
    parts: tuple = ()
    inner: "IntegerSetModel | None" = None
    t: int = 0
    gens: tuple = ()
    # (n, array): the largest window built so far; see window()
    _window: list = field(default_factory=list, init=False, repr=False,
                          compare=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def explicit_window(cls, members, window_bound=None):
        """Finite set given by its elements.  window_bound = None means the
        list is complete; a bound means membership is only known up to it."""
        ms = tuple(sorted(set(int(x) for x in members)))
        if ms and ms[0] < 1:
            raise ValueError("explicit members must be >= 1")
        if window_bound is not None and ms and ms[-1] > window_bound:
            raise ValueError("member beyond window_bound")
        return cls(kind="explicit", members=ms, window_bound=window_bound)

    @classmethod
    def arithmetic_progression(cls, a, b):
        if a < 1:
            raise ValueError("modulus a must be >= 1")
        return cls(kind="ap", a=a, b=b % a)

    @classmethod
    def lacunary_powers(cls, base):
        if base < 2:
            raise ValueError("base must be >= 2")
        return cls(kind="powers", base=base)

    @classmethod
    def sturmian_floor(cls, cf):
        delta = continued_fraction_value(cf)
        if not 0 < delta <= 1:
            raise ValueError("sturmian parameter must lie in (0, 1]")
        return cls(kind="sturmian", cf=tuple(int(a) for a in cf))

    @classmethod
    def union_of(cls, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("union needs at least one part")
        return cls(kind="union", parts=parts)

    @classmethod
    def shifted(cls, inner, t):
        return cls(kind="shift", inner=inner, t=int(t))

    @classmethod
    def finite_sums(cls, gens):
        gs = tuple(sorted(set(int(g) for g in gens)))
        if not gs or gs[0] < 1:
            raise ValueError("generators must be positive")
        return cls(kind="sums", gens=gs)

    # -- queries ---------------------------------------------------------

    def delta(self) -> Fraction:
        if self.kind != "sturmian":
            raise ValueError("delta is only defined for sturmian sets")
        return continued_fraction_value(self.cf)

    def elements(self, n: int) -> list:
        """Sorted members of S in [1, n], as a list view of window()."""
        return window(self, n).tolist()

    def exact_density(self):
        """Exact upper Banach density where the generator has a closed form."""
        if self.kind == "ap":
            return Fraction(1, self.a)
        if self.kind == "sturmian":
            return self.delta()
        return None

    def spec_string(self) -> str:
        if self.kind == "explicit":
            elems = ",".join(str(x) for x in self.members)
            spec = f"kind=explicit elements={elems}"
            if self.window_bound is not None:
                spec += f" bound={self.window_bound}"
            return spec
        if self.kind == "ap":
            return f"kind=ap a={self.a} b={self.b}"
        if self.kind == "powers":
            return f"kind=powers base={self.base}"
        if self.kind == "sturmian":
            return "kind=sturmian cf=" + ",".join(str(a) for a in self.cf)
        if self.kind == "union":
            return "kind=union of=" + "".join(f"({p.spec_string()})" for p in self.parts)
        if self.kind == "shift":
            return f"kind=shift t={self.t} of=({self.inner.spec_string()})"
        if self.kind == "sums":
            return "kind=sums gens=" + ",".join(str(g) for g in self.gens)
        raise ValueError(self.kind)


_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def window(model: IntegerSetModel, n: int) -> np.ndarray:
    """S intersect [1, n] as a sorted, read-only int64 array.

    Each model keeps the largest window it has built; a window at a
    smaller n is a prefix view of that array, so S intersect [1, N] is
    materialized once per (model, N).
    """
    n = int(n)
    if n < 1:
        return _EMPTY
    if model.kind == "explicit" and model.window_bound is not None \
            and n > model.window_bound:
        raise ValueError(
            f"window {n} exceeds explicit window_bound {model.window_bound}")
    if not model._window or model._window[0] < n:
        arr = np.asarray(_materialize(model, n), dtype=np.int64)
        arr.flags.writeable = False
        model._window[:] = [n, arr]
    arr = model._window[1]
    if arr.size and n < int(arr[-1]):
        arr = arr[:int(arr.searchsorted(n, "right"))]
    return arr


def _materialize(model: IntegerSetModel, n: int):
    if model.kind == "explicit":
        return model.members
    if model.kind == "ap":
        return np.arange(model.b if model.b >= 1 else model.a, n + 1, model.a)
    if model.kind == "powers":
        out = []
        v = model.base
        while v <= n:
            out.append(v)
            v *= model.base
        return out
    if model.kind == "sturmian":
        # x_m = floor(m / delta) = floor(m q / p); q/p >= 1, so the x_m
        # strictly increase.  m q may pass int64, so with q = a p + r,
        # m = m0 + i and m0 q = x_{m0} p + R_0 each chunk computes
        # x_m = x_{m0} + a i + floor((R_0 + i r) / p), exact in int64 while
        # R_0 + i r < 2^63, which a chunk of at most (2^63 - 1 - p) / r
        # members keeps; one Python-int divmod per chunk start, and at most
        # _CHUNK members per chunk, so the temporaries stay one slice.
        d = model.delta()
        p, q = d.numerator, d.denominator
        count = ((n + 1) * p - 1) // q
        a, r = divmod(q, p)
        step = max(1, min(_CHUNK, (2 ** 63 - 1 - p) // max(r, 1)))
        out = np.empty(count, np.int64)
        for m0 in range(1, count + 1, step):
            x, r0 = divmod(m0 * q, p)
            out[m0 - 1] = x
            length = min(step, count + 1 - m0)
            if length > 1:
                i = np.arange(1, length, dtype=np.int64)
                out[m0:m0 - 1 + length] = x + a * i + (r0 + i * r) // p
        return out
    if model.kind == "union":
        return np.unique(np.concatenate([window(part, n) for part in model.parts]))
    if model.kind == "shift":
        sub = window(model.inner, n - model.t) + model.t
        return sub[sub >= 1]
    if model.kind == "sums":
        # exact subset-sum DP on a Python-int bitset: bit s set iff s is a sum
        top = min(n, sum(model.gens))
        mask = (1 << (top + 1)) - 1
        reach = 1
        for g in model.gens:
            if g > top:   # gens are sorted; a larger shift only clears bits
                break
            reach |= (reach << g) & mask
        bits = np.unpackbits(
            np.frombuffer(reach.to_bytes(top // 8 + 1, "little"), dtype=np.uint8),
            bitorder="little")
        return np.flatnonzero(bits)[1:]
    raise ValueError(f"unknown kind {model.kind!r}")


# -- certificates ---------------------------------------------------------


_CHUNK = 1 << 16   # members per slice of a streamed scan


def gap_histogram(model: IntegerSetModel, n: int) -> dict:
    """{gap: count} over the differences of consecutive members of S in
    [1, n], ascending in gap, read one slice of _CHUNK gaps at a time."""
    arr = window(model, n)
    hist = {}
    for i in range(1, arr.size, _CHUNK):
        gaps, counts = np.unique(np.diff(arr[i - 1:i + _CHUNK]), return_counts=True)
        for gap, count in zip(gaps.tolist(), counts.tolist()):
            hist[gap] = hist.get(gap, 0) + count
    return dict(sorted(hist.items()))


def free_run_chunks(arr: np.ndarray, lo: int, hi: int):
    """(starts, lengths) of the maximal S-free runs inside [lo, hi], where
    arr holds the members of S in [lo, hi], one pair per slice of at most
    _CHUNK members, in order.  A slice's runs end just before its members
    (the last slice's also run up to hi), and each slice carries the
    member before it, so no array beside arr is longer than a slice."""
    prev = lo - 1
    for i in range(0, arr.size + 1, _CHUNK):
        nxt = arr[i:i + _CHUNK]
        if i + _CHUNK > arr.size:
            nxt = np.append(nxt, hi + 1)
        starts = np.concatenate(([prev], nxt[:-1])) + 1
        keep = starts < nxt
        prev = nxt[-1]
        starts = starts[keep]       # let go of the full slice before yielding
        yield starts, nxt[keep] - starts


def first_fit(runs, need: int):
    """(start, length) of the first run at least need long, else of the
    first longest one, in runs, a stream of (starts, lengths) slices;
    (None, 0) when no run is longer than 0."""
    best = None, 0
    for starts, lengths in runs:
        hit = lengths >= need
        if hit.any():
            i = int(hit.argmax())
            return int(starts[i]), int(lengths[i])
        if lengths.max(initial=0) > best[1]:
            i = int(lengths.argmax())
            best = int(starts[i]), int(lengths[i])
    return best


def _stretches(arr: np.ndarray, n: int, m: int):
    """Yield (lo, length) per slice of free_run_chunks(arr, 1, n): the
    maximal stretches [lo, lo+length) of the starts x <= n-m+1 whose
    window [x, x+m-1] meets S, in order (empty ones included).  The
    stretches lie between the free runs of length >= m, so with m = 1
    they are the runs of members; the last one ends at n-m+2, after
    every slice."""
    cur = 1
    for starts, lengths in free_run_chunks(arr, 1, n):
        keep = lengths >= m
        lo = np.append(cur, starts[keep] + lengths[keep] - m + 1)
        cur = lo[-1]
        yield lo[:-1], starts[keep] - lo[:-1]
    yield np.array([cur]), np.array([n - m + 2 - cur])


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
    # a gap [lo, hi] spans the free run [lo+1, hi-1] of [1, last], and no
    # run is n + 1 long, so first_fit gives the first longest; with no such
    # run the largest gap is [0, 1] (1 is in S), or [0, 0] when S misses [1, n]
    last = int(arr[-1]) if arr.size else 0
    start, length = first_fit(free_run_chunks(arr, 1, last), n + 1)
    lo, hi = (start - 1, start + length) if length else (0, min(arr.size, 1))
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
    scale = {"N": n, "L": run_len}
    start, longest = first_fit(_stretches(window(model, n), n, 1), run_len)
    if longest >= run_len:
        return Certificate("thick", scale, HOLDS,
                           {"run_start": start, "length": run_len})
    return Certificate("thick", scale, FAILS,
                       {"longest_run_start": start, "longest_run": longest})


def gap_syndeticity_table(model: IntegerSetModel, n: int, gap_len: int) -> Certificate:
    """Do S-free runs of length gap_len recur across the whole window?

    The holds witness carries spacing_bound D: the least L such that every
    length-L subinterval of [1, n] contains a full gap_len-run disjoint
    from S.  Fails when no such run exists at all in the window.  When S
    misses the window, [1, n] is one run and D = gap_len.
    """
    if gap_len < 1:
        raise ValueError("gap length must be >= 1")
    scale = {"N": n, "n": gap_len}
    arr = window(model, n)
    first, longest = first_fit(free_run_chunks(arr, 1, n), gap_len)
    if longest < gap_len:       # no gap_len-run starts in the window
        witness = {"stretch": [1, n], "longest_free_run": longest}
        return Certificate("gap-syndetic", scale, FAILS, witness)
    # the starts of gap_len-runs are the positions of [1, n-gap_len+1] off
    # the stretches; a stretch of length s needs D = s + gap_len
    widest = total = 0
    for _, length in _stretches(arr, n, gap_len):
        widest = max(widest, int(length.max(initial=0)))
        total += int(length.sum())
    witness = {"spacing_bound": widest + gap_len, "first_gap_start": first,
               "gap_start_count": n - gap_len + 1 - total}
    return Certificate("gap-syndetic", scale, HOLDS, witness)


def piecewise_syndetic_certificate(model: IntegerSetModel, n: int, g: int,
                                   run_len: int) -> Certificate:
    """Does some length-run_len subinterval of [1, n] have all S-gaps <= g?

    A window [a, a+L-1] qualifies when every length-g subwindow of it
    meets S, so when its start is in a stretch of _stretches with m = g at
    least L-g+1 long.  Scan is linear in the number of S-free runs.
    """
    if g < 1 or run_len < g:
        raise ValueError("need run length L >= g >= 1")
    if run_len > n:
        raise ValueError("window must satisfy N >= L")
    scale = {"N": n, "g": g, "L": run_len}
    need = run_len - g + 1
    a, best = first_fit(_stretches(window(model, n), n, g), need)
    if best >= need:
        return Certificate("piecewise-syndetic", scale, HOLDS,
                           {"interval": [a, a + run_len - 1]})
    witness = {"best_stretch": best, "best_start": a, "needed": need}
    return Certificate("piecewise-syndetic", scale, FAILS, witness)


@dataclass(frozen=True)
class DensityRow:
    length: int
    count: int
    start: int
    value: Fraction


@dataclass(frozen=True)
class DensityProfile:
    window: int
    rows: tuple
    exact: Fraction | None


def max_window_count(model: IntegerSetModel, n: int, length: int):
    """(count, start) maximizing |S intersect [m, m+length)| over [1, n].

    Candidate starts are the members of S clamped to [1, n-length+1]; the
    first maximizing one is returned, (0, 1) when S misses [1, n].  A
    member at or below the clamp is its own left index, so one search per
    slice of _CHUNK such members counts their windows; every clamped
    member shares one window, counted last.  No count reaches |S|+1, so
    first_fit returns the first largest.
    """
    arr = window(model, n)
    if not arr.size:
        return 0, 1
    top = max(n - length + 1, 1)
    own = int(arr.searchsorted(top, "right"))     # members at or below top

    def counts():       # (starts, counts) per slice, as first_fit reads them
        for i in range(0, own, _CHUNK):
            starts = arr[i:min(i + _CHUNK, own)]
            yield starts, (arr.searchsorted(starts + (length - 1), "right")
                           - np.arange(i, i + starts.size))
        if own < arr.size:   # every member past top starts its window at top
            yield [top], np.array([arr.size - int(arr.searchsorted(top, "left"))])

    start, count = first_fit(counts(), arr.size + 1)
    return count, start


def banach_density_profile(model: IntegerSetModel, n: int,
                           n_max: int) -> DensityProfile:
    """Best window densities d_L = max_m |S intersect [m, m+L)| / L.

    Computes d_L for L = 1..n_max and attaches the exact density when the
    generator has one; max_window_count gives a single length.
    """
    if n_max > n // 2:
        raise ValueError("n_max must be <= N/2")
    rows = []
    for length in range(1, n_max + 1):
        count, start = max_window_count(model, n, length)
        rows.append(DensityRow(length, count, start, Fraction(count, length)))
    return DensityProfile(n, tuple(rows), model.exact_density())


def replay_certificate(model: IntegerSetModel, cert: Certificate) -> bool:
    """Recompute the certificate and check the witness against the set."""
    s = cert.scale
    if cert.predicate == "syndetic":
        again = syndetic_certificate(model, s["N"], s["g"])
    elif cert.predicate == "thick":
        again = thick_certificate(model, s["N"], s["L"])
    elif cert.predicate == "gap-syndetic":
        again = gap_syndeticity_table(model, s["N"], s["n"])
    elif cert.predicate == "piecewise-syndetic":
        again = piecewise_syndetic_certificate(model, s["N"], s["g"], s["L"])
    else:
        raise ValueError(f"unknown predicate {cert.predicate!r}")
    if again != cert:
        return False
    return _witness_consistent(model, cert)


def _members_in(model: IntegerSetModel, n: int, lo: int, hi: int) -> np.ndarray:
    """Members of S in [lo, hi], read from the window at max(n, hi)."""
    arr = window(model, max(n, hi))
    return arr[arr.searchsorted(lo):arr.searchsorted(hi, "right")]


def _witness_consistent(model: IntegerSetModel, cert: Certificate) -> bool:
    s, w = cert.scale, cert.witness
    n = s["N"]

    def member(x):
        return _members_in(model, n, x, x).size == 1

    if cert.predicate == "syndetic" and cert.verdict == FAILS:
        lo, hi = w["gap"]
        if w["kind"] == "completed":
            if hi - lo <= s["g"]:
                return False
            return ((lo == 0 or member(lo)) and member(hi)
                    and not _members_in(model, n, lo + 1, hi - 1).size)
        return ((lo == 0 or member(lo))
                and not _members_in(model, n, lo + 1, n).size)
    if cert.predicate == "thick" and cert.verdict == HOLDS:
        a, length = w["run_start"], w["length"]
        return _members_in(model, n, a, a + length - 1).size == max(length, 0)
    if cert.predicate == "piecewise-syndetic" and cert.verdict == HOLDS:
        # every g-window of [a, b] meets S iff no two consecutive members
        # (with a - 1 and b + 1 as ends) are more than g apart
        a, b = w["interval"]
        ends = np.concatenate(([a - 1], _members_in(model, n, a, b), [b + 1]))
        return int(np.diff(ends).max()) <= s["g"]
    if cert.predicate == "gap-syndetic" and cert.verdict == HOLDS:
        u = w["first_gap_start"]
        return not _members_in(model, n, u, u + s["n"] - 1).size
    return True


# -- spec grammar and files ------------------------------------------------


def _tokenize_spec(text: str) -> list:
    tokens, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecGrammarError("unbalanced parentheses")
            cur.append(ch)
        elif ch.isspace() and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SpecGrammarError("unbalanced parentheses")
    if cur:
        tokens.append("".join(cur))
    return tokens


def _split_groups(value: str) -> list:
    """The contents of the groups (...)(...) that make up all of value."""
    groups, cur, depth = [], [], 0
    for ch in value:
        if not depth and ch != "(":
            raise SpecGrammarError(f"stray {ch!r} outside the groups of {value!r}")
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                groups.append("".join(cur))
                cur = []
                continue
        cur.append(ch)
    if depth:
        raise SpecGrammarError(f"malformed group list {value!r}")
    return groups


def parse_set_spec(text: str) -> IntegerSetModel:
    """Parse the key=value generator grammar, e.g. 'kind=ap a=3 b=0'."""
    fields = {}
    for tok in _tokenize_spec(text):
        if "=" not in tok:
            raise SpecGrammarError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in fields:
            raise SpecGrammarError(f"key {key!r} repeated in {text!r}")
        fields[key] = value
    kind = fields.pop("kind", None)
    if kind is None:
        raise SpecGrammarError("missing kind=")
    try:
        if kind == "explicit":
            elems = [int(x) for x in fields.pop("elements").split(",") if x]
            bound = int(fields.pop("bound")) if "bound" in fields else None
            model = IntegerSetModel.explicit_window(elems, bound)
        elif kind == "ap":
            model = IntegerSetModel.arithmetic_progression(
                int(fields.pop("a")), int(fields.pop("b")))
        elif kind == "powers":
            model = IntegerSetModel.lacunary_powers(int(fields.pop("base")))
        elif kind == "sturmian":
            cf = [int(x) for x in fields.pop("cf").split(",")]
            model = IntegerSetModel.sturmian_floor(cf)
        elif kind == "union":
            parts = [parse_set_spec(g) for g in _split_groups(fields.pop("of"))]
            model = IntegerSetModel.union_of(parts)
        elif kind == "shift":
            groups = _split_groups(fields.pop("of"))
            if len(groups) != 1:
                raise SpecGrammarError(
                    f"shift needs exactly one of= group, got {len(groups)}")
            inner = parse_set_spec(groups[0])
            model = IntegerSetModel.shifted(inner, int(fields.pop("t")))
        elif kind == "sums":
            gens = [int(x) for x in fields.pop("gens").split(",")]
            model = IntegerSetModel.finite_sums(gens)
        else:
            raise SpecGrammarError(f"unknown kind {kind!r}")
    except KeyError as exc:      # only a missing key raises it
        raise SpecGrammarError(
            f"bad spec {text!r}: kind={kind} needs {exc.args[0]}=") from exc
    except ValueError as exc:
        if isinstance(exc, SpecGrammarError):
            raise
        raise SpecGrammarError(f"bad spec {text!r}: {exc}") from exc
    if fields:
        raise SpecGrammarError(f"unused keys {sorted(fields)} in {text!r}")
    return model


def write_set_file(path, elements) -> None:
    """One ascending decimal per line, LF endings; atomic write."""
    atomic_write_text(path, "".join(f"{x}\n" for x in elements))
