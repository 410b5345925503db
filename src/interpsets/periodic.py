"""What a set spec's ints say about the set, and answers read from one period.

`descriptor` reads the spec's ints, and no membership, into (kind, p0, P),
and `size_bound` bounds |S intersect [1, n]| by them.  `answer` runs an
`intsets` window query on a set with a periodic or finite descriptor at a
scale of about two periods, whatever the scale asked, and extends the
answer exactly; replay's `witness_consistent` reads a witness the same way.
`intsets` imports this module on first use, so a command that makes none
of those queries, and builds no window past `intsets.WINDOW_LIMIT`, never
compiles it.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

from .certificate import FAILS, HOLDS, Certificate
from .intsets import window


def descriptor(model) -> tuple:
    """(kind, p0, P) of model's set S, from the spec's ints alone.

    ("periodic", p0, P) when x in S iff x + P in S for every x > p0;
    ("finite", p0, 1) when S lies in [1, p0], also periodic with P = 1;
    ("lacunary", None, None) when past a finite part the gaps grow
    without bound; ("none", None, None) otherwise, as for a union of a
    lacunary and a periodic part, or an explicit set known only up to its
    bound.  ap has period a; a Sturmian set with delta = p/q has period
    q, as x_{m+p} = x_m + q and x_p = q; a union takes the lcm of the
    periods and the max of the preperiods, and a shift by t moves the
    preperiod to max(0, p0 + t).
    """
    if model.kind == "ap":
        return "periodic", 0, model.a
    if model.kind == "sturmian":
        return "periodic", 0, model.delta().denominator
    if model.kind == "sums":
        return "finite", sum(model.gens), 1
    if model.kind == "explicit":
        if model.window_bound is None:
            return "finite", max(model.members, default=0), 1
        return "none", None, None
    if model.kind == "powers":
        return "lacunary", None, None
    if model.kind == "shift":
        kind, p0, period = descriptor(model.inner)
        return kind, None if p0 is None else max(0, p0 + model.t), period
    kinds, p0s, periods = zip(*(descriptor(part) for part in model.parts))
    if None not in p0s:
        return ("finite" if set(kinds) == {"finite"} else "periodic",
                max(p0s), math.lcm(*periods))
    kind = "lacunary" if set(kinds) <= {"finite", "lacunary"} else "none"
    return kind, None, None


def size_bound(model, n: int) -> int:
    """An upper bound on |S intersect [1, n]| from the spec's ints: exact
    for ap and Sturmian sets and for powers (floor(log_base n)), the list's
    length for explicit sets, the DP's min(n, sum of gens) bits for sums,
    and the sum over a union's parts."""
    if n < 1:
        return 0
    if model.kind == "explicit":
        return len(model.members)
    if model.kind == "ap":
        return max(0, (n - (model.b or model.a)) // model.a + 1)
    if model.kind == "sturmian":
        d = model.delta()
        return ((n + 1) * d.numerator - 1) // d.denominator
    if model.kind == "powers":
        count, v = 0, model.base
        while v <= n:
            count, v = count + 1, v * model.base
        return count
    if model.kind == "sums":
        return min(n, sum(model.gens))
    if model.kind == "shift":
        return size_bound(model.inner, n - model.t)
    return sum(size_bound(part, n) for part in model.parts)


def answer(query, model, n: int, lengths: tuple):
    """query(model, n, *lengths), read from the window at about
    2 p0 + 3P + l, where (p0, P) is the model's periodic or finite
    descriptor and l = max(lengths) (g, L, n or a Banach row's length).
    With low = 2 p0 + 2P + l, an n >= low + P runs query at
    n' = low + (n - low) mod P and at n' + P, and reads each integer field
    at n = n' + kP as f(n') + k (f(n' + P) - f(n')); every other field,
    the verdict included, must agree at both.  Any other model, or a
    smaller n, runs query at n.  Exact, as each field is affine in k:

    Translate.  For x > p0, x in S iff x + P in S; so too for the
    complement and for T_m = {x : [x, x+m-1] meets S}, whose runs are the
    stretches of thick (m = 1), piecewise-syndetic (m = g) and the gap
    table (m = n).  A run of these sets, cut at n or not, that starts past
    p0 + P + 1 has a translate a period back at least as long, so the
    first run at least l long, the first longest run and the first
    largest gap start by p0 + P + 1.  If the set read misses a point of
    every P-block past p0, such a run ends by p0 + 2P and is the same at
    every n >= n'.  Else it holds all of (p0, oo), and its last run starts
    by p0 + 1 and grows with n: at n' it is already l long, so the first
    fit is fixed, and longer than p0 + 2P, so longer than each earlier
    run, which lies in [1, p0]; the 2 p0 in low is for this, as the gap
    table's widest stretch is then the last one.

    Banach row.  A length-L window keeps its count moved right to its
    first member (or to n - L + 1), and moved back a period once it starts
    past p0 + P; so the most members is reached at a member at or below
    p0 + P <= n - L + 1, whose window lies in [1, n'].  Candidates come
    in ascending order with the clamped window last, and it never
    strictly beats the first maximizing member: (count, start) is fixed.

    Fields that depend on n.  Past p0 each P-block adds the same gaps and
    points of T_m, so the scale's N, gap_start_count and each
    gap_histogram count are affine in k, as is a pending tail [last, N+1]:
    last moves by P a period when S meets every P-block past p0, and stays
    put when S is finite.  Every other field is fixed from n' on.
    """
    _, p0, period = model.descriptor()
    if p0 is not None:
        low = 2 * p0 + 2 * period + int(max(lengths, default=0))
        if n >= low + period:
            base = low + (int(n) - low) % period
            return _extend(query(model, base, *lengths),
                           query(model, base + period, *lengths),
                           (int(n) - base) // period)
    return query(model, n, *lengths)


def _extend(a, b, k: int):
    """The answer at n' + kP, from a at n' and b at n' + P."""
    if type(a) is int and type(b) is int:
        return a + k * (b - a)
    if is_dataclass(a):
        return type(a)(*(_extend(getattr(a, f.name), getattr(b, f.name), k)
                         for f in fields(a)))
    if isinstance(a, dict) and a.keys() == b.keys():
        return {key: _extend(a[key], b[key], k) for key in a}
    if isinstance(a, (list, tuple)) and len(a) == len(b):
        return type(a)(_extend(x, y, k) for x, y in zip(a, b))
    if a != b:
        raise AssertionError(f"{a!r} one period before {b!r}: not periodic")
    return a


def _members_in(model, n: int, lo: int, hi: int) -> np.ndarray:
    """Members of S in [lo, hi].  With a periodic or finite descriptor
    (p0, P) the range is moved back whole periods (answer's translate) to
    start in (p0, p0 + P] when it starts past it, so the window read ends
    by p0 + P + hi - lo; any other model reads the window at max(n, hi)."""
    _, p0, period = descriptor(model)
    shift = 0 if p0 is None else max(0, (lo - p0 - 1) // period) * period
    arr = window(model, max(n, hi) if p0 is None else hi - shift)
    lo, hi = lo - shift, hi - shift
    return arr[arr.searchsorted(lo):arr.searchsorted(hi, "right")] + shift


def witness_consistent(model, cert: Certificate) -> bool:
    """Does the witness of cert hold against the members of S it names?"""
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
