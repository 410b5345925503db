"""The witness checks of replay: each set certificate's witness read
against the members of S it names.

`intsets.replay_certificate` recomputes a certificate and then calls
`witness_consistent`; no CLI command replays, so only replay loads this
module.  A witness range is read through the set's descriptor, moved back
into the first periods, so replay holds about one period plus the range
whatever the scale.
"""

from __future__ import annotations

import numpy as np

from .certificate import FAILS, HOLDS, Certificate
from .intsets import window


def _members_in(model, n: int, lo: int, hi: int) -> np.ndarray:
    """Members of S in [lo, hi].  With a periodic or finite descriptor
    (p0, P) the range is moved back by whole periods to start in
    (p0, p0 + P] when it starts past it, so the window read ends by
    p0 + P + hi - lo; any other model reads the window at max(n, hi)."""
    _, p0, period = model.descriptor()
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
