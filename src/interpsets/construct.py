"""The interpolation constructions and adversarial witness generators.

Five constructors produce sequence prefixes from a function f defined on
a set S inside a window [1, N]:

  * extend_zero            - set 0 off S (zero-entropy route)
  * sturmian_interpolate   - overwrite the 1s of a mechanical word
  * mixing_extend          - plant universal-word prefixes in the gaps of S
  * totally_minimal_construct   - leveled block construction with
                                  residue-dense anchor families
  * strictly_ergodic_construct  - leveled block construction with
                                  forced anchor frequencies

The two leveled constructions share one block skeleton and differ only
in their level plan and in how they fill the free sub-blocks.  They return
a ConstructionTrace holding every intermediate partial filling as an array
of the narrowest signed dtype that holds -1..k-1 (-1 = unfilled) so the
structural claims can be re-verified from the outside; the totally
minimal one also records the parse of every word it builds, which
verify_trace checks in place of searching for one.  All choices are
first-fit and deterministic: identical inputs give bit-identical traces.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .certificate import Certificate
from .intsets import (
    WINDOW_LIMIT,
    IntegerSetModel,
    first_fit,
    free_run_chunks,
    gap_syndeticity_table,
    max_window_count,
    syndetic_certificate,
    window,
)
from .words import (
    ComplexityProfile,
    SymbolWord,
    complexity_profile,
    factor_counts,
    universal_symbols,
)

UNFILLED = -1        # a cell of a partial filling that holds no symbol yet
ANCHOR_CAP = 64      # the level-0 anchor families keep at most this many words


class DomainError(ValueError):
    """N < 1, k outside [1, 2^63], or f not defined on exactly S intersect [1, N]."""


class ConstructionRefused(Exception):
    """The window [1, N] cannot host the construction; `certificate` is the
    failing `mixing-precondition` or `level-window` verdict that says why."""

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


# -- problems ----------------------------------------------------------------


def _check_alphabet(k: int) -> None:
    if not 1 <= k <= 2 ** 63:      # base_word's signed cells hold -1..k-1
        raise DomainError(f"k must lie in [1, 2^63], got k = {k}")


@dataclass(frozen=True)
class InterpolationProblem:
    """A function f on S intersect [1, N] with values in {0..k-1}, held as
    the word f(s_1) f(s_2) ... over the members s_1 < s_2 < ... of
    window(model, n)."""

    model: IntegerSetModel
    n: int
    f: SymbolWord

    def __post_init__(self):
        _check_alphabet(self.k)
        if self.n < 1:
            raise DomainError(f"the window [1, N] needs N >= 1, got N = {self.n}")
        size = window(self.model, self.n).size
        if len(self.f) != size:
            raise DomainError(f"f has {len(self.f)} values for the {size} "
                              f"members of S in [1, {self.n}]")

    @property
    def k(self) -> int:
        return self.f.alphabet_size

    @classmethod
    def from_pairs(cls, model: IntegerSetModel, k: int, n: int,
                   pairs) -> InterpolationProblem:
        """The problem with f(s) = v for each (s, v) of `pairs`, which must
        name every member of S intersect [1, n] exactly once."""
        _check_alphabet(k)
        given = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        pos, vals = given[given[:, 0].argsort()].T
        twice = pos[1:][pos[1:] == pos[:-1]]
        if twice.size:
            raise DomainError(f"f gives position {twice[0]} more than once")
        elems = window(model, n)
        if not np.array_equal(pos, elems):
            extra = np.setdiff1d(pos, elems)[:5].tolist()
            missing = np.setdiff1d(elems, pos)[:5].tolist()
            raise DomainError(
                f"f domain mismatch: extra {extra}, missing {missing}")
        bad = np.flatnonzero((vals < 0) | (vals >= k))
        if bad.size:
            raise DomainError(f"f({pos[bad[0]]}) = {vals[bad[0]]} outside alphabet")
        return cls(model, n, SymbolWord(k, vals))

    def base_word(self, fill: int) -> np.ndarray:
        """Length-N word holding f on S intersect [1, N] and `fill` (0 or
        UNFILLED) everywhere else; index = position-1.  Its dtype is the
        narrowest signed one that holds -1..k-1: int8 for k <= 128, int16
        for k <= 2^15.  An N past intsets.WINDOW_LIMIT cells is refused."""
        if self.n > WINDOW_LIMIT:
            raise DomainError(f"a word of N = {self.n} cells exceeds the window "
                              f"limit of {WINDOW_LIMIT}")
        out = np.full(self.n, fill, dtype=np.min_scalar_type(-self.k))
        out[window(self.model, self.n) - 1] = self.f.symbols
        return out


def random_problem(model: IntegerSetModel, k: int, n: int,
                   seed: int) -> InterpolationProblem:
    """Uniform seeded f over S intersect [1, n]; ascending fill order."""
    _check_alphabet(k)
    rng = random.Random(seed)
    f = [rng.randrange(k) for _ in range(window(model, n).size)]
    return InterpolationProblem(model, n, SymbolWord(k, f))


# -- simple constructors ------------------------------------------------------


def extend_zero(problem: InterpolationProblem):
    """Extend f by zero off S.  Returns (word, complexity profile to
    n_max = min(64, N/2)); at N = 1 that depth is 0 and the profile empty."""
    w = SymbolWord(problem.k, problem.base_word(0))
    if problem.n < 2:
        return w, ComplexityProfile(problem.k, len(w), {}, {})
    return w, complexity_profile(w, min(64, problem.n // 2))


def sturmian_interpolate(problem: InterpolationProblem) -> SymbolWord:
    """Place f on S = {floor(m/delta)} and 0 elsewhere.

    The output differs from the mechanical word of delta only at its 1s,
    so its factor count at m is at most (m+1) k^ceil(m*delta).
    """
    if problem.model.kind != "sturmian":
        raise ValueError("sturmian construction needs a sturmian set_spec")
    if not 0 < problem.model.delta() <= Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2]")
    return SymbolWord(problem.k, problem.base_word(0))


@dataclass(frozen=True)
class MixingExtension:
    word: SymbolWord
    l_target: int
    l_cover: int
    placements: tuple            # (start position, prefix length) per record run
    universal: SymbolWord        # the longest universal prefix placed


def mixing_extend(problem: InterpolationProblem, l_target: int) -> MixingExtension:
    """Copy universal-word prefixes into the gaps of S, longest first-fit.

    The first S-free run of each record length receives the longest
    universal prefix it can hold, so every n <= l_target has a gap
    carrying the length-n prefix.  Refuses when the window has no run of
    length l_target, with a failing `mixing-precondition` certificate that
    nests the blocking syndetic one.
    """
    k, n = problem.k, problem.n
    if not 1 <= l_target <= n:
        raise ValueError(f"l_target must lie in [1, N = {n}], got {l_target}")
    # (start, length) of the empty run, then of each run longer than all
    # before it: their lengths rise and sum to at most N, so <= sqrt(2N) of them
    records = [(None, 0)]
    for starts, lengths in free_run_chunks(window(problem.model, n), 1, n):
        hit = lengths > np.maximum.accumulate(np.append(records[-1][1], lengths[:-1]))
        records += zip(starts[hit].tolist(), lengths[hit].tolist())
    max_run = records[-1][1]
    if max_run < l_target:
        # S meets the window, so g = max_run + 1 <= l_target <= N
        blocking = syndetic_certificate(problem.model, n, max_run + 1)
        raise ConstructionRefused(
            f"no S-free run of length {l_target} in [1, {n}]; "
            f"S is syndetic at scale with gap bound {max_run + 1}",
            Certificate.from_bool(
                "mixing-precondition", False, {"N": n, "l_target": l_target},
                {"required_run": l_target, "available_run": max_run,
                 "certificate": blocking.to_json()}))
    # no run takes more than max_run symbols of the order-l_target universal word
    prefix = itertools.islice(universal_symbols(k, l_target), max_run)
    y = SymbolWord(k, list(prefix))
    sym = problem.base_word(0)
    # a record run after the first one that holds all of y gets nothing
    placements = [(u, min(length, len(y))) for (_, before), (u, length)
                  in zip(records, records[1:]) if before < len(y)]
    for u, take in placements:
        sym[u - 1:u - 1 + take] = y.symbols[:take]
    w = SymbolWord(k, sym)
    del sym     # w holds its own copy: free the N cells before factor_counts
    full = [count == k ** m
            for m, count in enumerate(factor_counts(w, l_target), 1)]
    l_cover = (full + [False]).index(False)
    return MixingExtension(w, l_target, l_cover, tuple(placements), y)


# -- leveled constructions ----------------------------------------------------


@dataclass(frozen=True)
class LevelData:
    level: int
    m: int
    t_sample: tuple              # T_j, opening with the anchor word w_j
    t_prime_sample: tuple = ()   # T'_j (totally minimal), opening with v_j
    t_capped: bool = False
    gap_required: int | None = None
    spacing_bound: int | None = None
    density_bound: Fraction | None = None
    # totally minimal, from level 1: the Parse of each word of
    # t_sample + t_prime_sample, and `filled`, the level's one record of its
    # block parses: the Parse of each block it filled, by block index
    parses: tuple | None = None
    filled: dict = field(default_factory=dict)

    @property
    def w(self) -> SymbolWord:
        return self.t_sample[0]


@dataclass(frozen=True, eq=False)
class Parse:
    """How a level-j word splits into level-(j-1) pieces: int32 arrays of
    each piece's offset and of its index into the words of T_{j-1} then
    T'_{j-1} (-1 for a piece that is not an anchor), and, by
    piece number, the Parse of each non-anchor piece above level 0.  An
    anchor piece needs none: its anchor word carries its own."""

    starts: np.ndarray
    index: np.ndarray
    subs: dict


@dataclass
class ConstructionTrace:
    kind: str
    alphabet_size: int
    window: int
    set_spec: str
    levels: list
    fillings: list               # per level: base_word's dtype, -1 = unfilled, index = position-1
    result: SymbolWord
    closing_blocks: tuple        # the result's blocks closed with w_J, by index

    @property
    def final_m(self) -> int:
        return self.levels[-1].m


def _pad_enum(items: list, mult: int) -> list:
    return items + items[-1:] * (-len(items) % mult)


def _blocks_meeting(arr, size: int, count: int) -> list:
    """Indices b < count of the blocks [b*size+1, (b+1)*size] that meet arr."""
    blocks = (arr - 1) // size
    first = np.diff(blocks, prepend=-1) != 0   # arr ascends, so blocks do too
    return blocks[first & (blocks < count)].tolist()


# .. the shared skeleton ......................................................


def _leveled(kind: str, problem: InterpolationProblem, levels: int,
             next_level) -> ConstructionTrace:
    """The leveled block scheme both constructions share.

    Level 0 holds f on S and -1 elsewhere.  For each j,
    next_level(problem, j, cur, elems, levels) plans level j+1 from cur,
    the LevelData of level j, and elems, the window S intersect [1, N]; it
    returns the LevelData of level j+1 and a block filler, or raises a
    _level_window refusal.  A plan reads no filling, so every level is
    planned before any cell is built.  The filling of level j+1 starts as a
    copy of level j; each aligned block of length m_{j+1} that meets S
    splits into aligned sub-blocks of length m_j, every one fully free or
    full, and the filler writes the free ones.  A filler that returns the
    block's parse has it kept in `filled` of level j+1.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if problem.k < 2:
        raise ValueError("leveled constructions need alphabet size >= 2")
    k, n = problem.k, problem.n
    tp0, capped = (), k > ANCHOR_CAP
    if kind == "totally-minimal":      # T'_0: the pairs (a, b), a-major
        tp0 = tuple(SymbolWord(k, divmod(i, k))
                    for i in range(min(k * k, ANCHOR_CAP)))
        capped = k * k > ANCHOR_CAP
    t0 = tuple(SymbolWord(k, (s,)) for s in range(min(k, ANCHOR_CAP)))
    level_data = [LevelData(0, 1, t0, t_prime_sample=tp0, t_capped=capped)]
    elems = window(problem.model, n)
    fillers = []
    for j in range(levels):
        nxt, fill_block = next_level(problem, j, level_data[j], elems, levels)
        level_data.append(nxt)
        fillers.append(fill_block)
    fillings = [problem.base_word(UNFILLED)]
    for cur, nxt, fill_block in zip(level_data, level_data[1:], fillers):
        m, m_next = cur.m, nxt.m
        fill = fillings[-1].copy()
        for b in _blocks_meeting(elems, m_next, n // m_next):
            subs = fill[b * m_next:(b + 1) * m_next].reshape(-1, m)   # a view
            free = _free_rows(subs, "sub-block")
            parse = fill_block(b * m_next + 1, (b + 1) * m_next, subs, free)
            if parse is not None:
                nxt.filled[b] = parse
        fillings.append(fill)

    return _finish_trace(kind, problem, level_data, fillings)


def _level_window(n: int, levels: int, level: int, reason: str,
                  required_gap=None, blocking=None) -> ConstructionRefused:
    """The refusal of a level that [1, n] cannot host, at scale {N, levels};
    `blocking` is the gap-syndeticity certificate that decided it, if any."""
    reason = f"level {level}: {reason}"
    return ConstructionRefused(reason, Certificate.from_bool(
        "level-window", False, {"N": n, "levels": levels},
        {"level": level, "required_gap": required_gap, "reason": reason,
         "certificate": blocking and blocking.to_json()}))


def _check_anchor_length(level: int, m_next: int) -> None:
    """Refuse a level whose anchor words, m_next symbols each, pass
    WINDOW_LIMIT; the plan calls it after its own level-window checks and
    before it builds any anchor word."""
    if m_next > WINDOW_LIMIT:
        raise DomainError(f"level {level}: anchor words of m_{level} = {m_next} "
                          f"symbols exceed the window limit of {WINDOW_LIMIT}")


def _free_rows(rows, what: str) -> np.ndarray:
    """Which rows of a 2-D view of a filling are unfilled; none is part filled."""
    unfilled = rows == UNFILLED
    free = unfilled.all(axis=1)
    if (unfilled.any(axis=1) != free).any():
        raise AssertionError(f"partially filled {what}")
    return free


def _finish_trace(kind, problem, level_data, fillings) -> ConstructionTrace:
    """Close the unfilled top blocks with w_J; all N // m_J are the result.
    A cell filled at any level lies in a block meeting S, so in a top block
    meeting S, which the top filler fills whole.  A closing block is w_J,
    and a filled block's Parse, if any, is in `filled` of the top level."""
    top = level_data[-1]
    m_k = top.m
    count = problem.n // m_k
    cells = fillings[-1][:count * m_k]
    blocks = cells.reshape(count, m_k)
    empty = _free_rows(blocks, "top block")
    blocks[empty] = top.w.symbols
    return ConstructionTrace(kind, problem.k, problem.n,
                             problem.model.spec_string(), level_data, fillings,
                             SymbolWord(problem.k, cells),
                             tuple(np.flatnonzero(empty).tolist()))


# .. totally minimal ..........................................................


def totally_minimal_construct(problem: InterpolationProblem,
                              levels: int = 3) -> ConstructionTrace:
    """Leveled construction for non-piecewise-syndetic S.

    Per level: m_{j+1} is a multiple of m_j (j+1)! large enough that every
    window of that length contains an S-free run of length
    G_j = 4 m_j^2 (|T_j| + |T'_j|); the next anchor word repeats the
    current one and appends the coverage block U_j (all T_j elements,
    then all T'_j elements, then the primed anchor v_j) m_j times, which
    shifts through every residue class mod j!.
    """
    return _leveled("totally-minimal", problem, levels, _minimal_level)


def _minimal_level(problem, j, cur, elems, levels):
    """Level j+1 of the totally minimal construction.  Its filler puts the
    repeated coverage block, aligned to m_j, into the first S-free run of
    length G_j of the block and w_j into every other free sub-block, and
    returns the block's Parse."""
    k, n, model, m = problem.k, problem.n, problem.model, cur.m
    rho = math.factorial(j)
    # the words of T_j + T'_j with their anchor indices; w_j = T_j[0] and
    # the primed anchor v_j = T'_j[0]
    n_t = len(cur.t_sample)
    pieces = [(w, i) for i, w in enumerate(cur.t_sample + cur.t_prime_sample)]
    t_enum = _pad_enum(pieces[:n_t], rho)
    tp_enum = _pad_enum(pieces[n_t:], rho)
    gap_needed = 4 * m * m * (len(t_enum) + len(tp_enum))
    cert = gap_syndeticity_table(model, n, gap_needed)
    if not cert.holds:
        raise _level_window(n, levels, j + 1, f"no S-free run of length "
                            f"{gap_needed} in [1, {n}]", gap_needed, cert)
    spacing = cert.witness["spacing_bound"]
    step = m * math.factorial(j + 1)
    m_next = ((spacing + step - 1) // step) * step
    if m_next > n:
        raise _level_window(n, levels, j + 1, f"m_{j + 1} = {m_next} exceeds "
                            f"the window {n}", gap_needed, cert)
    _check_anchor_length(j + 1, m_next)
    u_pieces = t_enum + tp_enum + [pieces[n_t]]
    u_len = sum(len(w) for w, _ in u_pieces)
    if u_len % rho != 1 % rho:
        raise AssertionError("U block length residue broken")
    reps = m_next - m * u_len
    if reps <= 0 or reps % m:
        raise AssertionError("anchor word does not fit the level length")
    r = reps // m

    def lay_out(layout):
        """The word laid out of (word, anchor index) pieces, with its Parse."""
        lens = np.array([len(w) for w, _ in layout], np.int32)
        return (SymbolWord(k, np.concatenate([w.symbols for w, _ in layout])),
                Parse(np.cumsum(lens, dtype=np.int32) - lens,
                      np.array([i for _, i in layout], np.int32), {}))

    covering, cover_parse = lay_out(u_pieces * m)      # U_j^{m_j}
    # T_{j+1} holds w_{j+1} = w_j^r U_j^{m_j} and one variant, built on the
    # first anchor of T_j after w_j; T'_{j+1} holds their primed forms
    # v_j x^{r-1} U_j^{m_j}
    built = ([lay_out([x] * r + u_pieces * m) for x in pieces[:2]]
             + [lay_out([pieces[n_t]] + [x] * (r - 1) + u_pieces * m)
                for x in pieces[:2]])
    words, parses = zip(*built)
    nxt = LevelData(j + 1, m_next, words[:2], t_prime_sample=words[2:],
                    gap_required=gap_needed, spacing_bound=spacing,
                    parses=parses)
    cover = covering.symbols.reshape(-1, m)
    w_sub = cur.w.symbols

    def fill_block(lo, hi, subs, free):
        # the spacing bound puts a free run of G_j in every window of m_{j+1}
        inside = elems[elems.searchsorted(lo):elems.searchsorted(hi, "right")]
        ru, run = first_fit(free_run_chunks(inside, lo, hi), gap_needed)
        if run < gap_needed:
            raise AssertionError(
                f"block [{lo}, {hi}] has no free run of {gap_needed}")
        a_idx = ((ru - 1 + m - 1) // m) * m
        if a_idx + len(covering) >= ru + run:
            raise AssertionError("aligned coverage block does not fit the run")
        first = (a_idx - (lo - 1)) // m
        span = slice(first, first + len(cover))
        if not free[span].all():
            raise AssertionError("coverage block would overwrite filled cells")
        kept = np.flatnonzero(~free)
        subs[span] = cover
        free[span] = False
        subs[free] = w_sub
        # a sub-block filled below is a non-anchor piece with its own Parse
        starts = np.concatenate([kept * m, first * m + cover_parse.starts,
                                 np.flatnonzero(free) * m]).astype(np.int32)
        index = np.concatenate([np.full(kept.size, -1, np.int32),
                                cover_parse.index,
                                np.full(free.sum(), pieces[0][1], np.int32)])
        order = starts.argsort()
        starts, index = starts[order], index[order]
        if not j:      # below level 1 a piece is a cell and needs no Parse
            return Parse(starts, index, {})
        at = starts.searchsorted(kept * m).tolist()
        return Parse(starts, index, {p: cur.filled[(lo - 1) // m + row]
                                     for p, row in zip(at, kept.tolist())})

    return nxt, fill_block


# .. parse witnesses (totally minimal levels) .................................


def _anchors(lvl: LevelData):
    """The words of T_i then T'_i, each with its recorded Parse (None at
    level 0), and |T_i|.  They are distinct, so a Parse indexes them by
    position: T_0 holds distinct symbols and T'_0 distinct pairs; the two
    words of T_{j+1} open with the two distinct first anchors of T_j; the
    two of T'_{j+1} differ in their second piece, as r >= 2, for
    m_{j+1} >= G_j = 4 m_j^2 E >= m_j |U_j| + 2 m_j, since
    |U_j| <= (E + 1)(m_j + 1) and E = |T_j enum| + |T'_j enum| >= 2."""
    words = lvl.t_sample + lvl.t_prime_sample
    return list(zip(words, lvl.parses or [None] * len(words))), len(lvl.t_sample)


def _parse_holds(sym: np.ndarray, parse: Parse, levels, proven,
                 level: int) -> bool:
    """Does the Parse prove that sym is a level-`level` member?  It checks
    the family's definition on the split given: the pieces tile sym with
    lengths m_{level-1} or m_{level-1} + 1; a piece with index a >= 0
    equals anchor a, which proven[level-1][a] says its own Parse
    proves a member; every other piece above level 0 is proved by its own
    Parse; and the (anchor, offset mod (level-1)!) pairs of the pieces
    cover all of them.  A wrong parse can only make a member fail."""
    starts, index = parse.starts, parse.index
    m = levels[level - 1].m
    if not starts.size or starts[0] != 0:
        return False
    lens = np.diff(starts, append=len(sym))
    if not ((lens == m) | (lens == m + 1)).all():
        return False
    anchors, n_t = _anchors(levels[level - 1])
    ok = proven[level - 1]
    is_anchor = index >= 0
    if (index >= len(anchors)).any() or not ok[index[is_anchor]].all():
        return False
    for lo, hi, length in ((0, n_t, m), (n_t, len(anchors), m + 1)):
        sel = np.flatnonzero((index >= lo) & (index < hi))
        if not sel.size:
            continue
        if (lens[sel] != length).any():
            return False
        table = np.zeros((hi - lo, length), dtype=sym.dtype)
        for row, (a, _) in enumerate(anchors[lo:hi]):
            if len(a) == length:     # any other anchor is unproven, unused
                table[row] = a.symbols
        got = sliding_window_view(sym, length)[starts[sel]]
        if (got != table[index[sel] - lo]).any():
            return False
    if level > 1:
        for p in np.flatnonzero(~is_anchor).tolist():
            sub = parse.subs.get(p)
            if sub is None or not _parse_holds(
                    sym[starts[p]:starts[p] + lens[p]], sub, levels, proven,
                    level - 1):
                return False
    rho = math.factorial(level - 1)
    seen = np.zeros(len(anchors) * rho, dtype=bool)
    seen[index[is_anchor] * rho + starts[is_anchor] % rho] = True
    return bool(seen.all())


def _proven(levels, top: int) -> list:
    """Per level i < top, which anchors of T_i + T'_i are members: at level
    0 those of length 1 (T) or 2 (T'), above it those their Parse proves."""
    proven = []
    for i in range(top):
        anchors, n_t = _anchors(levels[i])
        m = levels[i].m
        proven.append(np.array([
            len(a) == m + (pos >= n_t)
            and (i == 0 or _parse_holds(a.symbols, p, levels, proven, i))
            for pos, (a, p) in enumerate(anchors)], dtype=bool))
    return proven


def parse_member(w: SymbolWord, level: int, parse: Parse,
                 trace: ConstructionTrace) -> bool:
    """Does `parse` prove that w belongs to the level-`level` family X
    (length m) or X' (m+1)?  The check is linear in the pieces of w and of
    the anchor words below it, whose recorded parses it checks first."""
    if trace.kind != "totally-minimal":
        raise ValueError("parses are recorded for totally-minimal traces")
    if not 1 <= level < len(trace.levels):
        raise ValueError(f"no parse at level {level} in this trace")
    m = trace.levels[level].m
    if len(w) not in (m, m + 1):
        raise ValueError(f"|w| = {len(w)} but level {level} needs {m} or {m + 1}")
    return _parse_holds(w.symbols, parse, trace.levels,
                        _proven(trace.levels, level), level)


# .. strictly ergodic .........................................................


def strictly_ergodic_construct(problem: InterpolationProblem,
                               levels: int = 3) -> ConstructionTrace:
    """Leveled construction for zero-density S.

    Per level: m_{j+1} is a multiple of (2j+2) m_j exceeding
    (2j+2) m_j |T_j| such that every window of length m_{j+1} holds fewer
    than m_{j+1} / ((2j+2) m_j) points of S.  Blocks meeting S keep their
    inherited content; a forced majority of the free sub-blocks becomes
    w_j and the remainder cycles through the anchor sample T_j.
    """
    return _leveled("strictly-ergodic", problem, levels, _ergodic_level)


def _ergodic_level(problem, j, cur, elems, levels):
    """Level j+1 of the strictly ergodic construction.  Its filler gives
    the first `overwrite` free sub-blocks of a block w_j, the next |T_j|
    the anchors of T_j in order, and the rest w_j."""
    k, n, model, m = problem.k, problem.n, problem.model, cur.m
    t_list = list(cur.t_sample)
    step = (2 * j + 2) * m
    t_mult = len(t_list) + 1
    while True:
        cand = step * t_mult
        if cand > n:
            raise _level_window(n, levels, j + 1, f"window {n} cannot satisfy the "
                                f"density bound 1/{step} at level length {cand}")
        # q disjoint windows of length cand tile [1, q cand] and one holds
        # at least the average, so an average of t_mult fails unscanned
        q = n // cand
        if -(-int(elems.searchsorted(q * cand, "right")) // q) < t_mult:
            count, _ = max_window_count(model, n, cand)
            if count * step < cand:
                m_next = cand
                density = Fraction(count, cand)
                break
        t_mult += 1
    _check_anchor_length(j + 1, m_next)
    big_r = m_next // m
    fill_reps = big_r - 1 - len(t_list)
    w_sub = cur.w.symbols
    anchors = np.stack([t.symbols for t in t_list])      # one row per anchor
    w_next = SymbolWord(k, np.concatenate([w_sub, anchors.ravel(),
                                           np.tile(w_sub, fill_reps)]))
    var = np.concatenate([np.tile(w_sub, big_r - len(t_list)), anchors.ravel()])
    nxt = LevelData(j + 1, m_next, (w_next, SymbolWord(k, var)),
                    density_bound=density)
    overwrite = big_r - big_r // (j + 1)
    need = overwrite + len(t_list)

    def fill_block(lo, hi, subs, free):
        # < t_mult points of S in the block leave > R - t_mult >= need free
        stars = np.flatnonzero(free)
        if len(stars) < need:
            raise AssertionError(f"block [{lo}, {hi}] too crowded: {len(stars)} "
                                 f"free sub-blocks, need {need}")
        subs[stars] = w_sub
        subs[stars[overwrite:need]] = anchors

    return nxt, fill_block


def _frequency_member(sym: np.ndarray, level: int, levels) -> bool:
    """Is every aligned block of length m_level in sym a member of the
    strictly ergodic frequency family?  sym must hold a positive multiple
    of m_level symbols, and for every i <= level each aligned block of
    length m_i must hold every anchor of T_{i-1} and at most
    m_i / (i m_{i-1}) sub-blocks other than w_{i-1}.  One call decides an
    anchor word w_j at level j, and the whole result at the top level.  A
    level length that does not divide the next, or that the level's
    anchors do not have, makes no member."""
    if not sym.size or sym.size % levels[level].m:
        return False
    for i in range(1, level + 1):
        m, prev = levels[i].m, levels[i - 1]
        if (m % prev.m or sym.size % m
                or any(len(t) != prev.m for t in prev.t_sample)):
            return False
        blocks = sym.reshape(-1, m // prev.m, prev.m)
        non_anchor = (blocks != prev.w.symbols).any(axis=2).sum(axis=1)
        if (non_anchor * i > m // prev.m).any():
            return False
        for t in prev.t_sample:
            if not (blocks == t.symbols).all(axis=2).any(axis=1).all():
                return False
    return True


# -- witness generators -------------------------------------------------------


@dataclass(frozen=True)
class SyndeticPartition:
    g: int
    h: int
    window: int
    pieces: tuple                # tuple of tuples of positions
    coloring: SymbolWord         # piece index per window member, 0 off all pieces
    covering_ok: bool
    covering_checked: int
    failures: tuple


def syndetic_partition_witness(model: IntegerSetModel, g: int, h: int,
                               n: int) -> SyndeticPartition:
    """Split S into h residue-window pieces S_i and check that each piece,
    smeared g-1 steps left, covers h^2 N + ih inside the window; each
    target it misses is a failure.  A syndetic S at gap g < h misses none.

    The coloring f = i on S_i is the witness function used against
    totally transitive interpolation.
    """
    if g < 1 or h <= g or n < g:
        raise ValueError(f"need 1 <= g < h and N >= g, got g={g}, h={h}, N={n}")
    hh = h * h
    elems = window(model, n)
    colors = np.where(elems < hh, 0, elems % hh // h)
    pieces, failures, checked = [], [], 0
    for i in range(h):
        piece = elems[(elems >= hh) & (colors == i)]
        pieces.append(tuple(piece.tolist()))
        targets = np.arange(hh + i * h, n - hh + 1, hh)
        checked += targets.size
        # the first member of S_i at or after a target (n + g when none is)
        # must lie within g of it
        first = np.append(piece, n + g)[piece.searchsorted(targets)]
        failures.extend((i, t) for t in targets[first >= targets + g].tolist())
    return SyndeticPartition(g, h, n, tuple(pieces), SymbolWord(h, colors),
                             not failures, checked, tuple(failures))


@dataclass(frozen=True)
class DensityColoring:
    k: int
    intervals: tuple
    coloring: SymbolWord         # color per member of the window


def density_coloring_witness(model: IntegerSetModel, intervals, k: int,
                             n: int) -> DensityColoring:
    """Color S by interval index mod k over a disjoint ascending family of
    half-open intervals [lo, hi); 0 off all intervals."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ivs = [(int(lo), int(hi)) for lo, hi in intervals]
    prev_hi = 0
    for lo, hi in ivs:
        if lo < 1 or hi <= lo or lo < prev_hi:
            raise ValueError("intervals must be disjoint, ascending, nonempty")
        prev_hi = hi
    arr = window(model, n)
    colors = np.zeros(arr.size, dtype=np.int64)
    for idx, (lo, hi) in enumerate(ivs, start=1):
        colors[arr.searchsorted(lo):arr.searchsorted(hi)] = idx % k
    return DensityColoring(k, tuple(ivs), SymbolWord(k, colors))


# -- verification -------------------------------------------------------------


def restriction_identity(problem: InterpolationProblem, cells, covered: int,
                         scale: dict) -> Certificate:
    """Does x|_S = f?  The array cells holds x (index = position-1, -1 =
    unfilled); every s of S inside the window must hold f(s), or be
    unfilled and lie beyond `covered`."""
    pos = window(problem.model, problem.n)
    got = cells[pos - 1].astype(np.int64)
    filled = got != UNFILLED
    wrong = filled & (got != problem.f.symbols)
    bad = int((wrong | (~filled & (pos <= covered))).sum())
    return Certificate.from_bool("restriction-identity", bad == 0, scale,
                                 {"mismatches": bad})


def verify_trace(trace: ConstructionTrace, problem: InterpolationProblem) -> list:
    """Structural checks shared by both leveled constructions, plus the
    membership checks specific to each kind: one Certificate per check, at
    the scale of the window and the number of levels."""
    scale = {"N": trace.window, "levels": len(trace.levels) - 1}

    def check(name, ok, detail):
        return Certificate.from_bool(name, ok, scale, {"detail": detail})

    lv = trace.levels
    ok = all(np.array_equal(lv[j + 1].w.symbols[:lv[j].m], lv[j].w.symbols)
             for j in range(len(lv) - 1))
    out = [check("prefix-chain", ok, "w_j is a prefix of w_{j+1}")]
    ok = all(lv[j + 1].m % lv[j].m == 0 for j in range(len(lv) - 1))
    out.append(check("m-divisibility", ok, "m_j divides m_{j+1}"))
    if trace.kind == "totally-minimal":
        ok = all(lvl.m % math.factorial(lvl.level) == 0 for lvl in lv)
        out.append(check("factorial-divisibility", ok, "j! divides m_j"))
    fl = trace.fillings
    ok = not any(((a != UNFILLED) & (a != b)).any() for a, b in zip(fl, fl[1:]))
    out.append(check("monotone-filling", ok, "filled positions never change"))
    final = fl[-1]
    res = trace.result
    # result symbols lie in the alphabet, so equality also rules out -1
    ok = (len(res) % trace.final_m == 0 and len(res) >= trace.final_m
          and np.array_equal(final[:len(res)], res.symbols))
    out.append(check("result-complete", ok,
                     f"result covers [1, {len(res)}] with no unfilled cell"))
    out.append(restriction_identity(problem, final, len(res), scale))
    if trace.kind == "totally-minimal":
        proven = _proven(lv, len(lv))     # w_j is anchor 0 of level j
        ok = all(proven[j][0] for j in range(1, len(lv)))
        out.append(check("anchor-membership", ok,
                         "w_j's parse proves it a level member at every level"))
        # a closing block is w_J; any other has the Parse its filler recorded
        top, m, closing = lv[-1], trace.final_m, set(trace.closing_blocks)
        ok = len(res) >= m and not len(res) % m and all(
            (np.array_equal(block, top.w.symbols) and proven[-1][0])
            if b in closing else (b in top.filled and _parse_holds(
                block, top.filled[b], lv, proven, top.level))
            for b, block in enumerate(res.symbols.reshape(-1, m)))
        out.append(check("block-membership", ok,
                         "every aligned result block is a level member"))
    if trace.kind == "strictly-ergodic":
        ok = all(_frequency_member(lv[j].w.symbols, j, lv)
                 for j in range(1, len(lv)))
        out.append(check("anchor-membership", ok,
                         "w_j satisfies the frequency conditions"))
        top = len(lv) - 1
        ok = _frequency_member(res.symbols, top, lv)
        out.append(check("block-frequencies", ok,
                         f"{len(res) // trace.final_m} blocks: non-anchor "
                         f"fraction <= 1/{top}, anchor sample covered"))
    return out
