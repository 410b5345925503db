"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the
per-criterion lines and timings).  Every tolerance is fixed here; no
value is deferred to later calibration.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from interpsets import construct as K
from interpsets import counting as C
from interpsets import intsets as S
from interpsets import recurrence as R
from interpsets import words as W
from interpsets.cli import main as cli_main

from oracles import (
    at,
    density_coloring_witness,
    is_member_level,
    mechanical_word,
    sandwich_bounds,
    syndetic_partition_witness,
)

POW2 = S.IntegerSetModel.lacunary_powers(2)
CF_SQRT2M1 = [0] + [2] * 9          # 985/2378, denominator >= 1000
DELTAS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


def f_dict(problem):
    """f as {s: f(s)} over S intersect [1, N]."""
    return dict(zip(S.window(problem.model, problem.n).tolist(),
                    problem.f.symbols.tolist()))


def report(num, label, t0, detail=""):
    took = time.monotonic() - t0
    print(f"ACCEPTANCE {num:>2} PASS ({took:6.2f}s): {label}  {detail}")


# -- 1: counting oracle equivalence ---------------------------------------------


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    triples = 0
    for k in (2, 3, 4):
        for m in range(1, 17):
            for d in DELTAS:
                assert C.brute_force_count(m, d, k) == \
                    C.count_low_weight(m, d, k).count, (m, d, k)
                triples += 1
    report(1, "count_low_weight == brute_force_count", t0,
           f"{triples} triples, exact")


# -- 2: Fekete / Stirling convergence -------------------------------------------


def test_criterion_02_growth_convergence():
    t0 = time.monotonic()
    ms = [25, 50, 100, 200, 400]
    for d, k in ((Fraction(1, 2), 2), (Fraction(1, 4), 3), (Fraction(1, 3), 4)):
        prof = C.growth_rate_profile(d, k, ms)
        gap = abs(prof.rows[-1].log_rate - prof.rows[-1].analytic_limit)
        assert gap < 0.03, (d, k, gap)
        inf = prof.running_inf
        assert all(a >= b for a, b in zip(inf, inf[1:])), (d, k, inf)
    report(2, "log-rate at m=400 within 0.03 of H(d) + d log(k-1)", t0)


# -- 3: sandwich bounds ----------------------------------------------------------


def test_criterion_03_sandwich_bounds():
    t0 = time.monotonic()
    checked = 0
    grid = [(m, d, k) for k in (2, 3, 4) for m in range(1, 17) for d in DELTAS]
    grid += [(m, d, k) for m in (25, 50, 100, 200, 400)
             for d, k in ((Fraction(1, 2), 2), (Fraction(1, 4), 3),
                          (Fraction(1, 3), 4))]
    for m, d, k in grid:
        lo, hi = sandwich_bounds(m, d, k)
        count = C.count_low_weight(m, d, k).count
        assert lo <= count <= hi, (m, d, k)
        checked += 1
    report(3, "lower <= count <= upper on every computed triple", t0,
           f"{checked} triples")


# -- 4: Sturmian properties ------------------------------------------------------


def test_criterion_04_sturmian():
    t0 = time.monotonic()
    delta = S.continued_fraction_value(CF_SQRT2M1)
    assert delta.denominator >= 1000
    w = mechanical_word(delta, 10 ** 4)
    q = delta.denominator               # the word has period q = 2378
    profile = W.complexity_profile(w, len(w) // 2)
    assert all(profile.p[n] == min(n + 1, q) for n in range(1, len(w) // 2 + 1))
    ones = [0]
    for smb in w.symbols.tolist():
        ones.append(ones[-1] + smb)
    for m in range(1, 101):
        worst = max(ones[i + m] - ones[i] for i in range(len(w) - m))
        assert worst <= math.ceil(m * delta), m
    model = S.IntegerSetModel.sturmian_floor(CF_SQRT2M1)
    for k in (2, 3):
        problem = K.random_problem(model, k, 10 ** 4, seed=100 + k)
        x = K.sturmian_interpolate(problem)
        assert all(at(x, s) == v for s, v in f_dict(problem).items())
        support = set(f_dict(problem))
        assert all(at(x, p) == 0 for p in range(1, 10 ** 4 + 1)
                   if p not in support)
        for m, count in enumerate(W.factor_counts(x, 20), 1):
            cap = (m + 1) * k ** math.ceil(m * delta)
            assert count <= cap, (k, m)
    report(4, "p(n) = min(n+1, q) to N/2, weight <= ceil(m d), "
           "interpolation bounds", t0, f"delta = {delta}")


# -- 5: mixing extension ---------------------------------------------------------


def test_criterion_05_mixing():
    t0 = time.monotonic()
    n = 2 ** 12
    for seed in range(20):
        problem = K.random_problem(POW2, 2, n, seed=seed)
        ext = K.mixing_extend(problem, 4)
        assert all(at(ext.word, s) == v
                   for s, v in f_dict(problem).items()), seed
        assert W.factor_counts(ext.word, 4)[-1] == 16, seed
    evens = S.IntegerSetModel.arithmetic_progression(2, 0)
    with pytest.raises(K.ConstructionRefused) as err:
        K.mixing_extend(K.random_problem(evens, 2, 100, seed=0), 4)
    cert = S.Certificate.from_json(err.value.certificate.witness["certificate"])
    assert cert.predicate == "syndetic" and cert.holds and cert.scale["g"] == 2
    assert S.replay_certificate(evens, cert)
    report(5, "20 seeded mixing runs cover all 2^4 words; 2N refused", t0)


# -- 6: totally minimal construction ---------------------------------------------


@pytest.fixture(scope="module")
def minimal_trace():
    problem = K.random_problem(POW2, 2, 2 ** 18, seed=5)
    return problem, K.totally_minimal_construct(problem, levels=2)


def test_criterion_06_totally_minimal(minimal_trace):
    t0 = time.monotonic()
    problem, trace = minimal_trace
    checks = {c.predicate: c.holds for c in K.verify_trace(trace, problem)}
    for name in ("prefix-chain", "m-divisibility", "factorial-divisibility",
                 "monotone-filling", "result-complete", "restriction-identity",
                 "anchor-membership", "block-membership"):
        assert checks[name], name
    assert all(at(trace.result, s) == v for s, v in f_dict(problem).items()
               if s <= len(trace.result))
    # 10 seeded mutation faults per level, all rejected
    rng = random.Random(20260808)
    m1, m2 = trace.levels[1].m, trace.levels[2].m
    for _ in range(10):
        ell = rng.randrange(2, m1 - 1)
        a, b = rng.choice([(0, 1), (1, 0)])
        mut = W.SymbolWord(2, (a,) * ell + (b,) * (m1 - ell))
        assert not is_member_level(mut, 1, trace)
    w2 = trace.levels[2].w
    span = 2 * m1 + 2
    for _ in range(10):
        pos = rng.randrange(0, m2 - span)
        const = rng.randrange(2)
        sym = list(w2.symbols)
        sym[pos:pos + span] = [const] * span
        mut = W.SymbolWord(2, tuple(sym))
        assert not is_member_level(mut, 2, trace)
    report(6, "trace coherent, x_u|_S = f, membership + 20 faults rejected",
           t0, f"m_1 = {m1}, m_2 = {m2}")


# -- 7: strictly ergodic construction --------------------------------------------


def test_criterion_07_strictly_ergodic():
    t0 = time.monotonic()
    cubes = S.IntegerSetModel.explicit_window([i ** 3 for i in range(1, 47)])
    problem = K.random_problem(cubes, 2, 10 ** 5, seed=9)
    trace = K.strictly_ergodic_construct(problem, levels=2)
    checks = {c.predicate: c.holds for c in K.verify_trace(trace, problem)}
    assert all(checks.values()), checks
    assert all(at(trace.result, s) == v for s, v in f_dict(problem).items()
               if s <= len(trace.result))
    # the level-2 blocks of the result, each as R rows of length m_1
    w1 = trace.levels[1].w.symbols
    big_r = trace.levels[2].m // len(w1)
    blocks = trace.result.symbols.reshape(-1, big_r, len(w1))
    assert len(blocks) and all((blocks == t.symbols).all(axis=2).any(axis=1).all()
                               for t in trace.levels[1].t_sample)
    assert (blocks != w1).any(axis=2).sum(axis=1).max() * 2 <= big_r
    prefix = W.SymbolWord(2, trace.result.symbols[:10 ** 4])
    profile = W.complexity_profile(prefix, 64)
    assert profile.h_est[64] < 0.2
    report(7, "restriction, block frequencies, h_est(64) < 0.2", t0,
           f"h_est(64) = {profile.h_est[64]:.4f}")


# -- 8: witness generators -------------------------------------------------------


def test_criterion_08_witnesses():
    t0 = time.monotonic()
    full = S.IntegerSetModel.arithmetic_progression(1, 0)
    part = syndetic_partition_witness(full, 1, 2, 10 ** 4)
    assert part.covering_ok and part.covering_checked > 0
    evens = S.IntegerSetModel.arithmetic_progression(2, 0)
    part2 = syndetic_partition_witness(evens, 2, 3, 10 ** 4)
    assert part2.covering_ok and part2.covering_checked > 0
    intervals = [(n * 100, n * 100 + 50) for n in range(1, 10)]
    thirds = S.IntegerSetModel.arithmetic_progression(3, 0)
    col = density_coloring_witness(thirds, intervals, 3, 1000)
    coloring = dict(zip(S.window(thirds, 1000).tolist(),
                        col.coloring.symbols.tolist()))
    for idx, (lo, hi) in enumerate(intervals, start=1):
        got = {coloring[s] for s in coloring if lo <= s < hi}
        assert got <= {idx % 3}
    report(8, "covering containment exhaustive; coloring piecewise constant",
           t0, f"{part.covering_checked + part2.covering_checked} targets")


# -- 9: the set F ----------------------------------------------------------------


def test_criterion_09_sum_free_f():
    t0 = time.monotonic()
    f6 = R.build_F(10 ** 6)
    assert R.verify_sum_free(f6.elements, 10 ** 6).ok
    f7 = R.build_F(10 ** 7)          # the "behind a flag" deeper scan
    assert R.verify_sum_free(f7.elements, 10 ** 7).ok
    fault = R.verify_sum_free(list(f6.elements) + [113], 10 ** 6)
    assert not fault.ok and fault.counterexample == (11, 102, 113)
    for n in (1, 2, 3):
        assert R.verify_shift_ip(f7, n, 3).ok, n
    assert R.digit_enumerate(10 ** 7) == list(f7.elements)
    report(9, "sum-free to 1e7, faults detected, shifted IP, dual oracles",
           t0, f"|F| = {len(f7.elements)}")


# -- 10: zero-extension entropy control ------------------------------------------


def test_criterion_10_entropy_control():
    t0 = time.monotonic()
    squares = S.IntegerSetModel.explicit_window([i * i for i in range(1, 101)])
    n = 10 ** 4
    problem = K.random_problem(squares, 3, n, seed=7)
    w, _profile = K.extend_zero(problem)
    counts = W.factor_counts(w, 64)
    for m in (16, 32, 64):
        eta = Fraction(S.max_window_count(squares, n, m)[0], m)
        cap = C.count_low_weight(m, eta, 3).count
        assert counts[m - 1] <= cap, m
    report(10, "p(m) <= |S(m, eta, 3)| at certified density eta", t0)


# -- 11: reproducibility ---------------------------------------------------------


def _run_all_commands(base):
    base.mkdir(parents=True, exist_ok=True)
    prob_min = base / "prob_min.json"
    prob_min.write_text(json.dumps({
        "set_spec": "kind=powers base=2", "k": 2, "N": 4096,
        "f": {"seed": 5}}))
    prob_erg = base / "prob_erg.json"
    prob_erg.write_text(json.dumps({
        "set_spec": "kind=explicit elements=" +
        ",".join(str(i ** 3) for i in range(1, 13)),
        "k": 2, "N": 2000, "f": {"seed": 3}}))
    prob_st = base / "prob_st.json"
    prob_st.write_text(json.dumps({
        "set_spec": "kind=sturmian cf=0,2,2,2", "k": 3, "N": 2000,
        "f": {"seed": 4}}))
    jobs = [
        ("analyze", ["analyze", "--set", "kind=powers base=2", "--n", "1048576",
                     "--banach", "8", "--out", str(base / "analyze.json")]),
        ("count", ["count", "--delta", "1/2", "--k", "2",
                   "--m-range", "25:100:25", "--csv", str(base / "count.csv")]),
        ("zero", ["construct", "--kind", "zero", "--problem", str(prob_min),
                  "--out-dir", str(base / "zero")]),
        ("sturmian", ["construct", "--kind", "sturmian", "--problem",
                      str(prob_st), "--out-dir", str(base / "st")]),
        ("mixing", ["construct", "--kind", "mixing", "--problem", str(prob_min),
                    "--out-dir", str(base / "mix"), "--l-target", "4"]),
        ("minimal", ["construct", "--kind", "minimal", "--problem",
                     str(prob_min), "--out-dir", str(base / "min"),
                     "--levels", "1"]),
        ("ergodic", ["construct", "--kind", "ergodic", "--problem",
                     str(prob_erg), "--out-dir", str(base / "erg"),
                     "--levels", "2"]),
        ("verify-f", ["verify-f", "--n", "100000", "--depth", "3",
                      "--shifts", "1", "2", "--out", str(base / "f.json"),
                      "--out-set", str(base / "f.txt")]),
    ]
    for name, argv in jobs:
        assert cli_main(argv) == 0, name
    snapshot = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and not path.name.startswith("prob_"):
            snapshot[str(path.relative_to(base))] = path.read_bytes()
    return snapshot


def test_criterion_11_reproducibility(tmp_path, capsys):
    t0 = time.monotonic()
    first = _run_all_commands(tmp_path / "run1")
    second = _run_all_commands(tmp_path / "run2")
    capsys.readouterr()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    report(11, "byte-identical outputs across reruns", t0,
           f"{len(first)} files")


# SHA-256 of every file the jobs above write.  The construct digests were
# recorded before the leveled constructions shared one skeleton, the
# analyze, count and verify-f digests before every verdict became a
# Certificate.  Criterion 11 only compares a rerun with itself; these
# digests catch a consistent change.
OUTPUT_DIGESTS = {
    "analyze.json": "7bc0c5da6d464e042830feaed5d12646a43fee47e28fb0dcf5b164081c34fb91",
    "count.csv": "b7bd5987b7b85eb549664d895b0934e80245446c488ea8c49020d42fd065bd65",
    "erg/trace.json": "52c3b1ab20fd3468a516ac2af2dc910dbe408c4fe7d0dd150d46d4fa2e72dc83",
    "erg/w0.word": "01757dbd139493162bd0926d50afcb74a1222f460189956f7b0caba210244ab4",
    "erg/w1.word": "f2f825dcd2ff46a51b91a71c415813df4809ebb86be7b3366421fb3917449fd6",
    "erg/w2.word": "ecc59d1cd1be98e4c440dd502d15448c82e6fac65ac052c522c74322c87f988e",
    "erg/xu.word": "1311d7a57a15273896644e59302db3ed943568763e731d55e5e65225767dc1bd",
    "f.json": "a93f7ae9d7850ca2b525738dd4c0ae636b4f434bbe32c34ec78f11d3544b35df",
    "f.txt": "722c7987a88d0f328d05781ee3ec8f8e4bc0898380771bb74bcd595429dcfb07",
    "min/trace.json": "cfba512f4077d1ff2761b8eb30b031d8124f4d3bbf7169f49531e8cb78962578",
    "min/w0.word": "01757dbd139493162bd0926d50afcb74a1222f460189956f7b0caba210244ab4",
    "min/w1.word": "02b17cc3c93d617cd8f1bdea77706bea1c459969a440deb2bced8b769ddb78b4",
    "min/xu.word": "214d9260245b3cea58969fd5e222b0aadfc8edcdd47484eb04d1254a7bc28abb",
    "mix/x.word": "3016d2ceedda6e1f8f512c68ca1239a76bcb7a1597ffde10c069827478242b3d",
    "st/x.word": "fb3d3a8d89bcc1d45fbdbbdb66b5cf2c901ffeca8ab30948f3bb93defa9ee6c0",
    "zero/x.word": "3ee24db0288add569eb715e1113152285dd62e675cfaf8b27a536e3eedb64638",
}


def test_construct_bytes_pinned(tmp_path, capsys):
    snapshot = _run_all_commands(tmp_path)
    capsys.readouterr()
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in snapshot.items()}
    assert got == OUTPUT_DIGESTS
