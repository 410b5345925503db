"""The benchmark workloads: their CLI jobs, inputs and expected outcomes.

A workload is two parts whose jobs run one after the other in each round;
a job is named ``<part>-<job>``.  Sizes are fixed per part.  The seed
changes only f-value seeds, residues, shifts and random word content,
never a size, and no expected outcome depends on it.  NOTES.md says why
each part exists and which layer it loads.

A job's arguments may hold two placeholders: ``{in}``, the directory of
the inputs the harness generated, and ``{out}``, the job's own output
directory, every file of which is an output whose bytes are checked.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

# Each workload pairs parts so that a planned optimization is exercised in
# one workload and must not regress the other: the window array (ROADMAP
# item 2) cuts `windows` without raising the peak RSS of `exhaustive`; a
# suffix-array p(n) (item 3) cuts `profile` without slowing the small-m
# factor counts of `build`.  Two workloads rather than four leave room for
# runs long enough to average over the host's slow spells (NOTES.md).
NAMES = ("windows-build", "exhaustive-profile")

# [0; 2, 2, 2, 2, 2, 2, 2, 2, 2] = 985/2378, the Sturmian slope used here.
STURMIAN_CF = "0,2,2,2,2,2,2,2,2,2"
STURMIAN_P, STURMIAN_Q = 985, 2378

MINIMAL_VERDICTS = [
    ("prefix-chain", True), ("m-divisibility", True),
    ("factorial-divisibility", True), ("monotone-filling", True),
    ("result-complete", True), ("restriction-identity", True),
    ("anchor-membership", True), ("block-membership", True)]
ERGODIC_VERDICTS = [
    ("prefix-chain", True), ("m-divisibility", True),
    ("monotone-filling", True), ("result-complete", True),
    ("restriction-identity", True), ("anchor-membership", True),
    ("block-frequencies", True)]


@dataclass
class Job:
    """One CLI call and the outcome it must have."""

    name: str
    args: list
    exit: int
    verdicts: list                # [(name, ok)] in report order
    replay: bool = False          # replay every set certificate in the report
    outputs: bool = True          # whether the job writes output files
    check: object = None          # extra check: fn(out_dir) -> error or None


@dataclass
class Workload:
    name: str
    inputs: dict                  # file name in {in} -> text
    jobs: list
    prep: list = field(default_factory=list)   # jobs run once, untimed


# Full sizes, and the tiny sizes the self-check uses.  The tiny sizes give
# the same verdicts as the full ones.
SIZES = {
    False: {
        "st_n": 100_000, "st_banach": 64,
        "pow_n": 2 ** 20, "pow_banach": 64, "pow_gap_table": 1024,
        "union_n": 100_000, "union_banach": 32,
        "f_n": 10_000_000, "ap_n": 2_000_000, "sums_gens": 20,
        "m_list": "12,16,20,24,26",
        "minimal_n": 2 ** 18, "cubes_max": 46, "ergodic_n": 100_000,
        "mixing_n": 2 ** 18, "sturmian_n": 50_000, "zero_n": 2 ** 14,
        "word_n": 2 ** 16, "n_max": 64,
    },
    True: {
        "st_n": 2_000, "st_banach": 16,
        "pow_n": 2 ** 12, "pow_banach": 16, "pow_gap_table": 64,
        "union_n": 2_000, "union_banach": 8,
        "f_n": 100_000, "ap_n": 5_000, "sums_gens": 8,
        "m_list": "4,6,8",
        "minimal_n": 2 ** 17, "cubes_max": 21, "ergodic_n": 10_000,
        "mixing_n": 2 ** 12, "sturmian_n": 2_000, "zero_n": 2 ** 10,
        "word_n": 2 ** 10, "n_max": 16,
    },
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` at `seed`; `tiny` shrinks every size."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng, sizes = random.Random(seed), SIZES[tiny]
    parts = [PARTS[part](rng, sizes) for part in name.split("-")]
    return Workload(
        name, {k: v for p in parts for k, v in p.inputs.items()},
        [replace(job, name=f"{p.name}-{job.name}") for p in parts
         for job in p.jobs],
        [job for p in parts for job in p.prep])


def _problem(spec: str, k: int, n: int, f_seed: int) -> str:
    return json.dumps({"set_spec": spec, "k": k, "N": n,
                       "f": {"seed": f_seed}}) + "\n"


def _word_file(symbols: str) -> str:
    lines = ["k=2"] + [symbols[i:i + 120] for i in range(0, len(symbols), 120)]
    return "\n".join(lines) + "\n"


def sturmian_symbols(length: int, intercept: int) -> str:
    """Mechanical word s_i = floor(((i+1)p + r)/q) - floor((ip + r)/q) of
    slope p/q, computed here rather than by the library; p(n) = n + 1 for
    every n < q."""
    p, q, r = STURMIAN_P, STURMIAN_Q, intercept % STURMIAN_Q
    return "".join(str(((i + 1) * p + r) // q - (i * p + r) // q)
                   for i in range(length))


def _windows(rng, z) -> Workload:
    b, t = rng.randrange(7), rng.randrange(1, 1000)
    union = (f"kind=union of=(kind=ap a=7 b={b})"
             f"(kind=shift t={t} of=(kind=powers base=3))")
    jobs = [
        Job("sturmian", ["analyze", "--set", f"kind=sturmian cf={STURMIAN_CF}",
                         "--n", str(z["st_n"]), "--banach", str(z["st_banach"]),
                         "--thick", "3", "--gap-table", "3",
                         "--out", "{out}/report.json"],
            1, [("thick", False), ("gap-syndetic", False)], replay=True),
        Job("powers", ["analyze", "--set", "kind=powers base=2",
                       "--n", str(z["pow_n"]), "--gaps",
                       "--banach", str(z["pow_banach"]),
                       "--gap-table", str(z["pow_gap_table"]),
                       "--pw-syndetic", "4", "64", "--out", "{out}/report.json"],
            1, [("piecewise-syndetic", False), ("gap-syndetic", True)],
            replay=True),
        Job("union", ["analyze", "--set", union, "--n", str(z["union_n"]),
                      "--banach", str(z["union_banach"]), "--syndetic", "7",
                      "--out", "{out}/report.json"],
            0, [("syndetic", True)], replay=True),
    ]
    return Workload("windows", {}, jobs)


def _exhaustive(rng, z) -> Workload:
    gens = ",".join(str(g) for g in range(1, z["sums_gens"] + 1))
    total = z["sums_gens"] * (z["sums_gens"] + 1) // 2
    m_list = z["m_list"].split(",")
    jobs = [
        Job("verify-f", ["verify-f", "--n", str(z["f_n"]), "--depth", "3",
                         "--shifts", "1", "3", "--dual-oracle",
                         "--out", "{out}/f.json", "--out-set", "{out}/f.set"],
            0, [("sum-free", True), ("shift-ip-1", True), ("shift-ip-2", True),
                ("shift-ip-3", True), ("dual-oracle-agreement", True)]),
        Job("ap", ["analyze", "--set", "kind=ap a=1 b=0", "--n", str(z["ap_n"]),
                   "--syndetic", "3", "--thick", "1000",
                   "--out", "{out}/report.json"],
            0, [("syndetic", True), ("thick", True)], replay=True),
        Job("sums", ["analyze", "--set", f"kind=sums gens={gens}",
                     "--n", str(total), "--syndetic", "3",
                     "--out", "{out}/report.json"],
            0, [("syndetic", True)], replay=True),
        Job("count", ["count", "--delta", "1/3", "--k", "2",
                      "--m-list", z["m_list"], "--oracle",
                      "--csv", "{out}/counts.csv"],
            0, [(f"oracle-m{m}", True) for m in m_list]),
    ]
    return Workload("exhaustive", {}, jobs)


def _build(rng, z) -> Workload:
    n = z["minimal_n"]
    cubes = ",".join(str(i ** 3) for i in range(1, z["cubes_max"] + 1))
    residue = rng.randrange(11)
    f_seeds = [rng.randrange(10 ** 6) for _ in range(7)]
    inputs = {
        "powers2.json": _problem("kind=powers base=2", 2, n, f_seeds[0]),
        "powers3.json": _problem("kind=powers base=3", 2, n, f_seeds[1]),
        "powers2-k3.json": _problem("kind=powers base=2", 3, n, f_seeds[2]),
        "cubes.json": _problem(f"kind=explicit elements={cubes}", 2,
                               z["ergodic_n"], f_seeds[3]),
        "mixing.json": _problem("kind=powers base=2", 2, z["mixing_n"],
                                f_seeds[4]),
        "sturmian.json": _problem(f"kind=sturmian cf={STURMIAN_CF}", 3,
                                  z["sturmian_n"], f_seeds[5]),
        "zero.json": _problem(
            f"kind=union of=(kind=ap a=11 b={residue})(kind=powers base=2)",
            3, z["zero_n"], f_seeds[6]),
    }

    def construct(kind, problem, *extra):
        return ["construct", "--kind", kind, "--problem", f"{{in}}/{problem}",
                "--out-dir", "{out}", *extra]

    jobs = [
        Job("minimal-2", construct("minimal", "powers2.json", "--levels", "2"),
            0, MINIMAL_VERDICTS),
        Job("minimal-3", construct("minimal", "powers3.json", "--levels", "2"),
            0, MINIMAL_VERDICTS),
        Job("minimal-k3", construct("minimal", "powers2-k3.json",
                                    "--levels", "2"),
            1, [("level-window", False)], outputs=False),
        Job("ergodic", construct("ergodic", "cubes.json", "--levels", "2"),
            0, ERGODIC_VERDICTS),
        Job("mixing", construct("mixing", "mixing.json", "--l-target", "6"),
            0, [("restriction-identity", True), ("factor-coverage", True)]),
        Job("sturmian", construct("sturmian", "sturmian.json"),
            0, [("restriction-identity", True),
                ("sturmian-factor-bound", True)]),
        Job("zero", construct("zero", "zero.json"),
            0, [("restriction-identity", True), ("entropy-estimate", True)]),
    ]
    return Workload("build", inputs, jobs)


def _check_sturmian_profile(out_dir: str):
    """A mechanical word of rational slope p/q has p(n) = n + 1 for n < q."""
    with open(f"{out_dir}/profile.csv", encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    bad = [r[0] for r in rows if int(r[1]) != int(r[0]) + 1]
    return f"p(n) != n + 1 at n = {bad[:5]}" if bad else None


def _profile(rng, z) -> Workload:
    f_seed = rng.randrange(10 ** 6)
    length = z["word_n"]
    random_bits = format(rng.getrandbits(length), f"0{length}b")
    intercept = rng.randrange(STURMIAN_Q)
    inputs = {
        "problem.json": _problem("kind=powers base=2", 2, z["minimal_n"],
                                 f_seed),
        "random.word": _word_file(random_bits),
        "sturmian.word": _word_file(sturmian_symbols(length, intercept)),
    }
    prep = [Job("xu", ["construct", "--kind", "minimal", "--levels", "2",
                       "--problem", "{in}/problem.json", "--out-dir", "{out}"],
                0, MINIMAL_VERDICTS)]

    def stats(word):
        return ["word-stats", "--word", word, "--n-max", str(z["n_max"]),
                "--csv", "{out}/profile.csv"]

    ok = [("profile-invariants", True)]
    jobs = [
        Job("xu", stats("{in}/xu/xu.word"), 0, ok),
        Job("random", stats("{in}/random.word"), 0, ok),
        Job("sturmian", stats("{in}/sturmian.word"), 0, ok,
            check=_check_sturmian_profile),
    ]
    return Workload("profile", inputs, jobs, prep)


PARTS = {"windows": _windows, "exhaustive": _exhaustive, "build": _build,
         "profile": _profile}
