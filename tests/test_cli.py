"""CLI surface: exit codes, file outputs, reproducibility."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from interpsets import construct
from interpsets.cli import main
from interpsets.intsets import (
    Certificate,
    IntegerSetModel,
    parse_set_spec,
    replay_certificate,
    window,
)
from oracles import at, mechanical_word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_syndetic_ap(capsys):
    code, out = run(capsys, "analyze", "--set", "kind=ap a=3 b=0",
                    "--n", "300", "--syndetic", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["verdicts"][0]["ok"] is True


def test_analyze_failing_verdict_exit_1(capsys):
    code, out = run(capsys, "analyze", "--set", "kind=powers base=2",
                    "--n", "100", "--syndetic", "10")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["ok"] is False


def test_analyze_pw_trivial(capsys):
    code, out = run(capsys, "analyze", "--set", "kind=ap a=1 b=0",
                    "--n", "100", "--pw-syndetic", "1", "100")
    assert code == 0


def test_analyze_banach_powers(capsys):
    code, out = run(capsys, "analyze", "--set", "kind=powers base=2",
                    "--n", "1048576", "--banach", "8", "--gaps")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["banach"]["rows"][0]["count"] == 1
    assert rep["results"]["gap_histogram"]["2"] == 1


def test_analyze_sums_at_scale(capsys):
    gens = ",".join(str(g) for g in range(1, 41))
    code, out = run(capsys, "analyze", "--set", f"kind=sums gens={gens}",
                    "--n", "2000", "--syndetic", "3")
    assert code == 1    # S = [1, 820], so the tail (820, 2000] fails
    assert json.loads(out)["verdicts"][0]["certificate"]["witness"] == {
        "gap": [820, 2001], "length": 1181, "kind": "pending-tail"}


def test_malformed_spec_exit_2(capsys):
    code, _ = run(capsys, "analyze", "--set", "kind=wat", "--n", "10")
    assert code == 2


@pytest.mark.parametrize("spec, named", [
    ("kind=ap a=3 b=0 a=4", "key 'a' repeated"),
    ("kind=shift t=2 of=(kind=ap a=2 b=0)(kind=powers base=3)",
     "exactly one of= group, got 2"),
    ("kind=shift t=2 of=", "exactly one of= group, got 0"),
    ("kind=union of=junk(kind=ap a=3 b=0)", "stray 'j'"),
    ("kind=union of=(kind=ap a=3 b=0)xyz(kind=powers base=2)", "stray 'x'"),
    ("kind=shift t=2 of=zz(kind=ap a=3 b=0)", "stray 'z'"),
    ("kind=ap a=3", "kind=ap needs b="),
    ("kind=explicit members=3,5", "kind=explicit needs elements="),
])
def test_spec_repeated_key_or_extra_shift_group_exit_2(capsys, spec, named):
    code = main(["analyze", "--set", spec, "--n", "20", "--syndetic", "5"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert named in err


def test_missing_subcommand_exit_2(capsys):
    assert main([]) == 2


def test_count_csv_and_oracle(tmp_path, capsys):
    csv = tmp_path / "c.csv"
    code, out = run(capsys, "count", "--delta", "1/3", "--k", "2",
                    "--m-range", "3:9:3", "--oracle", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "m,count,log_rate,analytic_limit,inf_so_far"
    assert lines[1].startswith("3,4,")


def test_count_oracle_refusal(capsys):
    # the oracle's own bound: 4^ceil(28/2) = 4^14 > 10^8 words per half
    code = main(["count", "--delta", "1/2", "--k", "4", "--m", "28", "--oracle"])
    assert code == 2
    assert "100000000" in capsys.readouterr().err


def test_count_oracle_runs_to_its_own_bound(capsys):
    # k^m = 2^27 > 10^8, but the oracle enumerates only 2^14 words per half
    code, out = run(capsys, "count", "--delta", "1/3", "--k", "2",
                    "--m-list", "27", "--oracle")
    assert code == 0
    assert [v["name"] for v in json.loads(out[out.index("{"):])["verdicts"]] \
        == ["oracle-m27"]


def test_count_bad_delta(capsys):
    code, _ = run(capsys, "count", "--delta", "0.x", "--k", "2", "--m", "4")
    assert code == 2


def _write_problem(path, spec, k, n, seed=None, pairs=None):
    f = {"seed": seed} if seed is not None else {"pairs": pairs}
    path.write_text(json.dumps(
        {"set_spec": spec, "k": k, "N": n, "f": f}))


def test_construct_zero(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=7)
    out_dir = tmp_path / "out"
    code, out = run(capsys, "construct", "--kind", "zero",
                    "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "x.word").exists()
    rep = json.loads(out)
    assert rep["seed"] == 7


@pytest.mark.parametrize("n", [4096, 40])
def test_construct_zero_entropy_estimate_at_fixed_depth(tmp_path, capsys, n):
    from interpsets import words as W
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, n, seed=7)
    out_dir = tmp_path / "out"
    code, out = run(capsys, "construct", "--kind", "zero",
                    "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    cert = json.loads(out)["verdicts"][1]["certificate"]
    n_max = min(64, n // 2)
    profile = W.complexity_profile(W.read_word_file(out_dir / "x.word"), n_max)
    assert cert["predicate"] == "entropy-estimate"
    assert cert["scale"] == {"N": n, "n_max": n_max}
    assert cert["witness"] == {"h_at_max": profile.h_est[n_max]}
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(out_dir), "--profile-max", "16"])
    assert code == 2


def test_construct_zero_answers_at_n_1(tmp_path, capsys):
    # the profile depth min(64, N/2) is 0 at N = 1: an empty estimate
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=ap a=1 b=0", 2, 1, pairs=[[1, 1]])
    out_dir = tmp_path / "out"
    code, out = run(capsys, "construct", "--kind", "zero",
                    "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    from interpsets import words as W
    assert W.read_word_file(out_dir / "x.word") == W.SymbolWord(2, [1])
    restriction, estimate = (v["certificate"] for v in json.loads(out)["verdicts"])
    assert restriction["predicate"] == "restriction-identity"
    assert estimate["predicate"] == "entropy-estimate"
    assert estimate["scale"] == {"N": 1, "n_max": 0}
    assert estimate["witness"] == {"h_at_max": None}


def test_construct_zero_with_explicit_pairs(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=explicit elements=3,7,11", 2, 20,
                   pairs=[[3, 1], [7, 0], [11, 1]])
    out_dir = tmp_path / "out"
    code, _ = run(capsys, "construct", "--kind", "zero",
                  "--problem", str(prob), "--out-dir", str(out_dir))
    assert code == 0
    from interpsets import words as W
    w = W.read_word_file(out_dir / "x.word")
    assert at(w, 3) == 1 and at(w, 7) == 0 and at(w, 11) == 1 and at(w, 4) == 0


def test_construct_mixing_refusal_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=ap a=2 b=0", 2, 100, seed=1)
    code, out = run(capsys, "construct", "--kind", "mixing",
                    "--problem", str(prob), "--out-dir", str(tmp_path / "o"))
    assert code == 1
    rep = json.loads(out)
    verdict = rep["verdicts"][0]
    assert verdict["name"] == "mixing-precondition"
    assert verdict["certificate"]["witness"]["certificate"]["verdict"] \
        == "holds-at-scale"


@pytest.mark.parametrize("k", [2 ** 62, 2 ** 30])
def test_construct_mixing_builds_no_k_symbol_word(tmp_path, capsys, k):
    # the universal word opens with all k symbols, but N = 4096 has room
    # for 2047 of them; 2^62 is past factor_counts' alphabet bound
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", k, 4096, seed=1)
    started = time.monotonic()
    code = main(["construct", "--kind", "mixing", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert time.monotonic() - started < 2
    out, err = capsys.readouterr()
    if k == 2 ** 62:
        assert (code, out) == (2, "")
        assert "factor_counts needs alphabet_size <= 2^31 - 1" in err
    else:
        assert code == 1
        assert [(v["name"], v["ok"]) for v in json.loads(out)["verdicts"]] \
            == [("restriction-identity", True), ("factor-coverage", False)]


def test_construct_word_off_f_exit_1(tmp_path, capsys, monkeypatch):
    from interpsets import words as W
    real = construct.extend_zero

    def flipped(problem):
        w, profile = real(problem)
        sym = list(w.symbols)
        sym[int(window(problem.model, problem.n)[0]) - 1] ^= 1
        return W.SymbolWord(w.alphabet_size, tuple(sym)), profile

    monkeypatch.setattr(construct, "extend_zero", flipped)
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=7)
    code, out = run(capsys, "construct", "--kind", "zero",
                    "--problem", str(prob), "--out-dir", str(tmp_path / "o"))
    assert code == 1
    verdict = json.loads(out)["verdicts"][0]
    assert (verdict["name"], verdict["ok"]) == ("restriction-identity", False)
    assert verdict["certificate"]["witness"] == {"mismatches": 1}


def test_construct_sturmian_requires_matching_spec(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=ap a=2 b=0", 2, 100, seed=1)
    code, _ = run(capsys, "construct", "--kind", "sturmian",
                  "--problem", str(prob), "--out-dir", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("pairs, message", [
    ([[2, 0], [2, 1], [4, 0], [8, 1], [16, 0]], "position 2 more than once"),
    ([[2, 0], [4, 0], [8, 1]], "missing [16]"),
    ([[2, 0], [4, 0], [8, 1], [16, 0], [2 ** 70, 0]], "bad problem file"),
])
def test_construct_bad_pairs_exit_2(tmp_path, capsys, pairs, message):
    # pairs must name every member of S in [1, N] exactly once
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 20, pairs=pairs)
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "x.word").exists()


@pytest.mark.parametrize("f, message", [
    ({"values": [1, 0]}, "f must give pairs or a seed"),
    ({"seed": 1, "distribution": "normal"}, "only distribution=uniform"),
])
def test_construct_f_without_pairs_or_uniform_seed_exit_2(tmp_path, capsys,
                                                          f, message):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(
        {"set_spec": "kind=powers base=2", "k": 2, "N": 64, "f": f}))
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_construct_sturmian_tiny_window(tmp_path, capsys):
    # |w| // 2 == 0 leaves no factor length to bound, so the bound holds
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=sturmian cf=0,2,2", 2, 1, seed=5)
    code, out = run(capsys, "construct", "--kind", "sturmian",
                    "--problem", str(prob), "--out-dir", str(tmp_path / "o"))
    assert code == 0
    verdict = json.loads(out)["verdicts"][1]
    assert (verdict["name"], verdict["ok"]) == ("sturmian-factor-bound", True)


def test_construct_out_dir_under_a_file_exit_2(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 64, seed=5)
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(prob / "sub")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("f", [5, {"pairs": 5}, {"seed": None}, "seed"])
def test_construct_wrongly_typed_f_exit_2(tmp_path, capsys, f):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(
        {"set_spec": "kind=powers base=2", "k": 2, "N": 64, "f": f}))
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad problem file")


@pytest.mark.parametrize("fields, named", [
    ({"k": 2.7, "N": 20.9,
      "f": {"pairs": [[2.9, 0], [4, 1], [8, 0], [16, 1]]}}, "k"),
    ({"k": "2", "N": "20", "f": {"seed": "3"}}, "k"),
    ({"k": True}, "k"),
    ({"N": 20.0}, "N"),
    ({"f": {"seed": 5.0}}, "f.seed"),
    ({"f": {"pairs": [[2, 0], [4, 1.0], [8, 0], [16, 1]]}}, "f.pairs[1]"),
], ids=["floats", "strings", "bool-k", "float-N", "float-seed", "float-pair"])
def test_construct_non_integer_field_exit_2(tmp_path, capsys, fields, named):
    # int() would truncate a float, parse a string and read true as k = 1
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"set_spec": "kind=powers base=2", "k": 2,
                                "N": 20, "f": {"seed": 3}, **fields}))
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert f": {named} must be a JSON integer" in capsys.readouterr().err
    assert not (tmp_path / "o" / "x.word").exists()


@pytest.mark.parametrize("k", [0, 2 ** 63 + 1, 2 ** 70])
@pytest.mark.parametrize("f", [{"seed": 3},
                               {"pairs": [[2, 0], [4, 1], [8, 0], [16, 1]]}],
                         ids=["seed", "pairs"])
def test_construct_alphabet_outside_range_exit_2(tmp_path, capsys, k, f):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({"set_spec": "kind=powers base=2", "k": k,
                                "N": 20, "f": f}))
    code = main(["construct", "--kind", "zero", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert f"k must lie in [1, 2^63], got k = {k}" in capsys.readouterr().err


BAD_SPECS = [
    ("kind=ap a=0 b=0", "modulus a must be >= 1"),
    ("kind=powers base=1", "base must be >= 2"),
    ("kind=union of=", "union needs at least one part"),
    ("kind=sums gens=0", "generators must be positive"),
    ("kind=sturmian cf=0,0", "continued fraction needs a0 >= 0 and a_i >= 1"),
    ("kind=sturmian cf=3", "sturmian parameter must lie in (0, 1]"),
    ("kind=explicit elements=5 bound=3", "member beyond window_bound"),
    ("kind=explicit elements=0,2", "explicit members must be >= 1"),
    ("kind=ap a=x b=0", "invalid literal for int()"),
]


@pytest.mark.parametrize("argv, named", [
    *[(["construct", "--kind", kind, "--problem", "k2.json", "--levels", "0"],
       "levels must be >= 1") for kind in ("minimal", "ergodic")],
    *[(["construct", "--kind", kind, "--problem", "k1.json"],
       "leveled constructions need alphabet size >= 2")
      for kind in ("minimal", "ergodic")],
    (["count", "--delta", "1/3", "--k", "1", "--m", "4"], "k must be >= 2"),
    (["count", "--delta", "1/3", "--k", "2", "--m", "0"], "m must be >= 1"),
    (["word-stats", "--word", "one.word"], "word too short for a profile"),
    *[(["analyze", "--set", spec, "--n", "20", "--syndetic", "3"],
       f"bad spec {spec!r}: {why}") for spec, why in BAD_SPECS],
])
def test_input_refusals_exit_2(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    for k in (1, 2):
        _write_problem(tmp_path / f"k{k}.json", "kind=powers base=2", k, 64, seed=1)
    (tmp_path / "one.word").write_text("k=2\n0\n")
    extra = ["--out-dir", "out"] if argv[0] == "construct" else []
    code = main(argv + extra)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert named in err


@pytest.mark.parametrize("spec, n", [
    ("kind=union of=(kind=ap a=1 b=0)(kind=powers base=2)", 10 ** 10),
    ("kind=union of=(kind=ap a=3 b=0)(kind=powers base=2)", 3 * 2 ** 26 + 3),
    ("kind=shift t=-7 of=(kind=sums gens=1,100000000000)", 10 ** 12),
])
def test_analyze_refuses_a_window_past_its_limit(capsys, monkeypatch, spec, n):
    from interpsets import intsets

    def no_work(model, n):
        raise AssertionError("a window was built before its size was bounded")

    monkeypatch.setattr(intsets, "_materialize", no_work)
    tracemalloc.start()
    try:
        code = main(["analyze", "--set", spec, "--n", str(n), "--syndetic", "3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"above the window limit of {intsets.WINDOW_LIMIT}" in err
    assert peak < 2 ** 20


@pytest.mark.parametrize("n", [2 ** 26 + 1, 2 ** 40])
@pytest.mark.parametrize("argv", [["--kind", "zero"],
                                  ["--kind", "minimal", "--levels", "2"]])
def test_construct_refuses_a_word_past_the_window_limit(tmp_path, capsys,
                                                        monkeypatch, argv, n):
    # the window of powers holds about 40 members, so only the N cells of
    # the word itself can be too many; they are refused before numpy is asked
    from interpsets import intsets
    np = construct.np
    full = np.full

    def small_full(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) <= 2 ** 27, shape
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", small_full)
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, n, seed=5)
    started = time.monotonic()
    code = main(["construct", *argv, "--problem", str(prob),
                 "--out-dir", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert f"N = {n} cells exceeds the window limit of {intsets.WINDOW_LIMIT}" \
        in err


@pytest.mark.parametrize("kind, levels", [("minimal", 3), ("ergodic", 5)])
def test_construct_refuses_anchor_words_past_the_window_limit(tmp_path, capsys,
                                                              kind, levels):
    # At N = 2^40 the last level's plan passes its level-window checks on the
    # powers of 2, but each of its anchor words would hold m_j > WINDOW_LIMIT
    # symbols (numpy was once asked for 62.5 GiB); the plan refuses them
    # before any is built, and the refusal is a usage error, not a verdict.
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 2 ** 40, seed=5)
    out_dir = tmp_path / "out"
    code = main(["construct", "--kind", kind, "--levels", str(levels),
                 "--problem", str(prob), "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"level {levels}: anchor words of m_{levels} = " in err
    assert "window limit of 67108864" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_union_window_at_scale_in_a_subprocess():
    # 2 * 10^6 members from two sorted parts, merged by a stable sort and a
    # first-occurrence mask; np.unique made this query take 4.1 s
    argv = ["analyze", "--set", "kind=union of=(kind=ap a=5 b=0)(kind=powers base=2)",
            "--n", "20000000", "--syndetic", "3"]
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "interpsets.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert proc.returncode == 1, proc.stderr        # the gap [10, 15] fails g = 3
    cert = json.loads(proc.stdout)["verdicts"][0]["certificate"]
    assert cert["witness"]["gap"] == [10, 15]
    assert elapsed < 1.5, elapsed


def test_construct_minimal_trace_files(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=5)
    out_dir = tmp_path / "out"
    code, out = run(capsys, "construct", "--kind", "minimal",
                    "--problem", str(prob), "--out-dir", str(out_dir),
                    "--levels", "1")
    assert code == 0
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["kind"] == "totally-minimal"
    assert trace["levels"][1]["m"] == 56
    assert (out_dir / "xu.word").exists()
    assert (out_dir / "w1.word").exists()


def test_construct_level_window_failure(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 100, seed=5)
    code, out = run(capsys, "construct", "--kind", "minimal",
                    "--problem", str(prob), "--out-dir", str(tmp_path / "o"),
                    "--levels", "2")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdicts"][0]["name"] == "level-window"
    witness = rep["verdicts"][0]["certificate"]["witness"]
    assert witness["level"] == 2
    # the gap-syndeticity certificate that blocked level 2 replays
    blocking = Certificate.from_json(witness["certificate"])
    assert blocking.predicate == "gap-syndetic" and not blocking.holds
    assert blocking.scale == {"N": 100, "n": witness["required_gap"]}
    assert replay_certificate(IntegerSetModel.lacunary_powers(2), blocking)
    # the ergodic density refusal has no blocking certificate
    _write_problem(prob, "kind=ap a=1 b=0", 2, 500, seed=1)
    code, out = run(capsys, "construct", "--kind", "ergodic",
                    "--problem", str(prob), "--out-dir", str(tmp_path / "e"),
                    "--levels", "1")
    assert code == 1
    witness = json.loads(out)["verdicts"][0]["certificate"]["witness"]
    assert witness["level"] == 1 and witness["certificate"] is None


def _gap_syndetic(n, gap_len, verdict, witness):
    return {"predicate": "gap-syndetic", "scale": {"N": n, "n": gap_len},
            "verdict": verdict, "witness": witness}


_THIRTIES = ",".join(str(30 * i) for i in range(1, 14))

# One input per refusal site, with the failing certificate the CLI printed
# for it before the refusal carried its own (recorded, not recomputed).
PINNED_REFUSALS = {
    "minimal-gap": ("minimal", "kind=powers base=2", 262144, 5, 3, {
        "predicate": "level-window", "scale": {"N": 262144, "levels": 3},
        "verdict": "fails-at-scale",
        "witness": {
            "certificate": _gap_syndetic(
                262144, 214583885824, "fails-at-scale",
                {"longest_free_run": 131071, "stretch": [1, 262144]}),
            "level": 3, "required_gap": 214583885824,
            "reason": "level 3: no S-free run of length 214583885824 in "
                      "[1, 262144]"}}),
    "minimal-m-next": ("minimal", f"kind=explicit elements={_THIRTIES}",
                       37254, 1, 2, {
        "predicate": "level-window", "scale": {"N": 37254, "levels": 2},
        "verdict": "fails-at-scale",
        "witness": {
            "certificate": _gap_syndetic(
                37254, 36864, "holds-at-scale",
                {"first_gap_start": 391, "gap_start_count": 1,
                 "spacing_bound": 37254}),
            "level": 2, "required_gap": 36864,
            "reason": "level 2: m_2 = 37344 exceeds the window 37254"}}),
    "ergodic-density": ("ergodic", "kind=ap a=2 b=0", 4096, 1, 1, {
        "predicate": "level-window", "scale": {"N": 4096, "levels": 1},
        "verdict": "fails-at-scale",
        "witness": {
            "certificate": None, "level": 1, "required_gap": None,
            "reason": "level 1: window 4096 cannot satisfy the density "
                      "bound 1/2 at level length 4098"}}),
    "mixing": ("mixing", "kind=ap a=2 b=0", 100, 1, 3, {
        "predicate": "mixing-precondition",
        "scale": {"N": 100, "l_target": 4}, "verdict": "fails-at-scale",
        "witness": {
            "available_run": 1, "required_run": 4,
            "certificate": {"predicate": "syndetic", "scale": {"N": 100, "g": 2},
                            "verdict": "holds-at-scale",
                            "witness": {"length": 2, "max_gap": [0, 2],
                                        "pending_tail": 0}}}}),
}


@pytest.mark.parametrize("site", sorted(PINNED_REFUSALS))
def test_refusal_certificate_pinned(tmp_path, capsys, site):
    kind, spec, n, seed, levels, pinned = PINNED_REFUSALS[site]
    problem = construct.random_problem(parse_set_spec(spec), 2, n, seed)
    with pytest.raises(construct.ConstructionRefused) as err:
        if kind == "mixing":
            construct.mixing_extend(problem, 4)
        elif kind == "minimal":
            construct.totally_minimal_construct(problem, levels)
        else:
            construct.strictly_ergodic_construct(problem, levels)
    assert err.value.certificate.to_json() == pinned
    if kind != "mixing":
        assert str(err.value) == pinned["witness"]["reason"]
    prob = tmp_path / "p.json"
    _write_problem(prob, spec, 2, n, seed=seed)
    code, out = run(capsys, "construct", "--kind", kind, "--problem", str(prob),
                    "--out-dir", str(tmp_path / "o"), "--levels", str(levels))
    assert code == 1
    rep = json.loads(out)
    assert rep["outputs"] == []
    assert rep["verdicts"] == [{"name": pinned["predicate"], "ok": False,
                                "certificate": pinned}]


def test_construct_mixing_l_target_past_the_window_exit_2(tmp_path, capsys):
    # S = {8, 64, ...} misses [1, 7], and N < l_target is refused as usage
    # before any certificate is built; a run longer than N cannot exist
    prob = tmp_path / "p.json"
    for spec, n, l_target in (("kind=powers base=8", 7, 9),
                              ("kind=ap a=2 b=0", 3, 4)):
        _write_problem(prob, spec, 2, n, seed=1)
        code = main(["construct", "--kind", "mixing", "--problem", str(prob),
                     "--out-dir", str(tmp_path / "o"),
                     "--l-target", str(l_target)])
        assert code == 2
        assert (f"l_target must lie in [1, N = {n}], got {l_target}"
                in capsys.readouterr().err)


def test_construct_on_an_empty_window(tmp_path, capsys):
    # S = {8192, ...} misses [1, 4096]: every kind runs on it
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=8192", 2, 4096, pairs=[])
    for kind in ("zero", "mixing", "ergodic", "minimal"):
        code, out = run(capsys, "construct", "--kind", kind, "--problem",
                        str(prob), "--out-dir", str(tmp_path / kind),
                        "--levels", "1")
        assert code == 0, kind
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 8 and all(v["ok"] for v in verdicts)
    # two levels need a free run of 9216 > N, and that refusal replays
    code, out = run(capsys, "construct", "--kind", "minimal", "--problem",
                    str(prob), "--out-dir", str(tmp_path / "m2"), "--levels", "2")
    assert code == 1
    witness = json.loads(out)["verdicts"][0]["certificate"]["witness"]
    assert witness["level"] == 2 and witness["required_gap"] == 9216
    blocking = Certificate.from_json(witness["certificate"])
    assert not blocking.holds
    assert blocking.witness == {"stretch": [1, 4096], "longest_free_run": 4096}
    assert replay_certificate(IntegerSetModel.lacunary_powers(8192), blocking)


@pytest.mark.parametrize("n", [0, -5])
@pytest.mark.parametrize("kind", ["zero", "sturmian", "mixing", "minimal",
                                  "ergodic"])
def test_construct_window_below_one_exit_2(tmp_path, capsys, kind, n):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=ap a=2 b=0", 2, n, seed=1)
    code = main(["construct", "--kind", kind, "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert f"needs N >= 1, got N = {n}" in capsys.readouterr().err


def test_analyze_on_an_empty_window(tmp_path, capsys):
    # S = {8192, ...} misses [1, 4096]: each predicate answers, none refuses
    spec = "kind=powers base=8192"
    report = tmp_path / "r.json"
    code, out = run(capsys, "analyze", "--set", spec, "--n", "4096",
                    "--syndetic", "3", "--thick", "2", "--pw-syndetic", "2", "8",
                    "--out", str(report))
    assert code == 1
    verdicts = json.loads(out)["verdicts"]
    assert [(v["name"], v["ok"]) for v in verdicts] == [
        ("syndetic", False), ("thick", False), ("piecewise-syndetic", False)]
    assert [v["certificate"]["witness"] for v in verdicts] == [
        {"gap": [0, 4097], "length": 4097, "kind": "pending-tail"},
        {"longest_run_start": None, "longest_run": 0},
        {"best_stretch": 0, "best_start": None, "needed": 7}]
    model = parse_set_spec(spec)
    for v in json.loads(report.read_text())["verdicts"]:
        assert replay_certificate(model, Certificate.from_json(v["certificate"]))
    code, out = run(capsys, "analyze", "--set", spec, "--n", "4096", "--gaps")
    assert code == 0
    assert json.loads(out)["results"]["gap_histogram"] == {}


def test_construct_internal_fault_exit_3(tmp_path, capsys, monkeypatch):
    def broken(problem, levels):
        raise AssertionError("partially filled sub-block")

    monkeypatch.setattr(construct, "totally_minimal_construct", broken)
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=5)
    code = main(["construct", "--kind", "minimal", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o"), "--levels", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1
    fault = json.loads(err)
    assert fault["error"] == "internal"
    assert fault["type"] == "AssertionError"
    assert fault["message"] == "partially filled sub-block"


@pytest.mark.parametrize("cell", [0, 15])
def test_construct_part_filled_top_block_exit_3(tmp_path, capsys, monkeypatch,
                                                cell):
    # one top block of m_1 = 16 cells holds only its first or its last
    # cell; the finish must refuse it, not close it with w_1
    def one_cell(problem, levels):
        filling = construct.np.full(problem.n, construct.UNFILLED,
                                    construct.np.int8)
        filling[16 * 5 + cell] = 1
        level_data = [construct.LevelData(0, 1, ()),
                      construct.LevelData(1, 16, (construct.SymbolWord(2, [0] * 16),))]
        return construct._finish_trace("totally-minimal", problem, level_data,
                                       [problem.base_word(construct.UNFILLED), filling])

    monkeypatch.setattr(construct, "totally_minimal_construct", one_cell)
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=5)
    code = main(["construct", "--kind", "minimal", "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o"), "--levels", "1"])
    assert code == 3
    fault = json.loads(capsys.readouterr().err)
    assert (fault["type"], fault["message"]) \
        == ("AssertionError", "partially filled top block")


def test_construct_minimal_working_set(tmp_path, capsys):
    # tracemalloc peak of the whole command at N = 2^18, int8 cells: with
    # whole-filling masks in the checks and a five-copy word writer it
    # peaked at 2.71 MB; checking slice by slice and writing one buffer
    # of digit rows, at 2.06 MB (NumPy 2.4)
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 2 ** 18, seed=1)
    tracemalloc.start()
    try:
        code = main(["construct", "--kind", "minimal", "--problem", str(prob),
                     "--out-dir", str(tmp_path / "o"), "--levels", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 2.5e6, peak


def test_outputs_get_the_mode_open_gives(tmp_path, capsys):
    # a temp file renamed into place is 0600 whatever the umask; an output
    # must instead get what a plain open() gives: 0666 less the umask for
    # a new file, and its own mode for one it overwrites
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=5)
    runs = [
        ["analyze", "--set", "kind=ap a=3 b=0", "--n", "300", "--syndetic", "3",
         "--out", str(tmp_path / "report.json")],
        ["count", "--delta", "1/3", "--k", "2", "--m", "4",
         "--csv", str(tmp_path / "count.csv")],
        ["construct", "--kind", "minimal", "--problem", str(prob),
         "--out-dir", str(tmp_path / "out"), "--levels", "1"],
        ["construct", "--kind", "zero", "--problem", str(prob),
         "--out-dir", str(tmp_path / "out")],
    ]
    old = os.umask(0o022)
    try:
        for argv in runs:
            assert main(argv) == 0, argv
        outputs = [tmp_path / "report.json", tmp_path / "count.csv",
                   *sorted((tmp_path / "out").iterdir())]
        assert len(outputs) == 2 + 5     # trace.json, w0, w1, xu and x.word
        modes = {p.name: oct(p.stat().st_mode & 0o777) for p in outputs}
        assert set(modes.values()) == {"0o644"}, modes
        os.chmod(tmp_path / "report.json", 0o640)
        assert main(runs[0]) == 0
        assert oct((tmp_path / "report.json").stat().st_mode & 0o777) == "0o640"
    finally:
        os.umask(old)
    capsys.readouterr()


def test_verify_f(tmp_path, capsys):
    out_set = tmp_path / "f.txt"
    code, out = run(capsys, "verify-f", "--n", "1000000", "--depth", "3",
                    "--shifts", "1", "3", "--out-set", str(out_set))
    assert code == 0
    rep = json.loads(out)
    names = [v["name"] for v in rep["verdicts"]]
    assert "sum-free" in names and "shift-ip-3" in names
    assert out_set.read_text().splitlines()[0] == "11"


@pytest.mark.parametrize("n", ["10", "1000"])
def test_verify_f_depth_must_be_positive(capsys, n):
    # at N = 10 F is empty and no closure runs, so only the type refuses
    code = main(["verify-f", "--n", n, "--depth", "0", "--shifts", "1", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "not a positive integer" in err


@pytest.mark.parametrize("shifts", [("3", "1"), ("0", "2"), ("-4", "-2")])
def test_verify_f_bad_shifts_exit_2_before_work(capsys, monkeypatch, shifts):
    from interpsets import recurrence

    def no_work(bound):
        raise AssertionError("F was built before --shifts was checked")

    monkeypatch.setattr(recurrence, "build_F", no_work)
    code = main(["verify-f", "--n", "1000", "--shifts", *shifts])
    assert code == 2
    assert "--shifts" in capsys.readouterr().err


@pytest.mark.parametrize("n", [10 ** 9 + 1, 10 ** 16])
def test_verify_f_dual_oracle_refused_past_its_cap(capsys, monkeypatch, n):
    from interpsets import recurrence

    def no_work(bound):
        raise AssertionError("work began before the cap was checked")

    monkeypatch.setattr(recurrence, "build_F", no_work)
    monkeypatch.setattr(recurrence, "digit_enumerate", no_work)
    assert recurrence.DIGIT_ORACLE_LIMIT == 10 ** 9
    started = time.monotonic()
    code = main(["verify-f", "--n", str(n), "--dual-oracle"])
    assert time.monotonic() - started < 1
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"--dual-oracle refused at N = {n}" in err
    assert "above the digit oracle's 1000000000 cap" in err


def test_verify_f_dual_oracle_below_its_cap(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, _ = run(capsys, "verify-f", "--n", "10000000", "--depth", "3",
                  "--shifts", "1", "3", "--dual-oracle", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "0559a4e6a8f9542d87ed1485abb0b42590bca97d9a8e43a4de8a96702374312b"


def test_word_stats(tmp_path, capsys):
    from interpsets import words as W
    from fractions import Fraction
    path = tmp_path / "w.word"
    W.write_word_file(path, mechanical_word(Fraction(2, 5), 400))
    code, out = run(capsys, "word-stats", "--word", str(path), "--n-max", "10")
    assert code == 0


def test_word_stats_csv_file(tmp_path, capsys):
    from interpsets import words as W
    path = tmp_path / "w.word"
    W.write_word_file(path, mechanical_word(Fraction(2, 5), 400))
    code, out = run(capsys, "word-stats", "--word", str(path), "--n-max", "3")
    assert code == 0
    stdout_csv = out[:out.index("{")]
    csv = tmp_path / "p.csv"
    code, out = run(capsys, "word-stats", "--word", str(path), "--n-max", "3",
                    "--csv", str(csv))
    assert code == 0
    assert json.loads(out)["outputs"] == [str(csv)]
    assert csv.read_text() == stdout_csv
    # a Sturmian word has p(n) = n + 1
    assert csv.read_bytes() == (
        b"n,p,h_est\n"
        b"1,2,%.12f\n2,3,%.12f\n3,4,%.12f\n"
        % tuple(math.log(n + 1) / n for n in (1, 2, 3)))


def test_word_stats_overcount_fails_the_verdict(tmp_path, capsys, monkeypatch):
    # the profile check is a theorem on true counts, so only a wrong
    # factor_counts can fail it: p(3) = 4 + 5 breaks 2^3
    from interpsets import words as W
    path = tmp_path / "w.word"
    W.write_word_file(path, mechanical_word(Fraction(2, 5), 400))
    counts = W.factor_counts

    def overcount(w, n_max):
        p = counts(w, n_max)
        p[2] += 5
        return p

    monkeypatch.setattr(W, "factor_counts", overcount)
    code, out = run(capsys, "word-stats", "--word", str(path), "--n-max", "10")
    assert code == 1
    assert out.startswith("n,p,h_est\n1,2,") and "\n3,9," in out
    (verdict,) = json.loads(out[out.index("{"):])["verdicts"]
    assert verdict["name"] == "profile-invariants" and verdict["ok"] is False
    assert verdict["certificate"]["witness"]["violations"] == [
        "p(3) = 9 exceeds k^n"]


@pytest.mark.parametrize("m_args", [["--m-range", "3:9"],
                                    ["--m-range", "a:b:c"], [],
                                    ["--m-range", "5:1:1"],
                                    ["--m", "4", "--m-list", "5,6"],
                                    ["--m-list", "5,6", "--m-range", "1:3:1"]])
def test_count_m_option_malformed_or_missing_exit_2(capsys, m_args):
    code = main(["count", "--delta", "1/3", "--k", "2", *m_args])
    assert code == 2
    err = capsys.readouterr().err
    if m_args[1:] == ["5:1:1"]:     # well formed, but no m in the range
        assert "m-range 5:1:1 yields no m" in err
    elif len(m_args) > 2:           # two m options conflict
        assert "not allowed with argument" in err
    else:
        assert ("m-range must be LO:HI:STEP" if m_args
                else "pass --m, --m-list, or --m-range") in err


@pytest.mark.parametrize("m_args, message", [
    (["--m-range", "1:5:0"], "--m-range step must be >= 1, got 0"),
    (["--m-range", "5:1:-1"], "--m-range step must be >= 1, got -1"),
    (["--m-list", "3,x"], "--m-list must be integers separated by commas, got '3,x'"),
    (["--m-list", "3,,4"], "--m-list must be integers separated by commas, got '3,,4'"),
])
def test_count_m_values_error_names_the_flag(capsys, m_args, message):
    code = main(["count", "--delta", "1/3", "--k", "2", *m_args])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reproducibility_bytes(tmp_path, capsys):
    prob = tmp_path / "p.json"
    _write_problem(prob, "kind=powers base=2", 2, 4096, seed=5)
    snaps = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _ = run(capsys, "construct", "--kind", "minimal",
                      "--problem", str(prob), "--out-dir", str(out_dir),
                      "--levels", "1")
        assert code == 0
        snaps.append({p.name: p.read_bytes()
                      for p in sorted(out_dir.iterdir())})
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("argv", [
    ["analyze", "--set", "kind=ap a=3 b=0", "--n", "40", "--banach", "0"],
    ["analyze", "--set", "kind=ap a=3 b=0", "--n", "40", "--banach", "-3"],
    ["word-stats", "--word", "w.word", "--n-max", "0"],
    ["word-stats", "--word", "w.word", "--n-max", "-1"],
    ["analyze", "--set", "kind=ap a=3 b=0", "--n", "0", "--banach"],
    ["analyze", "--set", "kind=ap a=3 b=0", "--n", "-5", "--banach"],
    ["verify-f", "--n", "0"],
    ["verify-f", "--n", "-5"],
])
def test_non_positive_counts_exit_2(tmp_path, capsys, monkeypatch, argv):
    from interpsets import words as W
    monkeypatch.chdir(tmp_path)
    W.write_word_file("w.word", W.SymbolWord(2, (0, 1) * 20))
    assert main(argv) == 2
    assert "not a positive integer" in capsys.readouterr().err


def test_bare_banach_picks_half_the_window(capsys):
    code, out = run(capsys, "analyze", "--set", "kind=ap a=3 b=0",
                    "--n", "40", "--banach")
    assert code == 0
    assert len(json.loads(out)["results"]["banach"]["rows"]) == 20
    code, out = run(capsys, "analyze", "--set", "kind=ap a=3 b=0",
                    "--n", "1", "--banach")
    assert code == 0
    assert json.loads(out)["results"]["banach"]["rows"] == []


def test_every_verdict_is_a_certificate(tmp_path, capsys):
    from interpsets import words as W
    from interpsets.intsets import Certificate
    _write_problem(tmp_path / "pow.json", "kind=powers base=2", 2, 4096, seed=5)
    _write_problem(tmp_path / "small.json", "kind=powers base=2", 2, 100, seed=5)
    _write_problem(tmp_path / "evens.json", "kind=ap a=2 b=0", 2, 100, seed=1)
    _write_problem(tmp_path / "st.json", "kind=sturmian cf=0,2,2,2", 3, 2000,
                   seed=4)
    _write_problem(tmp_path / "cubes.json", "kind=explicit elements=" +
                   ",".join(str(i ** 3) for i in range(1, 13)), 2, 2000, seed=3)
    W.write_word_file(tmp_path / "w.word", mechanical_word(Fraction(2, 5), 400))

    def build(kind, problem, *extra):
        return ["construct", "--kind", kind, "--problem", str(tmp_path / problem),
                "--out-dir", str(tmp_path / kind), *extra]

    jobs = [
        (0, ["analyze", "--set", "kind=ap a=3 b=0", "--n", "300", "--syndetic",
             "3", "--thick", "1", "--pw-syndetic", "3", "10", "--gap-table", "2"]),
        (1, ["analyze", "--set", "kind=powers base=2", "--n", "100",
             "--syndetic", "10"]),
        (0, ["count", "--delta", "1/3", "--k", "2", "--m-range", "3:9:3"]),
        (0, ["count", "--delta", "1/3", "--k", "2", "--m-range", "3:9:3",
             "--oracle"]),
        (0, build("zero", "pow.json")),
        (0, build("sturmian", "st.json")),
        (0, build("mixing", "pow.json")),
        (1, build("mixing", "evens.json")),
        (0, build("minimal", "pow.json", "--levels", "1")),
        (1, build("minimal", "small.json", "--levels", "2")),
        (0, build("ergodic", "cubes.json", "--levels", "2")),
        (0, ["verify-f", "--n", "100000", "--shifts", "1", "2",
             "--dual-oracle"]),
        (0, ["word-stats", "--word", str(tmp_path / "w.word"), "--n-max", "10"]),
    ]
    for expected, argv in jobs:
        code, out = run(capsys, *argv)
        assert code == expected, argv
        verdicts = json.loads(out[out.index("{"):])["verdicts"]
        assert verdicts, argv
        for v in verdicts:
            cert = v["certificate"]
            assert v["name"] == cert["predicate"], argv
            assert v["ok"] == (cert["verdict"] == "holds-at-scale"), argv
            assert Certificate.from_json(cert).to_json() == cert, argv
        assert code == (0 if all(v["ok"] for v in verdicts) else 1), argv


def test_word_file_non_ascii_digit_exit_2(tmp_path, capsys):
    # U+0663 (ARABIC-INDIC DIGIT THREE) is a digit to int() but not ASCII
    path = tmp_path / "u.word"
    path.write_text("k=4\n01٣\n", encoding="utf-8")
    assert main(["word-stats", "--word", str(path), "--n-max", "1"]) == 2
    assert "symbol b'\\xd9' is not an ASCII decimal" in capsys.readouterr().err


@pytest.mark.parametrize("body, named", [
    ("01a0", "symbol b'a' is not an ASCII decimal"),
    ("01 0", "symbol b' ' is not an ASCII decimal"),
    ("0120", "symbols outside alphabet 2"),
])
def test_word_file_names_the_first_non_digit_byte_exit_2(tmp_path, capsys,
                                                          body, named):
    path = tmp_path / "d.word"
    path.write_text(f"k=2\n{body}\n", encoding="ascii")
    assert main(["word-stats", "--word", str(path), "--n-max", "1"]) == 2
    assert named in capsys.readouterr().err


def test_word_file_non_digit_token_exit_2(tmp_path, capsys):
    path = tmp_path / "t.word"
    path.write_text("k=40\n1_0,+3, 7\n", encoding="utf-8")
    assert main(["word-stats", "--word", str(path), "--n-max", "1"]) == 2
    assert "not an ASCII decimal" in capsys.readouterr().err


def _broken_plan_fault(tmp_path, capsys, kind, spec, n):
    """Run construct with a patched level plan; the fault it reports."""
    prob = tmp_path / "p.json"
    _write_problem(prob, spec, 2, n, seed=5)
    code = main(["construct", "--kind", kind, "--problem", str(prob),
                 "--out-dir", str(tmp_path / "o"), "--levels", "1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "level-window" not in out
    fault = json.loads(err)
    assert fault["type"] == "AssertionError"
    return fault


def test_construct_minimal_broken_plan_exit_3(tmp_path, capsys, monkeypatch):
    # a spacing bound one short of G_1 puts blocks too short for a free run
    # of G_1 into the plan; only the filler can see that
    real = construct.gap_syndeticity_table

    def short(model, n, gap_len):
        cert = real(model, n, gap_len)
        return dataclasses.replace(
            cert, witness={**cert.witness, "spacing_bound": gap_len - 1})

    monkeypatch.setattr(construct, "gap_syndeticity_table", short)
    fault = _broken_plan_fault(tmp_path, capsys, "minimal",
                               "kind=powers base=2", 4096)
    assert "has no free run of 24" in fault["message"]


def test_construct_ergodic_broken_plan_exit_3(tmp_path, capsys, monkeypatch):
    # a density scan that sees no point of S lets a block full of S
    # through; S is one clump, too small on average over [1, N] for the
    # tiling bound to rule the level length out before the scan
    monkeypatch.setattr(construct, "max_window_count",
                        lambda model, n, length: (0, 1))
    fault = _broken_plan_fault(tmp_path, capsys, "ergodic",
                               "kind=explicit elements=1,2,3,4,5,6", 500)
    assert "too crowded" in fault["message"]
