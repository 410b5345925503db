"""Answers read from one period equal the answers of the whole window.

Every query on a set with a periodic or finite descriptor runs at a
reduced scale (periodic.answer).  The reference below runs the
same query on IntegerSetModel.explicit_window(window(model, N), N), an
explicit set with a bound, which has no descriptor and so scans all of
[1, N].
"""

import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from interpsets import intsets as S
from interpsets import periodic as P
from interpsets.cli import main
from oracles import continued_fraction

EXPL = S.IntegerSetModel.explicit_window


aps = st.integers(1, 12).flatmap(
    lambda a: st.integers(0, a - 1).map(lambda b: f"kind=ap a={a} b={b}"))
sturmians = st.integers(1, 50).flatmap(
    lambda q: st.integers(1, q).map(lambda p: "kind=sturmian cf=" + ",".join(
        str(a) for a in continued_fraction(Fraction(p, q)))))
explicits = st.sets(st.integers(1, 60), max_size=12).map(
    lambda ms: "kind=explicit elements=" + ",".join(str(x) for x in sorted(ms)))
sums = st.sets(st.integers(1, 30), min_size=1, max_size=4).map(
    lambda gs: "kind=sums gens=" + ",".join(str(g) for g in sorted(gs)))
atoms = st.one_of(aps, sturmians, explicits, sums)
specs = st.one_of(
    atoms,
    st.lists(atoms, min_size=2, max_size=3).map(
        lambda parts: "kind=union of=" + "".join(f"({p})" for p in parts)),
    st.tuples(st.integers(-20, 40), atoms).map(
        lambda tp: f"kind=shift t={tp[0]} of=({tp[1]})"))
scales = st.one_of(st.integers(1, 400), st.integers(1, 10 ** 5))


def answers(model, n, g, run_len, gap_len, n_max):
    """Every query analyze can make, as JSON-ready values."""
    out = {"gaps": S.gap_histogram(model, n),
           "thick": S.thick_certificate(model, n, run_len).to_json(),
           "gap-table": S.gap_syndeticity_table(model, n, gap_len).to_json()}
    if n >= g:
        out["syndetic"] = S.syndetic_certificate(model, n, g).to_json()
    if n >= run_len >= g:
        out["pw"] = S.piecewise_syndetic_certificate(model, n, g, run_len).to_json()
    out["banach"] = [(r.length, r.count, r.start, str(r.value)) for r in
                     S.banach_density_profile(model, n, min(n_max, n // 2)).rows]
    return json.loads(json.dumps(out))


def window_path(model, n, *lengths):
    return answers(EXPL(S.window(model, n), n), n, *lengths)


@given(specs, scales, st.integers(1, 12), st.integers(1, 40),
       st.integers(1, 12), st.integers(1, 16))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_one_period_matches_the_window(spec, n, g, run_len, gap_len, n_max):
    model = S.parse_set_spec(spec)
    assert model.descriptor()[1] is not None
    assert answers(model, n, g, run_len, gap_len, n_max) == \
        window_path(model, n, g, run_len, gap_len, n_max)


@given(st.one_of(specs, st.integers(2, 5).map(lambda b: f"kind=powers base={b}"),
                 specs.map(lambda spec: f"kind=union of=({spec})(kind=powers base=3)")),
       st.integers(1, 3000))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_size_bound_holds_and_is_exact_on_atoms(spec, n):
    model = S.parse_set_spec(spec)
    size = S.window(model, n).size
    assert P.size_bound(model, n) >= size
    if spec.split()[0] in ("kind=ap", "kind=sturmian", "kind=powers"):
        assert P.size_bound(model, n) == size


def test_widest_stretch_needs_two_preperiods():
    # [1, 100] then every other integer from 107: the gap table's last
    # stretch outgrows the first one, [1, 100], only once n passes 2 p0
    spec = ("kind=union of=(kind=explicit elements="
            + ",".join(str(x) for x in range(1, 101))
            + ")(kind=shift t=105 of=(kind=ap a=2 b=0))")
    model = S.parse_set_spec(spec)
    assert model.descriptor() == ("periodic", 105, 2)
    for n in (300, 1001, 5000):
        got = S.gap_syndeticity_table(model, n, 5)
        assert got == S.gap_syndeticity_table(EXPL(S.window(model, n), n), n, 5)
        assert got.witness["spacing_bound"] == n - 101


SEEDED = [("kind=ap a=3 b=0", 1000), ("kind=ap a=5 b=2", 777),
          ("kind=sturmian cf=0,2,3", 5000),
          ("kind=union of=(kind=ap a=4 b=1)(kind=sturmian cf=0,3)", 2000),
          ("kind=shift t=7 of=(kind=ap a=6 b=5)", 3000)]


def test_a_wrong_period_changes_an_answer(monkeypatch):
    descriptor = S.IntegerSetModel.descriptor

    def off_by_one(self):
        kind, p0, period = descriptor(self)
        return kind, p0, period + 1

    differ = 0
    for spec, n in SEEDED:
        model = S.parse_set_spec(spec)
        want = window_path(model, n, 3, 8, 2, 16)
        with monkeypatch.context() as mp:
            mp.setattr(S.IntegerSetModel, "descriptor", off_by_one)
            try:
                differ += answers(S.parse_set_spec(spec), n, 3, 8, 2, 16) != want
            except AssertionError:      # a field that moved across a period
                differ += 1
    assert differ >= 1


def test_descriptors():
    cases = {
        "kind=ap a=3 b=1": ("periodic", 0, 3),
        "kind=sturmian cf=0,2,2,2,2,2,2,2,2,2": ("periodic", 0, 2378),
        "kind=sturmian cf=1": ("periodic", 0, 1),
        "kind=explicit elements=3,9": ("finite", 9, 1),
        "kind=explicit elements=": ("finite", 0, 1),
        "kind=sums gens=1,2,4": ("finite", 7, 1),
        "kind=union of=(kind=ap a=4 b=0)(kind=ap a=6 b=1)(kind=sums gens=9)":
            ("periodic", 9, 12),
        "kind=shift t=-5 of=(kind=sums gens=3,4)": ("finite", 2, 1),
        "kind=shift t=5 of=(kind=ap a=2 b=0)": ("periodic", 5, 2),
        "kind=powers base=2": ("lacunary", None, None),
        "kind=union of=(kind=powers base=3)(kind=explicit elements=2)":
            ("lacunary", None, None),
        "kind=union of=(kind=powers base=3)(kind=ap a=2 b=0)":
            ("none", None, None),
        "kind=explicit elements=3,9 bound=20": ("none", None, None),
    }
    for spec, want in cases.items():
        assert S.parse_set_spec(spec).descriptor() == want, spec


AT_1E12 = ["--banach", "64", "--syndetic", "3", "--thick", "2"]


@pytest.mark.parametrize("spec", ["kind=ap a=3 b=0",
                                  "kind=sturmian cf=0,2,2,2,2,2,2,2,2,2"])
def test_analyze_at_1e12_in_bounded_memory(capsys, spec):
    tracemalloc.start()
    try:
        started = time.monotonic()
        code = main(["analyze", "--set", spec, "--n", str(10 ** 12), *AT_1E12])
        elapsed = time.monotonic() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and [v["name"] for v in rep["verdicts"]] == \
        ["syndetic", "thick"]
    assert len(rep["results"]["banach"]["rows"]) == 64
    assert peak < 50 * 2 ** 20 and elapsed < 10, (peak, elapsed)


def test_every_certificate_replays_at_1e12():
    model, n = S.IntegerSetModel.arithmetic_progression(3, 0), 10 ** 12
    certs = [S.syndetic_certificate(model, n, 3), S.syndetic_certificate(model, n, 2),
             S.thick_certificate(model, n, 1), S.thick_certificate(model, n, 2),
             S.gap_syndeticity_table(model, n, 2), S.gap_syndeticity_table(model, n, 3),
             S.piecewise_syndetic_certificate(model, n, 3, 12),
             S.piecewise_syndetic_certificate(model, n, 2, 12)]
    assert [c.holds for c in certs] == [True, False] * 4
    assert certs[4].witness["gap_start_count"] == (n - 2) // 3 + 1
    finite = EXPL([1, 2])
    tail = S.syndetic_certificate(finite, n, 3)
    assert tail.witness == {"gap": [2, n + 1], "length": n - 1,
                            "kind": "pending-tail"}
    tracemalloc.start()
    try:
        assert all(S.replay_certificate(model, c) for c in certs)
        assert S.replay_certificate(finite, tail)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
