"""Benchmark of the interpsets CLI: four fixed workloads of CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is a fresh
``python -m interpsets.cli`` child with ``PYTHONPATH=src``, started one
after another from this one process: a closed loop with one client.  A
run repeats rounds of its workload's jobs until about S seconds have
passed (at least two rounds), checks every job's outcome, and prints a
run record and, as the last line, the result object.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the run's rounds).  With ``--trace 1`` untraced and traced rounds
alternate, the traced jobs run under ``tracer.py``, and the result holds
the per-layer metrics of the traced rounds.  NOTES.md explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
JOB_CPU_LIMIT_S = 60          # a job past this much CPU time is killed
SETUP_PER_ROUND = 2
PROBE = ("import json, sys, numpy, interpsets.cli; "
         "print(json.dumps({'numpy': numpy.__version__, "
         "'cli': interpsets.cli.__file__}))")


@dataclass
class JobResult:
    job: workloads.Job
    key: str                      # "<round>/<job>" or "prep/<job>"
    out_dir: str
    stdout: str                   # path of the captured stdout
    exit: int
    started: float                # CLOCK_MONOTONIC at spawn
    wall_s: float
    rss_mb: float
    spans: str | None = None      # path of the span file of a traced job

    @property
    def slot(self) -> str:
        """The job's identity across rounds: "prep/<job>" or "<job>"."""
        return self.key if self.key.startswith("prep/") else self.job.name


@dataclass
class Round:
    traced: bool
    jobs: list

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.jobs)


def _limit_cpu():
    _soft, hard = resource.getrlimit(resource.RLIMIT_CPU)
    cap = JOB_CPU_LIMIT_S if hard == resource.RLIM_INFINITY else min(
        JOB_CPU_LIMIT_S, hard)
    resource.setrlimit(resource.RLIMIT_CPU, (cap, hard))


def spawn(argv, stdout_path=None, stderr_path=None):
    """Run argv to completion; (exit code, start time, wall seconds,
    ru_maxrss in MB).  The start time is on tracer.now()'s clock."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(stdout_path or os.devnull, "wb") as out, \
            open(stderr_path or os.devnull, "wb") as err:
        start = tracer.now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env, preexec_fn=_limit_cpu)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = tracer.now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss / 1024


def digest_dir(path) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    """Runs one workload's rounds in its own work directory and checks
    every job against its expected exit code, verdicts and output bytes."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.workload = workloads.build(name, seed, tiny)
        self.work = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.in_dir = os.path.join(self.work, "in")
        recorded = {}
        if seed == DEFAULT_SEED and not tiny:
            with open(DIGESTS, encoding="utf-8") as fh:
                recorded = json.load(fh)["workloads"].get(name, {})
        self.recorded = recorded      # slot -> {file: sha256}
        self.first = {}               # slot -> digests of its first run
        self.rounds = []
        self.attempted = 0
        self.failures = []            # (key, reason)

    def prepare(self) -> None:
        """Write the generated inputs and run the untimed prep jobs."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.in_dir)
        for fname, text in self.workload.inputs.items():
            with open(os.path.join(self.in_dir, fname), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for job in self.workload.prep:
            res = self._run_job(job, f"prep/{job.name}", self.in_dir, False)
            self.check(res)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run_round(self, traced: bool) -> Round:
        base = os.path.join(self.work, f"r{len(self.rounds)}")
        os.makedirs(base)
        rnd = Round(traced, [
            self._run_job(job, f"r{len(self.rounds)}/{job.name}", base, traced)
            for job in self.workload.jobs])
        self.rounds.append(rnd)
        return rnd

    def _run_job(self, job, key, base, traced) -> JobResult:
        out_dir = os.path.join(base, job.name)
        os.makedirs(out_dir)
        args = [a.replace("{in}", self.in_dir).replace("{out}", out_dir)
                for a in job.args]
        log = os.path.join(base, f"{job.name}.")
        spans = None
        if traced:
            spans = log + "spans.json"
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                    f"{self.workload.name}/{key}"] + args
        else:
            argv = [sys.executable, "-m", "interpsets.cli"] + args
        code, start, wall, rss = spawn(argv, log + "stdout", log + "stderr")
        self.attempted += 1
        return JobResult(job, key, out_dir, log + "stdout", code, start, wall,
                         rss, spans)

    def check(self, res: JobResult) -> None:
        """Record in `failures` what is wrong with one job's outcome."""
        job, errors = res.job, []
        if res.exit != job.exit:
            errors.append(f"exit {res.exit}, expected {job.exit}")
        try:
            with open(res.stdout, encoding="utf-8") as fh:
                report = json.load(fh)
            verdicts = [(v["name"], v["ok"]) for v in report["verdicts"]]
        except (ValueError, KeyError, TypeError):
            errors.append("stdout holds no report")
        else:
            if verdicts != job.verdicts:
                errors.append(f"verdicts {verdicts}, expected {job.verdicts}")
        digests = digest_dir(res.out_dir)
        if bool(digests) != job.outputs:
            errors.append("output files missing" if job.outputs
                          else "unexpected output files")
        if res.slot in self.first:
            if digests != self.first[res.slot]:
                errors.append("output bytes differ from the first run")
        else:
            self.first[res.slot] = digests
            errors += self._first_run_checks(res, digests)
        if job.check is not None and not errors:
            problem = job.check(res.out_dir)
            if problem:
                errors.append(problem)
        self.failures += [(res.key, e) for e in errors]

    def _first_run_checks(self, res, digests) -> list:
        """Checks that need to run once per job: recorded digests and replay."""
        errors = []
        if res.slot in self.recorded and digests != self.recorded[res.slot]:
            errors.append("output bytes differ from the recorded digests")
        if res.job.replay:
            report = os.path.join(res.out_dir, "report.json")
            code, _, _, _ = spawn(
                [sys.executable, os.path.join(HERE, "replay.py"), report])
            if code != 0:
                errors.append("a certificate failed replay")
        return errors

    def check_round(self, rnd: Round) -> None:
        for res in rnd.jobs:
            self.check(res)

    @property
    def failed(self) -> int:
        return len({key for key, _ in self.failures})


# -- metrics -------------------------------------------------------------------

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def trace_round(rnd: Round) -> dict:
    """Per-layer totals over the jobs of one traced round."""
    agg = {"self": {}, "calls": {}, "work": {}, "memo": 0, "spans": 0,
           "out_bytes": 0, "wall": rnd.wall_s}
    for res in rnd.jobs:
        if not os.path.exists(res.spans):
            continue              # killed before writing; counted as failed
        with open(res.spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        # interpreter start before the tracer's first line, and exit after
        # the span file was written
        start_gap = spans[0]["start"] - res.started
        exit_gap = res.started + res.wall_s - doc["end"]
        agg["self"]["process"] = (agg["self"].get("process", 0.0)
                                  + start_gap + exit_gap)
        memo = 0
        for span, own in zip(spans, self_times(spans)):
            layer = tracer.layer_of(span["name"])
            agg["self"][layer] = agg["self"].get(layer, 0.0) + own
            agg["calls"][layer] = agg["calls"].get(layer, 0) + 1
            agg["work"][layer] = agg["work"].get(layer, 0) + span["count"]
            if layer == "construct.member":
                memo = max(memo, span["count"])
        agg["memo"] += memo
        agg["spans"] += len(spans)
        agg["out_bytes"] += sum(
            os.path.getsize(os.path.join(res.out_dir, f))
            for f in os.listdir(res.out_dir))
    return agg


def _self(layer):
    return lambda a: a["self"].get(layer, 0.0)


def _calls(layer):
    return lambda a: a["calls"].get(layer, 0)


def _work(layer):
    return lambda a: a["work"].get(layer, 0)


# name -> (unit, value from one traced round's totals)
PER_LAYER = {
    "intsets.banach.self_s": ("s", _self("intsets.banach")),
    "intsets.banach.lengths": ("count", _work("intsets.banach")),
    "intsets.elements.self_s": ("s", _self("intsets.elements")),
    "intsets.elements.calls": ("count", _calls("intsets.elements")),
    "intsets.elements.members": ("count", _work("intsets.elements")),
    "intsets.certify.self_s": ("s", _self("intsets.certify")),
    "intsets.io.self_s": ("s", _self("intsets.io")),
    "intsets.other.self_s": ("s", _self("intsets.other")),
    "words.profile.self_s": ("s", _self("words.profile")),
    "words.profile.positions": ("count", _work("words.profile")),
    "words.factor_count.self_s": ("s", _self("words.factor_count")),
    "words.factor_count.calls": ("count", _calls("words.factor_count")),
    "words.factor_count.positions": ("count", _work("words.factor_count")),
    "words.io.self_s": ("s", _self("words.io")),
    "words.io.symbols": ("count", _work("words.io")),
    "words.new.self_s": ("s", _self("words.new")),
    "words.new.symbols": ("count", _work("words.new")),
    "words.other.self_s": ("s", _self("words.other")),
    "construct.member.self_s": ("s", _self("construct.member")),
    "construct.member.calls": ("count", _calls("construct.member")),
    "construct.member.memo_entries": ("count", lambda a: a["memo"]),
    "construct.build.self_s": ("s", _self("construct.build")),
    "construct.verify.self_s": ("s", _self("construct.verify")),
    "counting.oracle.self_s": ("s", _self("counting.oracle")),
    "counting.oracle.calls": ("count", _calls("counting.oracle")),
    "counting.closed_form.self_s": ("s", _self("counting.closed_form")),
    "recurrence.digit_oracle.self_s": ("s", _self("recurrence.digit_oracle")),
    "recurrence.build.self_s": ("s", _self("recurrence.build")),
    "recurrence.build.members": ("count", _work("recurrence.build")),
    "recurrence.sum_free.self_s": ("s", _self("recurrence.sum_free")),
    "recurrence.sum_free.pairs": ("count", _work("recurrence.sum_free")),
    "recurrence.shift_ip.self_s": ("s", _self("recurrence.shift_ip")),
    "cli.self_s": ("s", _self("cli")),
    "cli.out_bytes": ("count", lambda a: a["out_bytes"]),
    "import.self_s": ("s", _self("import")),
    "process.self_s": ("s", _self("process")),
    "trace.spans": ("count", lambda a: a["spans"]),
}
NAMED_LAYERS = sorted({name[:-len(".self_s")] for name in PER_LAYER
                       if name.endswith(".self_s")})


def median_wall(rounds) -> float:
    """The sum over jobs of each job's median wall time across `rounds`:
    one pass over the workload, robust to a slow spell in any one round."""
    walls = {}
    for rnd in rounds:
        for res in rnd.jobs:
            walls.setdefault(res.job.name, []).append(res.wall_s)
    return sum(statistics.median(w) for w in walls.values())


def end_to_end_metrics(rounds, setup) -> dict:
    values = {
        "wall_s": median_wall(rounds),
        "peak_rss_mb": max(res.rss_mb for r in rounds for res in r.jobs),
        "setup_s": statistics.median(setup),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(rounds, traced) -> dict:
    """Medians over `traced`, the traced rounds' totals; the overhead
    compares the traced and untraced rounds of `rounds`."""
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        # counts repeat exactly, so median_low keeps them whole numbers
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = {"value": median(fn(a) for a in traced), "unit": unit}
    traced_wall = median_wall([r for r in rounds if r.traced])
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead"] = {
        "value": traced_wall / median_wall([r for r in rounds if not r.traced]),
        "unit": "ratio"}
    out["trace.coverage"] = {
        "value": statistics.median(
            sum(a["self"].get(layer, 0.0) for layer in NAMED_LAYERS) / a["wall"]
            for a in traced),
        "unit": "ratio"}
    return out


def library_shares(traced) -> dict:
    """Share of library self time per module, median over traced rounds."""
    shares = {}
    for agg in traced:
        lib = {}
        for layer, own in agg["self"].items():
            module = layer.split(".", 1)[0]
            if module not in ("cli", "process", tracer.IMPORT_SPAN):
                lib[module] = lib.get(module, 0.0) + own
        total = sum(lib.values()) or 1.0
        for module, own in lib.items():
            shares.setdefault(module, []).append(own / total)
    return {m: round(statistics.median(v), 4) for m, v in shares.items()}


# -- run record ----------------------------------------------------------------


def host_ref_s() -> float:
    """A fixed pure-Python loop; a diagnostic of host speed, never a divisor."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return time.perf_counter() - start


def git_revision():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def probe() -> dict:
    """Import the CLI once in a child: warms the bytecode cache, and checks
    that the package comes from this checkout's src/."""
    out = os.path.join(WORK, f"probe-{os.getpid()}.json")
    code, _, _, _ = spawn([sys.executable, "-c", PROBE], out)
    try:
        with open(out, encoding="utf-8") as fh:
            info = json.load(fh) if code == 0 else None
    finally:
        os.unlink(out)
    if info is None or not os.path.abspath(info["cli"]).startswith(SRC + os.sep):
        raise SystemExit(f"interpsets.cli does not import from {SRC}")
    return info


def setup_sample() -> float:
    code, _, wall, _ = spawn([sys.executable, "-c", "import interpsets.cli"])
    if code != 0:
        raise SystemExit("importing interpsets.cli failed")
    return wall


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (run record, result object)."""
    os.makedirs(WORK, exist_ok=True)
    info = probe()
    ref_before = host_ref_s()
    runner = Runner(name, seed, tiny)
    setup = []
    try:
        runner.prepare()
        if not trace:
            setup = [setup_sample() for _ in range(3)]
        start = time.perf_counter()
        while True:
            rnd = runner.run_round(traced=trace and len(runner.rounds) % 2 == 1)
            runner.check_round(rnd)
            if not trace:
                setup += [setup_sample() for _ in range(SETUP_PER_ROUND)]
            done = len(runner.rounds)
            elapsed = time.perf_counter() - start
            if done >= 2 and elapsed * (done + 1) / done > seconds:
                break
        if trace:
            traced = [trace_round(r) for r in runner.rounds if r.traced]
            metrics = per_layer_metrics(runner.rounds, traced)
            shares = library_shares(traced)
        else:
            metrics = end_to_end_metrics(runner.rounds, setup)
    finally:
        runner.cleanup()
    jobs = {}
    for rnd in runner.rounds:
        for res in rnd.jobs:
            j = jobs.setdefault(res.job.name, {"wall_s": [], "rss_mb": []})
            j["wall_s"].append(round(res.wall_s, 4))
            j["rss_mb"].append(round(res.rss_mb, 1))
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
        "rounds": len(runner.rounds),
        "traced_rounds": sum(r.traced for r in runner.rounds),
        "setup_samples": len(setup),
        "git_revision": git_revision(), "src_lines": src_lines(),
        "python": platform.python_version(), "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "host.ref_s": [round(ref_before, 4), round(host_ref_s(), 4)],
        "jobs": jobs,
        "failures": runner.failures,
    }
    if trace:
        record["library_share"] = shares
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "interpsets", "cli.py")):
        print(f"error: no interpsets sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
