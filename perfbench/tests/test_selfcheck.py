"""Self-check of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    _record, result = run.run(workload, seed=3, seconds=0.1, trace=trace,
                              tiny=True)
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in listed})
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    jobs = len(workloads.build(workload, 3, tiny=True).jobs)
    assert result["attempted"] >= 2 * jobs


def _rounds(runner, count, before_check=None):
    runner.prepare()
    try:
        for _ in range(count):
            rnd = runner.run_round(traced=False)
            if before_check is not None:
                before_check(rnd)
            runner.check_round(rnd)
    finally:
        runner.cleanup()


def test_corrupted_output_file_is_a_failed_job():
    runner = run.Runner("exhaustive-profile", 3, tiny=True)

    def corrupt_second_count(rnd):
        if len(runner.rounds) == 2:
            res = next(r for r in rnd.jobs
                       if r.job.name == "exhaustive-count")
            with open(os.path.join(res.out_dir, "counts.csv"), "a",
                      encoding="utf-8") as fh:
                fh.write("0\n")

    _rounds(runner, 2, corrupt_second_count)
    assert runner.failures == [
        ("r1/exhaustive-count", "output bytes differ from the first run")]
    assert runner.failed == 1 and runner.attempted == 15


def test_output_differing_from_recorded_digest_is_a_failed_job():
    runner = run.Runner("exhaustive-profile", 3, tiny=True)
    runner.recorded = {"exhaustive-count": {"counts.csv": "0" * 64}}
    _rounds(runner, 1)
    assert runner.failures == [("r0/exhaustive-count",
                                "output bytes differ from the recorded digests")]


def test_wrong_expected_exit_code_is_a_failed_job():
    runner = run.Runner("windows-build", 3, tiny=True)
    union = next(j for j in runner.workload.jobs
                 if j.name == "windows-union")
    union.exit = 1
    _rounds(runner, 1)
    assert runner.failures == [("r0/windows-union", "exit 0, expected 1")]
    assert runner.failed == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "windows-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
