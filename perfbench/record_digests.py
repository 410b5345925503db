"""Record the output digests that the default seed must reproduce.

    python3 perfbench/record_digests.py

Runs the prep jobs and one round of every workload at the default seed
and writes the SHA-256 of every output file to digests.json.  Run it only
on a commit whose outputs are known good; a later commit must reproduce
these bytes (output files are byte-identical across versions unless a
change says otherwise).
"""

from __future__ import annotations

import json
import os

import run
import workloads


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    run.probe()
    recorded = {}
    for name in workloads.NAMES:
        runner = run.Runner(name, run.DEFAULT_SEED)
        runner.recorded = {}
        try:
            runner.prepare()
            runner.check_round(runner.run_round(traced=False))
        finally:
            runner.cleanup()
        if runner.failures:
            raise SystemExit(f"{name}: {runner.failures}")
        recorded[name] = runner.first
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": recorded}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
