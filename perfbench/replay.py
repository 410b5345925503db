"""Replay every set certificate in an ``analyze --out`` report file.

    python perfbench/replay.py REPORT_JSON

Exits 0 when ``replay_certificate`` accepts every certificate, 1 when it
rejects one, printing the rejected predicates.  The harness runs this in
its own process, outside the timed region, so the replay's materialized
windows never share a cache or a peak RSS with a timed job.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    from interpsets.intsets import (Certificate, parse_set_spec,
                                    replay_certificate)

    with open(argv[0], encoding="utf-8") as fh:
        report = json.load(fh)
    model = parse_set_spec(report["set"])
    rejected = [v["name"] for v in report["verdicts"] if "certificate" in v
                and not replay_certificate(
                    model, Certificate.from_json(v["certificate"]))]
    if rejected:
        print(f"replay rejected: {rejected}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
