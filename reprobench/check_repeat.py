"""Check that runs of one commit repeat exactly where they must.

Reads every record under ``reprobench/results/`` (or the directory given
as the first argument), groups them by workload and seed, and reports any
group whose per-input digests, output packet count, exact profiler
counters or quality metrics differ between runs.  Exit code 1 on a
difference; for a single commit that is a benchmark bug.

    python3 reprobench/check_repeat.py [results-dir]
"""

from __future__ import annotations

import glob
import json
import os
import sys

QUALITY = ("congestion", "stretch_mean", "sim_latency_p99_steps", "slo_attainment")


def fingerprint_of(record: dict) -> dict:
    """The parts of a record that are a pure function of (commit, workload, seed)."""
    out = {"digests": record["digests"], "output_packets": record["output_packets"]}
    if record["trace"]:
        out["counters"] = record["counters"]
    else:
        out["quality"] = {k: record["metrics"][k] for k in QUALITY}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    results = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    groups: dict[tuple, list] = {}
    for path in sorted(glob.glob(os.path.join(results, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        key = (record["workload"], record["seed"], record["trace"])
        groups.setdefault(key, []).append((os.path.basename(path), fingerprint_of(record)))
    bad = 0
    for key, members in sorted(groups.items()):
        first_name, first = members[0]
        for name, other in members[1:]:
            for field in first:
                if first[field] != other[field]:
                    bad += 1
                    print(f"DIFF {key} {field}: {first_name} vs {name}")
        print(f"{key}: {len(members)} run(s) compared")
    # digests of one workload and seed must also agree across trace modes
    for (workload, seed, trace), members in groups.items():
        if trace == 1 and (workload, seed, 0) in groups:
            if members[0][1]["digests"] != groups[(workload, seed, 0)][0][1]["digests"]:
                bad += 1
                print(f"DIFF ({workload}, {seed}) digests: traced vs untraced")
    print("repeat check:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
