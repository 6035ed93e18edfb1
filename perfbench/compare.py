#!/usr/bin/env python3
"""Compare two sets of benchmark runs recorded with run.py --record.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and end-to-end metric present in both files it
prints the two medians and the change. When every run of both files
comes from one host fingerprint (nproc, CPU model, build type,
compiler), a metric whose NEW median is worse than BASE's by more than
its bound in BENCHMARK.json is a regression and the exit status is 1.
Runs from different hosts are flagged and not scored: the exit status
is 0 and no verdict is given.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: [(host, metrics)]} from a --record JSON-lines file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            entry = json.loads(line)
            rec, res = entry["record"], entry["result"]
            host = json.dumps(rec["host"], sort_keys=True)
            runs.setdefault(rec["workload"], []).append(
                (host, res["metrics"]))
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    hosts = {h for runs in (base, new) for rs in runs.values()
             for h, _ in rs}
    scored = len(hosts) == 1
    if not scored:
        print("cross-host comparison: runs come from %d host fingerprints; "
              "deltas are shown but not scored" % len(hosts))
    regressions = 0
    for wl in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = [ms[name]["value"] for _, ms in base[wl] if name in ms]
            n = [ms[name]["value"] for _, ms in new[wl] if name in ms]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if scored and worse > m["bound"]:
                verdict = "  REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                regressions += 1
            print("%-15s %-20s base %12.4f (n=%d)  new %12.4f (n=%d)  "
                  "%+6.1f%%%s" % (wl, name, mb, len(b), mn, len(n),
                                  100 * change, verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
