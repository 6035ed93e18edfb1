#!/usr/bin/env python3
"""Smoke test of the request-path benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly in a seeded shuffled order, once with
--trace 0 at the default seed (reports checked against the committed
digests) and once with --trace 1 at another seed (reports checked
against the phase-by-phase pipeline). Each run must exit 0, report
correct with no failures, print a `record` line with the host
fingerprint, and print every metric BENCHMARK.json names for its mode
exactly once, with its unit, and no other metric. Exit status 0 iff
all checks pass.
"""

import json
import os
import random
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import run  # noqa: E402  (WORKLOADS, DEFAULT_SEED, RUN_TIMEOUT_S)

HOST_KEYS = {"nproc", "cpu_model", "build_type", "compiler"}


def check_run(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S * 2)
    lines = r.stdout.splitlines()
    errors = []
    if r.returncode != 0:
        errors.append(f"exit status {r.returncode}")
    if len(lines) < 2:
        return errors + ["no result printed"]
    last = lines[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("digest gate or a request failed")
    if result.get("attempted", 0) < 1:
        errors.append("nothing attempted")
    if not lines[-2].startswith("record "):
        errors.append("no record line")
    else:
        record = json.loads(lines[-2][len("record "):])
        if set(record.get("host", {})) != HOST_KEYS or "commit" not in record:
            errors.append("record lacks the host fingerprint or commit")
        if record.get("seed") != seed:
            errors.append("record names the wrong seed")

    want = bench["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in want:
        n = len(re.findall(r'"%s": \{' % re.escape(m["name"]), last))
        if n != 1:
            errors.append(f"{m['name']} printed {n} times")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{m['name']} unit {got[m['name']]['unit']!r}, "
                          f"BENCHMARK.json says {m['unit']!r}")
    extra = set(got) - {m["name"] for m in want}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    order = run.WORKLOADS[:]
    random.Random(run.DEFAULT_SEED).shuffle(order)
    failures = 0
    for workload in order:
        for seed, trace in ((run.DEFAULT_SEED, 0), (run.DEFAULT_SEED + 1, 1)):
            errors = check_run(bench, workload, seed, trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload} seed {seed} trace {trace}: {status}",
                  flush=True)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
