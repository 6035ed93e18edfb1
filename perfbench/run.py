#!/usr/bin/env python3
"""Request-path benchmark: build the benchmark binary from this checkout
and run one workload (or all of them).

    python3 perfbench/run.py --workload cloud-services --seed 1 \\
        --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it is `record {...}`: seed, request count, git commit and host
fingerprint. The exit status is 0 only if every report passed the
digest gate.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, and so do the run's scratch files (WAL directories,
trace exports).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["spec-compute", "cloud-services", "lossy-durable"]
# The seed whose report digests are committed in digests.json.
DEFAULT_SEED = 1
# Cold set-ups per --trace 0 run (the measured run's own is one of them).
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the benchmark; returns the binary path
    or None. Build output goes to stderr so stdout stays the result."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j4", "--target",
                  "exist_perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "exist_perfbench")


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def committed_digests(workload):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload)


def run_binary(binary, args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(args))
        return 1, []
    sys.stderr.write(r.stderr)
    return r.returncode, r.stdout.splitlines()


def run_workload(binary, workload, seed, seconds, trace, trace_out=None):
    """One measured run. Returns (exit code, record dict, result dict);
    result is None when the binary printed none."""
    work = os.path.join(build_dir(), "work")
    common = ["--workload", workload, "--seed", str(seed),
              "--work-dir", work]
    args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    digests = committed_digests(workload) if seed == DEFAULT_SEED else None
    if digests:
        args += ["--expect-digests", ",".join(digests)]
    if trace_out:
        args += ["--trace-out", trace_out]

    setups = []
    if not trace:
        # Cold set-up is timed apart from the warm window, in fresh
        # processes, and reported as the median.
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(binary, common + ["--setup-only"])
            if code != 0 or not lines:
                return 1, None, None
            setups.append(json.loads(lines[-1])["setup_s"])

    code, lines = run_binary(binary, args)
    if len(lines) < 2 or not lines[-2].startswith("record "):
        return code or 1, None, None
    for line in lines[:-2]:
        print(line)
    record = json.loads(lines[-2][len("record "):])
    result = json.loads(lines[-1])
    record["commit"] = git_commit()
    if not trace:
        m = result["metrics"]["setup_s"]
        setups.append(m["value"])
        m["value"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    return code, record, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-out",
                    help="Chrome trace-event JSON of the traced pass "
                         "(--trace 1; one workload)")
    ap.add_argument("--record",
                    help="append {record, result} per workload to this "
                         "JSON-lines file (input of compare.py)")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1

    if a.workload == "all":
        # Order control: a seeded shuffle, so no workload always runs
        # first (or on the coldest host).
        order = WORKLOADS[:]
        random.Random(a.seed).shuffle(order)
    else:
        order = [a.workload]

    results = {}
    status = 0
    for wl in order:
        code, record, result = run_workload(
            binary, wl, a.seed, a.seconds, a.trace,
            a.trace_out if a.workload != "all" else None)
        if result is None:
            log(f"{wl}: no result")
            return 1
        status = status or code
        print("record " + json.dumps(record, sort_keys=True))
        if a.record:
            with open(a.record, "a") as f:
                f.write(json.dumps({"record": record, "result": result},
                                   sort_keys=True) + "\n")
        results[wl] = result
        if len(order) > 1:
            print(f"{wl} " + json.dumps(result))

    if len(order) == 1:
        final = results[order[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}/{k}": v for wl, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
