#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload colo-fig17 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which pulls in the library from the
source tree) in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls only rebuild what changed. It
then runs the harness, passes its report through, checks that the last
line is a well-formed result whose metrics are exactly the ones
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1), and prints that line last. Any failure exits non-zero
without printing a result. --trace 1 also writes the traced pass's spans
to <build dir>/spans/<workload>-seed<seed>.json. --workload all runs every
workload of BENCHMARK.json in turn and ends with one result line each.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "sgdrc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(key + " is not a whole number")
    if result["attempted"] < 1:
        fail("no cell was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (name, m.get("unit"), want[name]))
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def run_one(bdir, workload, args):
    """Runs the harness; returns (report lines, validated result line)."""
    cmd = [os.path.join(bdir, "sgdrc_perfbench"), "--workload", workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%s.json" % (workload, seed))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sgdrc_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("sgdrc_perfbench exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    report = lines[:-1] + ["perfbench: %s run took %.1f s"
                           % (workload, time.monotonic() - start)]
    return report, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    if args.workload != "all":
        report, result = run_one(bdir, args.workload, args)
        print("\n".join(report))
        print(result)
        return
    # Every workload in turn, one process each; their result lines last.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = []
    for w in workloads:
        report, result = run_one(bdir, w, args)
        print("==== %s ====" % w)
        print("\n".join(report))
        results.append((w, result))
    for w, result in results:
        print("%s: %s" % (w, result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
