#!/usr/bin/env python3
"""Same-host A/B of two checkouts on perfbench, in alternating pairs.

    git clone -q . ../base && git -C ../base checkout -q <base-commit>
    python3 tools/perfbench_ab.py ../base . --workload colo-fig17 \\
        --pairs 10 --seconds 15

Each pair runs `python3 perfbench/run.py --workload <w> --seconds <s>`
once in each checkout (each builds its own perfbench on first use), and
the pairs alternate which side runs first, so a slow period of a shared
host lands on both sides alike. For every end-to-end metric the report
gives each side's median and interquartile range, the ratio of medians,
the pairs the head won and tied, and whether the gain is shown: the head
won at least nine pairs in ten and its median beats the base's by more
than the base's interquartile range. Directions come from the head's
BENCHMARK.json. Every run of a workload, on either side, must print the
same `workload digest`; the tool exits 1 when they differ (the change
moved simulated behaviour, so its timings compare different work) or
when a run fails, and 0 otherwise, whatever the timings say. Stdlib
only. docs/performance.md has the measuring protocol.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST_RE = re.compile(r"^workload digest\s+([0-9a-f]+)\b")
SIDES = ("base", "head")


class RunError(Exception):
    pass


def parse_run(text):
    """Returns (workload digest, {metric: value}) of one run.py report."""
    lines = text.rstrip("\n").split("\n")
    digests = [m.group(1) for m in map(DIGEST_RE.match, lines) if m]
    if len(digests) != 1:
        raise RunError("expected one workload digest line, found %d"
                       % len(digests))
    try:
        result = json.loads(lines[-1])
        metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        raise RunError("last line is not a perfbench result: %r"
                       % lines[-1][:120])
    return digests[0], metrics


def schedule(pairs, workloads):
    """(pair, workload, side) in run order; odd pairs run the head first."""
    out = []
    for i in range(pairs):
        for w in workloads:
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                out.append((i, w, side))
    return out


def iqr(values):
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def summarize(base, head, better):
    """Rows comparing per-pair metric dicts `base[i]`, `head[i]`.

    Each row: (metric, base median, base IQR, head median, head IQR,
    ratio of medians, head wins, ties, gain shown)."""
    rows = []
    for name in sorted(base[0]):
        b = [r[name] for r in base]
        h = [r[name] for r in head]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, h))
        ties = sum(x == y for x, y in zip(b, h))
        bm, hm = statistics.median(b), statistics.median(h)
        shown = wins >= 0.9 * len(b) and sign * (bm - hm) > iqr(b)
        ratio = hm / bm if bm else float("nan")
        rows.append((name, bm, iqr(b), hm, iqr(h), ratio, wins, ties, shown))
    return rows


def compare(runner, workloads, pairs, better, log=None):
    """Runs the schedule through `runner(side, workload)` (which returns
    run.py's stdout) and returns (report lines, ok)."""
    runs = {(w, s): [] for w in workloads for s in SIDES}
    for i, w, side in schedule(pairs, workloads):
        digest, metrics = parse_run(runner(side, w))
        runs[(w, side)].append((digest, metrics))
        if log:
            log("pair %d/%d %s %s: run_s %s, digest %s"
                % (i + 1, pairs, w, side, metrics.get("run_s"), digest))
    lines, ok = [], True
    for w in workloads:
        lines.append("==== %s: %d pairs ====" % (w, pairs))
        digests = {s: sorted({d for d, _ in runs[(w, s)]}) for s in SIDES}
        if digests["base"] == digests["head"] and len(digests["base"]) == 1:
            lines.append("workload digest %s on every run"
                         % digests["base"][0])
        else:
            ok = False
            lines.append("DIGESTS DIFFER: base %s, head %s"
                         % (", ".join(digests["base"]),
                            ", ".join(digests["head"])))
        lines.append("%-18s %12s %10s %12s %10s %7s %5s %5s %6s"
                     % ("metric", "base median", "base IQR", "head median",
                        "head IQR", "ratio", "wins", "ties", "shown"))
        rows = summarize([m for _, m in runs[(w, "base")]],
                         [m for _, m in runs[(w, "head")]], better)
        for name, bm, bi, hm, hi, ratio, wins, ties, shown in rows:
            lines.append("%-18s %12.6g %10.4g %12.6g %10.4g %6.3fx %5d %5d %6s"
                         % (name, bm, bi, hm, hi, ratio, wins, ties,
                            "yes" if shown else "no"))
    return lines, ok


def perfbench_runner(checkouts, seconds, seed):
    def run(side, workload):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(seconds)]
        if seed is not None:
            cmd += ["--seed", str(seed)]
        proc = subprocess.run(cmd, cwd=checkouts[side],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RunError("%s run of %s exited with %d"
                           % (side, workload, proc.returncode))
        return proc.stdout
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="checkout of the base commit")
    ap.add_argument("head", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload from BENCHMARK.json; repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for an interquartile range")

    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    runner = perfbench_runner({"base": args.base, "head": args.head},
                              args.seconds, args.seed)
    try:
        lines, ok = compare(runner, args.workload, args.pairs, better,
                            log=lambda s: print(s, file=sys.stderr))
    except RunError as e:
        print("perfbench_ab: " + str(e), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
