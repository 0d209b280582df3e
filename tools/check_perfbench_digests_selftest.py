#!/usr/bin/env python3
"""Self-test for tools/check_perfbench_digests.py.

Runs the checker on synthetic perfbench reports and asserts it passes
and fails where it must: a changed untraced or traced digest, a missing
or uncommitted workload, and a section without its digest line all
fail; matching reports pass, untraced and traced. Also checks that the
committed digest file names exactly the workloads of BENCHMARK.json.

Usage: tools/check_perfbench_digests_selftest.py   (exit 0 = all hold)
"""

import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
CHECKER = TOOLS / "check_perfbench_digests.py"

COMMITTED = {"colo-fig17": "fbc22a28b0177956",
             "fleet-256": "eb58171638ea12fa"}


def section(name, digest, traced=None):
    lines = [
        "==== %s ====" % name,
        "provenance: workload=%s seed=default nproc=4 trace=%d"
        % (name, traced is not None),
        "reference (library path): 6 cells in 1.0 s, digest 0123456789abcdef",
        "workload digest %s (equals the first pass)" % digest,
    ]
    if traced is not None:
        lines.append("traced digest   %s (equals the untraced digest)" % traced)
    lines.append("perfbench: %s run took 2.0 s" % name)
    return lines


def report(*sections):
    lines = [line for s in sections for line in s]
    lines += ['%s: {"correct": true}' % name for name in COMMITTED]
    return "\n".join(lines) + "\n"


def run(text, digests=COMMITTED):
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp) / "digests.json"
        d.write_text(json.dumps(digests))
        r = pathlib.Path(tmp) / "report.txt"
        r.write_text(text)
        proc = subprocess.run(
            [sys.executable, str(CHECKER), "--digests", str(d), str(r)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def expect(label, text, code, needle=None):
    got, out = run(text)
    ok = got == code and (needle is None or needle in out)
    print("%s: %s" % ("ok  " if ok else "FAIL", label))
    if not ok:
        print("  exit %d (want %d); output:\n%s" % (got, code, out))
    return ok


def main():
    colo, fleet = COMMITTED["colo-fig17"], COMMITTED["fleet-256"]
    other = "ffffffffffffffff"
    checks = [
        expect("matching untraced report passes",
               report(section("colo-fig17", colo),
                      section("fleet-256", fleet)), 0),
        expect("matching traced report passes",
               report(section("colo-fig17", colo, colo),
                      section("fleet-256", fleet, fleet)), 0),
        expect("changed workload digest fails",
               report(section("colo-fig17", other),
                      section("fleet-256", fleet)), 1,
               "colo-fig17: workload digest %s != committed %s"
               % (other, colo)),
        expect("changed traced digest fails",
               report(section("colo-fig17", colo),
                      section("fleet-256", fleet, other)), 1,
               "fleet-256: traced digest"),
        expect("missing workload fails",
               report(section("colo-fig17", colo)), 1,
               "fleet-256: no section"),
        expect("uncommitted workload fails",
               report(section("colo-fig17", colo),
                      section("fleet-256", fleet),
                      section("dag-inception", other)), 1,
               "dag-inception: no committed digest"),
        expect("section without its digest line fails",
               report(section("colo-fig17", colo),
                      ["==== fleet-256 ====", "perfbench: exited"]), 1,
               "fleet-256: no 'workload digest' line"),
    ]

    bench = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    committed = json.loads((TOOLS / "perfbench_digests.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    same = sorted(committed) == sorted(names)
    print("%s: committed digests cover BENCHMARK.json's workloads"
          % ("ok  " if same else "FAIL"))
    checks.append(same)
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
