#!/usr/bin/env python3
"""Self-test for tools/perfbench_ab.py on canned perfbench output.

Checks the run order (pairs alternate which side runs first), the
per-metric medians, interquartile ranges, wins, ties and the gain-shown
rule (nine wins in ten and a median gain above the base's IQR, in the
metric's direction), that differing workload digests and malformed runs
fail, and, through the command line, that two stub checkouts whose
perfbench/run.py print canned reports give exit 0 when their digests
agree and 1 when they differ.

Usage: tools/perfbench_ab_selftest.py   (exit 0 = all hold)
"""

import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import perfbench_ab as ab  # noqa: E402

BETTER = {"run_s": "lower", "slo_attainment": "higher"}
failures = []


def check(label, cond):
    if not cond:
        failures.append(label)


def canned(digest, run_s, slo=0.9):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"run_s": {"value": run_s, "unit": "s"},
                          "slo_attainment": {"value": slo,
                                             "unit": "ratio"}}}
    return "\n".join([
        "cell                        run_s  digest            gate",
        "workload digest %s (equals the first pass)" % digest,
        "perfbench: w run took 2.0 s",
        json.dumps(result)]) + "\n"


def fake_runner(base_s, head_s, head_digest="aaaa", slo=(0.9, 0.9)):
    """Serves the i-th run of each side from the lists, in call order."""
    calls = {"base": 0, "head": 0}

    def run(side, workload):
        i = calls[side]
        calls[side] += 1
        if side == "base":
            return canned("aaaa", base_s[i], slo[0])
        return canned(head_digest, head_s[i], slo[1])
    return run


def row(lines, metric):
    return next(line.split() for line in lines if line.startswith(metric))


# Run order: pair 0 runs the base first, pair 1 the head first.
order = ab.schedule(2, ["w"])
check("alternating order", [s for _, _, s in order] ==
      ["base", "head", "head", "base"])

# Head faster in every pair by far more than the base's spread.
base = [2.0, 2.1, 1.9, 2.2, 2.0, 1.95, 2.05, 2.1, 2.0, 1.9]
head = [x * 0.65 for x in base]
lines, ok = ab.compare(fake_runner(base, head), ["w"], 10, BETTER)
check("matching digests pass", ok)
check("digest line", "workload digest aaaa on every run" in lines)
r = row(lines, "run_s")
check("run_s base median", abs(float(r[1]) - 2.0) < 1e-9)
check("run_s wins", r[6] == "10" and r[7] == "0")
check("run_s ratio", r[5] == "0.650x")
check("run_s gain shown", r[8] == "yes")
r = row(lines, "slo_attainment")
check("equal metric ties", r[6] == "0" and r[7] == "10" and r[8] == "no")

# Eight wins in ten is not a shown gain, however large.
head8 = [x * 0.5 for x in base]
head8[0] = head8[1] = 3.0
lines, ok = ab.compare(fake_runner(base, head8), ["w"], 10, BETTER)
r = row(lines, "run_s")
check("8/10 wins not shown", ok and r[6] == "8" and r[8] == "no")

# Nine wins in ten whose median gain is inside the base's IQR.
near = [x - 0.01 for x in base]
near[0] = 3.0
r = row(ab.compare(fake_runner(base, near), ["w"], 10, BETTER)[0], "run_s")
check("gain inside IQR not shown", r[6] == "9" and r[8] == "no")

# Higher-is-better metrics win upwards.
r = row(ab.compare(fake_runner(base, base, slo=(0.8, 0.95)), ["w"], 10,
                   BETTER)[0], "slo_attainment")
check("higher is better", r[6] == "10" and r[8] == "yes")
r = row(ab.compare(fake_runner(base, base, slo=(0.95, 0.8)), ["w"], 10,
                   BETTER)[0], "slo_attainment")
check("lower is worse when higher is better", r[6] == "0" and r[8] == "no")

# Differing digests fail.
lines, ok = ab.compare(fake_runner(base, head, head_digest="bbbb"), ["w"],
                       10, BETTER)
check("differing digests fail", not ok)
check("differing digests named",
      any("DIGESTS DIFFER: base aaaa, head bbbb" in l for l in lines))

# Malformed runs raise.
for label, text in [("no digest", canned("aaaa", 1.0).split("\n", 2)[0]
                     + "\n" + json.dumps({"metrics": {}})),
                    ("bad result", "workload digest aaaa\nnot json\n")]:
    try:
        ab.parse_run(text)
        failures.append("malformed run accepted: " + label)
    except ab.RunError:
        pass

# The command line on two stub checkouts.
STUB = """import sys
sys.stdout.write(%r)
"""


def stub_checkout(root, name, text):
    d = pathlib.Path(root) / name
    (d / "perfbench").mkdir(parents=True)
    (d / "perfbench" / "run.py").write_text(STUB % text)
    (d / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": k, "better": v}
                        for k, v in BETTER.items()]}))
    return str(d)


with tempfile.TemporaryDirectory() as tmp:
    b = stub_checkout(tmp, "base", canned("aaaa", 2.0))
    h = stub_checkout(tmp, "head", canned("aaaa", 1.0))
    x = stub_checkout(tmp, "other", canned("cccc", 1.0))
    for label, head_dir, want in [("same digests exit 0", h, 0),
                                  ("other digests exit 1", x, 1)]:
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "perfbench_ab.py"), b, head_dir,
             "--workload", "w", "--pairs", "3", "--seconds", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        check(label, proc.returncode == want)
        if want == 0:
            check("cli report", "run_s" in proc.stdout)

if failures:
    for f in failures:
        print("FAIL: " + f)
    sys.exit(1)
print("perfbench_ab selftest: all checks hold")
