#!/usr/bin/env python3
"""Self-test for sgdrc-lint (tools/sgdrc_lint.py).

Each named check gets a fixture snippet that MUST trip it and a clean
sibling that MUST pass; suppression syntax (line and file level),
comment/string immunity, and scoping (bench wall-clock vs src) are
pinned too. Mirrors bench_compare_selftest.py: synthetic fixtures in a
temp dir, the real tool run as a subprocess, registered as a ctest so
the linter's own behaviour is regression-tested alongside the C++
suite — a linter that silently stops firing is worse than no linter.

Usage: tools/sgdrc_lint_selftest.py   (exit 0 = all checks hold)
"""

import pathlib
import subprocess
import sys
import tempfile

LINT = pathlib.Path(__file__).resolve().parent / "sgdrc_lint.py"

failures = []
checks_run = 0


def run_lint(tree):
    """Materialise {relpath: content} in a temp dir and lint it."""
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        for rel, content in tree.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(LINT), str(root)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def expect(name, tree, should_fail, needle=None):
    global checks_run
    checks_run += 1
    rc, out = run_lint(tree)
    if should_fail and rc == 0:
        failures.append(f"{name}: expected findings, got clean pass")
    elif not should_fail and rc != 0:
        failures.append(f"{name}: expected clean pass, got:\n{out}")
    elif rc not in (0, 1):
        failures.append(f"{name}: unexpected exit {rc}:\n{out}")
    elif needle and needle not in out:
        failures.append(f"{name}: output missing '{needle}':\n{out}")
    else:
        print(f"  ok: {name}")


H = "#pragma once\n"  # fixture headers start clean on pragma-once


def main():
    # ---- wall-clock ------------------------------------------------------
    expect("wall-clock trips on steady_clock in src",
           {"src/a.cc": "auto t = std::chrono::steady_clock::now();\n"},
           should_fail=True, needle="[wall-clock]")
    expect("wall-clock trips on time(nullptr) in tests",
           {"tests/a.cc": "long t = time(nullptr);\n"},
           should_fail=True, needle="[wall-clock]")
    expect("wall-clock trips in bench without the per-file allow",
           {"bench/b.cc": "auto t = std::chrono::steady_clock::now();\n"},
           should_fail=True, needle="[wall-clock]")
    expect("wall-clock allow-file clears a bench timing main",
           {"bench/b.cc":
            "// sgdrc-lint: allow-file(wall-clock) — measures the machine\n"
            "auto t = std::chrono::steady_clock::now();\n"},
           should_fail=False)
    expect("sim-time clock use is clean",
           {"src/a.cc": "TimeNs t = queue_.now();\n"},
           should_fail=False)

    # ---- raw-rand --------------------------------------------------------
    expect("raw-rand trips on rand()",
           {"src/a.cc": "int x = rand();\n"},
           should_fail=True, needle="[raw-rand]")
    expect("raw-rand trips on std::random_device",
           {"src/a.cc": "std::random_device rd;\n"},
           should_fail=True, needle="[raw-rand]")
    expect("raw-rand trips on #include <random>",
           {"tests/a.cc": "#include <random>\n"},
           should_fail=True, needle="[raw-rand]")
    expect("seeded common/rng.h stream is clean",
           {"src/a.cc": "Rng rng(opt.seed);\nint x = rng.uniform_int(0, 9);\n"},
           should_fail=False)

    # ---- unordered-container --------------------------------------------
    expect("unordered-container trips on unordered_map",
           {"src/a.cc": "std::unordered_map<int, int> m;\n"},
           should_fail=True, needle="[unordered-container]")
    expect("unordered-container trips on the include",
           {"src/a.h": H + "#include <unordered_set>\n"},
           should_fail=True, needle="[unordered-container]")
    expect("ordered std::map is clean",
           {"src/a.cc": "std::map<int, int> m;\n"},
           should_fail=False)

    # ---- pointer-key -----------------------------------------------------
    expect("pointer-key trips on std::map<T*, ...>",
           {"src/a.cc": "std::map<Job*, int> by_job;\n"},
           should_fail=True, needle="[pointer-key]")
    expect("pointer-key trips on std::set<const T*>",
           {"src/a.cc": "std::set<const Job*> seen;\n"},
           should_fail=True, needle="[pointer-key]")
    expect("id-keyed map is clean",
           {"src/a.cc": "std::map<JobId, int> by_job;\n"},
           should_fail=False)

    # ---- rng-seed-literal ------------------------------------------------
    expect("rng-seed-literal trips on a bare literal seed in src",
           {"src/a.cc": "Rng rng(12345);\n"},
           should_fail=True, needle="[rng-seed-literal]")
    expect("rng-seed-literal trips on a bare splitmix64 salt",
           {"src/a.cc": "Rng rng(splitmix64(seed ^ 0xdeadbeef12ull));\n"},
           should_fail=True, needle="[rng-seed-literal]")
    expect("named k...Salt constant is clean",
           {"src/a.cc": "Rng rng(splitmix64(seed ^ kFrontDoorSalt));\n"},
           should_fail=False)
    expect("the named salt's own definition is clean",
           {"src/a.cc":
            "constexpr uint64_t kFrontDoorSalt = 0xf407d007ull;\n"},
           should_fail=False)
    expect("literal seeds in tests are out of scope",
           {"tests/a.cc": "Rng rng(42);\n"},
           should_fail=False)

    # ---- env-read --------------------------------------------------------
    expect("env-read trips on std::getenv in src",
           {"src/a.cc": "const char* v = std::getenv(\"SGDRC_X\");\n"},
           should_fail=True, needle="[env-read]")
    expect("env-read trips on getenv in a bench",
           {"bench/b.cc": "bool quick = getenv(\"QUICK\") != nullptr;\n"},
           should_fail=True, needle="[env-read]")
    expect("env-read allow clears the shard guard's arming read",
           {"src/a.h": H +
            "// sgdrc-lint: allow(env-read) — arming only adds aborts.\n"
            "const char* env = std::getenv(\"SGDRC_DEBUG_OWNERSHIP\");\n"},
           should_fail=False)

    # ---- using-namespace-header -----------------------------------------
    expect("using-namespace-header trips in a header",
           {"src/a.h": H + "using namespace std;\n"},
           should_fail=True, needle="[using-namespace-header]")
    expect("using namespace in a .cc is allowed",
           {"src/a.cc": "using namespace std::literals;\n"},
           should_fail=False)
    expect("using-declaration in a header is clean",
           {"src/a.h": H + "using workload::Request;\n"},
           should_fail=False)

    # ---- pragma-once -----------------------------------------------------
    expect("pragma-once trips on a bare header",
           {"src/a.h": "struct A {};\n"},
           should_fail=True, needle="[pragma-once]")
    expect("pragma-once satisfied",
           {"src/a.h": H + "struct A {};\n"},
           should_fail=False)

    # ---- suppression and immunity ---------------------------------------
    expect("same-line allow suppresses",
           {"src/a.cc":
            "std::unordered_map<int, int> m;  "
            "// sgdrc-lint: allow(unordered-container)\n"},
           should_fail=False)
    expect("previous-line allow suppresses",
           {"src/a.cc":
            "// sgdrc-lint: allow(unordered-container) — membership only,\n"
            "std::unordered_map<int, int> m;\n"},
           should_fail=False)
    expect("allow of one check does not clear another",
           {"src/a.cc":
            "// sgdrc-lint: allow(wall-clock)\n"
            "std::unordered_map<int, int> m;\n"},
           should_fail=True, needle="[unordered-container]")
    expect("mention in a // comment never trips",
           {"src/a.cc": "// never use std::random_device or rand() here\n"},
           should_fail=False)
    expect("mention in a block comment never trips",
           {"src/a.cc":
            "/* std::unordered_map<int,int> would break determinism\n"
            "   across libstdc++ versions */\n"},
           should_fail=False)
    expect("mention in a string literal never trips",
           {"src/a.cc":
            "const char* msg = \"no std::random_device allowed\";\n"},
           should_fail=False)

    # ---- multi-finding shape --------------------------------------------
    expect("two findings are both reported with locations",
           {"src/a.cc": "int x = rand();\n",
            "src/b.h": "struct B {};\n"},
           should_fail=True, needle="src/a.cc:1")

    if failures:
        print(f"\nSGDRC-LINT SELFTEST FAILED "
              f"({len(failures)}/{checks_run} checks):")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"\nsgdrc-lint selftest passed: {checks_run} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
