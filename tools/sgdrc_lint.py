#!/usr/bin/env python3
"""sgdrc-lint: project linter for the determinism contract (stdlib only).

The repo's core promise — bit-identical results across seeds, engines,
and thread counts (docs/determinism.md) — rests on rules the C++
compiler never checks: no wall clock, no unseeded randomness, no
iteration-order-dependent containers, shard-safe RNG streams. This tool
encodes those rules as named, individually suppressible checks so a
violation fails at analysis time (the `sgdrc_lint` ctest and the CI
static-analysis job), not in a nightly TSan run three PRs later.

Checks (see docs/static-analysis.md for the full catalog):

  wall-clock            no wall-clock / OS-time reads in simulation or
                        test code (std::chrono system/steady/high_res
                        clocks, time(), gettimeofday, clock_gettime,
                        rdtsc). Bench mains that *measure the machine*
                        (events/sec throughput) suppress per file.
  raw-rand              no randomness outside common/rng.h: bans
                        rand()/srand, std::random_device, the <random>
                        header and its engines, drand48, getrandom,
                        /dev/urandom.
  unordered-container   std::unordered_{map,set,multimap,multiset} are
                        banned outright — their iteration order is
                        load-factor- and libstdc++-version-dependent,
                        so one innocent range-for breaks bit-identity.
  pointer-key           ordered containers keyed by pointer (std::map<T*,
                        std::set<T*>, …) — ordered by allocation
                        address, i.e. by ASLR.
  rng-seed-literal      constructing an Rng (or deriving a stream via
                        splitmix64) from a bare integer literal in src/:
                        every stream's salt must be a named k…Salt/
                        k…Seed constant so docs/determinism.md can list
                        it (the front-door kFrontDoorSalt pattern).
  using-namespace-header  `using namespace` in a header leaks into every
                        includer; ADL surprises have broken tie-break
                        determinism elsewhere.
  pragma-once           every header carries `#pragma once`.
  env-read              no getenv in simulation, test, bench or example
                        code: an environment read is an option no config
                        struct lists, and it makes results depend on the
                        shell. The shard guard's arming read suppresses
                        it (arming only adds aborts).

Suppression syntax (the check stays visible at the use site):

  // sgdrc-lint: allow(check-name)        this line or the next line
  // sgdrc-lint: allow-file(check-name)   anywhere: the whole file

Usage: tools/sgdrc_lint.py [REPO_ROOT] [--list-checks]
(exit 0 = clean, 1 = findings, 2 = usage error)
"""

import pathlib
import re
import sys

# Directories scanned, relative to the repo root. tools/ is Python and
# out of scope; build trees are never scanned.
SCAN_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = {".h", ".cc", ".cpp"}

SUPPRESS_LINE_RE = re.compile(r"sgdrc-lint:\s*allow\(([\w,\s-]+)\)")
SUPPRESS_FILE_RE = re.compile(r"sgdrc-lint:\s*allow-file\(([\w,\s-]+)\)")


class Check:
    """One named rule: a regex over comment-stripped code lines."""

    def __init__(self, name, dirs, pattern, message, files=None,
                 exclude_files=None):
        self.name = name
        self.dirs = dirs            # top-level dirs the check applies to
        self.re = re.compile(pattern)
        self.message = message
        self.files = files          # restrict to these rel paths (regex)
        self.exclude_files = exclude_files or set()

    def applies_to(self, rel):
        top = rel.split("/", 1)[0]
        if top not in self.dirs:
            return False
        if str(rel) in self.exclude_files:
            return False
        if self.files is not None and not re.match(self.files, rel):
            return False
        return True


CHECKS = [
    Check(
        "wall-clock",
        dirs=("src", "tests", "bench", "examples"),
        pattern=(r"system_clock|steady_clock|high_resolution_clock|"
                 r"\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|"
                 r"\bgmtime\b|__rdtsc|\bmktime\b|"
                 r"\btime\s*\(\s*(NULL|nullptr|0|&)|"
                 r"std::time\b|\bclock\s*\(\s*\)"),
        message=("wall-clock read — simulated time comes from "
                 "EventQueue::now(); bench mains measuring machine "
                 "throughput suppress with allow-file(wall-clock)"),
    ),
    Check(
        "raw-rand",
        dirs=("src", "tests", "bench", "examples"),
        pattern=(r"\brand\s*\(\s*\)|\bsrand\b|random_device|"
                 r"std::mt19937|minstd_rand|default_random_engine|"
                 r"ranlux\d+|\bdrand48\b|\blrand48\b|\bgetrandom\b|"
                 r"/dev/u?random|#\s*include\s*<random>"),
        message=("randomness outside common/rng.h — derive a seeded "
                 "stream (Rng / splitmix64) so runs reproduce "
                 "bit-for-bit"),
    ),
    Check(
        "unordered-container",
        dirs=("src", "tests", "bench", "examples"),
        pattern=(r"std::unordered_(map|set|multimap|multiset)\b|"
                 r"#\s*include\s*<unordered_(map|set)>"),
        message=("std::unordered_* is banned — iteration order depends "
                 "on load factor and libstdc++ version; use std::map / "
                 "std::set / a sorted vector"),
    ),
    Check(
        "pointer-key",
        dirs=("src", "tests", "bench", "examples"),
        pattern=r"std::(map|set|multimap|multiset)\s*<\s*(const\s+)?[\w:]+\s*\*",
        message=("ordered container keyed by pointer — ordered by "
                 "allocation address (ASLR), not by anything "
                 "reproducible; key by a stable id instead"),
    ),
    Check(
        "rng-seed-literal",
        dirs=("src",),
        pattern=(r"\bRng\s+\w+\s*[({][^)}]*\b(?:0x[0-9A-Fa-f]+|\d{2,}\b)|"
                 r"\bRng\s*[({][^)}]*\b(?:0x[0-9A-Fa-f]+|\d{2,}\b)|"
                 r"\bsplitmix64\s*\([^)]*\b0x[0-9A-Fa-f]{8,}"),
        message=("RNG stream derived from a bare literal — name the salt "
                 "(constexpr uint64_t kFooSalt = …) so "
                 "docs/determinism.md can list the stream"),
        exclude_files={"src/common/rng.h"},  # defines the default seed
    ),
    Check(
        "env-read",
        dirs=("src", "tests", "bench", "examples"),
        pattern=r"\b(?:secure_)?getenv\b",
        message=("environment read — an option no config struct lists, "
                 "and results would depend on the shell; pass the value "
                 "in through the API"),
    ),
    Check(
        "using-namespace-header",
        dirs=("src", "bench", "tests", "examples"),
        pattern=r"^\s*using\s+namespace\b",
        message="`using namespace` in a header leaks into every includer",
        files=r".*\.h$",
    ),
]

# A named k…Salt/k…Seed constant in the expression satisfies
# rng-seed-literal: the literal is the *definition* of the named salt.
NAMED_SALT_RE = re.compile(r"\bk\w*(Salt|Seed)\w*\b|constexpr")


def strip_code(line):
    """Remove string/char literals and // comments so prose never trips
    a pattern. Block comments are handled by the caller's state."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)  # keep the delimiter so regexes don't join text
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # // comment: rest of line is prose
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path, rel, checks):
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    findings = []

    # File-level suppressions and line-level allows come from the RAW
    # text (they live in comments).
    file_allow = set()
    for m in SUPPRESS_FILE_RE.finditer(text):
        file_allow.update(x.strip() for x in m.group(1).split(","))

    line_allow = {}  # lineno -> set of check names (covers self + next)
    for i, raw in enumerate(lines, 1):
        m = SUPPRESS_LINE_RE.search(raw)
        if m:
            names = {x.strip() for x in m.group(1).split(",")}
            line_allow.setdefault(i, set()).update(names)
            line_allow.setdefault(i + 1, set()).update(names)

    applicable = [c for c in checks if c.applies_to(rel)]

    if rel.endswith(".h") and "pragma-once" not in file_allow:
        if not any(l.strip().startswith("#pragma once") for l in lines):
            findings.append((rel, 1, "pragma-once",
                             "header without #pragma once"))

    in_block_comment = False
    for i, raw in enumerate(lines, 1):
        line = raw
        # Strip /* … */ block comments (line-granular state machine).
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        code = strip_code(line)
        if not code.strip():
            continue
        for c in applicable:
            if c.name in file_allow or c.name in line_allow.get(i, set()):
                continue
            m = c.re.search(code)
            if not m:
                continue
            if c.name == "rng-seed-literal" and NAMED_SALT_RE.search(code):
                continue  # the literal is the named salt's definition
            findings.append((rel, i, c.name, c.message))
    return findings


def main(argv):
    args = [a for a in argv[1:]]
    if "--list-checks" in args:
        print("sgdrc-lint checks (suppress with "
              "// sgdrc-lint: allow(<name>) or allow-file(<name>)):")
        for c in CHECKS:
            print(f"  {c.name:24s} [{', '.join(c.dirs)}] {c.message}")
        print(f"  {'pragma-once':24s} [all headers] "
              "header without #pragma once")
        return 0
    roots = [a for a in args if not a.startswith("--")]
    if len(roots) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(roots[0]) if roots else \
        pathlib.Path(__file__).resolve().parent.parent
    root = root.resolve()

    files = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        files.extend(p for p in sorted(base.rglob("*"))
                     if p.suffix in EXTENSIONS and p.is_file())
    if not files:
        print(f"sgdrc-lint: no sources under {root}", file=sys.stderr)
        return 2

    findings = []
    for p in files:
        rel = p.relative_to(root).as_posix()
        findings.extend(lint_file(p, rel, CHECKS))

    if findings:
        print(f"SGDRC-LINT FAILED ({len(findings)} finding(s) across "
              f"{len(files)} files):")
        for rel, lineno, name, message in findings:
            print(f"  {rel}:{lineno}: [{name}] {message}")
        print("\nsuppress a deliberate use with "
              "// sgdrc-lint: allow(<check>) on or above the line, or "
              "allow-file(<check>) for a whole file "
              "(docs/static-analysis.md).")
        return 1
    print(f"sgdrc-lint passed: {len(files)} files, "
          f"{len(CHECKS) + 1} checks, no findings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
