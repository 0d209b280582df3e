#!/usr/bin/env python3
"""Check perfbench's workload digests against the committed values.

    python3 perfbench/run.py --workload all --seconds 0 > perfbench.txt
    python3 tools/check_perfbench_digests.py perfbench.txt

Each `==== <workload> ====` section of a `--workload all` report carries
a `workload digest <hex>` line: the digest of the first untraced pass,
which repeats every simulated metric of the run. A traced report
(`--trace 1`) also carries a `traced digest <hex>` line. Both must equal
the workload's entry in tools/perfbench_digests.json (default seed), and
every committed workload must appear, so a change that moves simulated
behaviour fails here until the PR that makes it refreshes the file and
says why. Several reports may be checked at once (e.g. the untraced and
the traced pass). Stdlib only; exit 0 when every digest matches.
"""

import argparse
import json
import pathlib
import re
import sys

DIGESTS = pathlib.Path(__file__).resolve().parent / "perfbench_digests.json"

SECTION_RE = re.compile(r"^==== (\S+) ====$")
DIGEST_RE = re.compile(r"^(workload|traced) digest\s+([0-9a-f]+)\b")


def parse_report(text):
    """Returns {workload: {"workload": hex, "traced": hex}} in the order
    the sections appear; a kind the section lacks is absent."""
    found = {}
    current = None
    for line in text.splitlines():
        m = SECTION_RE.match(line)
        if m:
            current = found.setdefault(m.group(1), {})
            continue
        m = DIGEST_RE.match(line)
        if m and current is not None:
            current[m.group(1)] = m.group(2)
    return found


def check_report(text, committed):
    """Returns the list of problems in one report (empty when it passes)."""
    found = parse_report(text)
    problems = []
    for name in committed:
        if name not in found:
            problems.append("%s: no section in the report" % name)
    for name, digests in found.items():
        want = committed.get(name)
        if want is None:
            problems.append("%s: no committed digest in %s"
                            % (name, DIGESTS.name))
            continue
        if "workload" not in digests:
            problems.append("%s: no 'workload digest' line" % name)
        for kind, got in digests.items():
            if got != want:
                problems.append("%s: %s digest %s != committed %s"
                                % (name, kind, got, want))
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("reports", nargs="+", metavar="REPORT",
                    help="saved stdout of perfbench/run.py --workload all")
    ap.add_argument("--digests", type=pathlib.Path, default=DIGESTS,
                    help="committed digests (default: %(default)s)")
    args = ap.parse_args(argv)
    committed = json.loads(args.digests.read_text())
    failed = False
    for report in args.reports:
        problems = check_report(pathlib.Path(report).read_text(), committed)
        for p in problems:
            print("%s: %s" % (report, p))
        if problems:
            failed = True
        else:
            print("%s: %d workload digests match" % (report, len(committed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
