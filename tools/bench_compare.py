#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json artifacts.

Compares freshly produced bench JSON against the committed baselines in
bench/baselines/ and fails (exit 1) when

  * any p99 latency metric regresses by more than --p99-tolerance
    (default 15%), or
  * any best-effort throughput metric drops by more than --be-tolerance
    (default 10%), or
  * a boolean pass/fail metric (e.g. vgpu_isolation's quota-isolation
    `slo_ok`, batching_sweep's SGDRC `slo_ok`) stops being true — a flip
    to false AND a lapse into null/no-data both fail: a tenant that
    served zero requests must not pass the gate vacuously, or
  * a numeric `attainment` in the baseline turns null (no data) now, or
  * a (scenario, system) combination present in the baseline disappears
    from the current output (shrinking coverage would silently shrink
    the gate), or
  * an absolute invariant of the current output is violated — today:
    fleet_scaling's sharded-engine throughput cells must report
    matches_serial == true (parallel bit-identical to serial), and on
    machines with >= 8 hardware threads the parallel speedup must be
    >= 3x (the speedup check is skipped on narrower machines, where the
    number measures the box, not the code); scenario_sweep's
    overload_order_ok must hold (flash-overload degrades in QoS order)
    and its front-door records must conserve requests (arrived ==
    admitted + dropped + pending_retries). See docs/bench-json.md.

The simulation is deterministic (fixed seeds, integer-ns clocks), so in
practice current == baseline exactly; the tolerances exist so a genuine
perf-affecting change trips the gate while benign rounding noise never
does. Improvements (lower p99 / higher BE) always pass — refresh the
baselines when you want the gate to hold the new line:

    ./fleet_scaling    --quick --json bench/baselines/BENCH_fleet.json
    ./fig17_end_to_end --quick --json bench/baselines/BENCH_fig17.json
    ./scenario_sweep   --quick --json bench/baselines/BENCH_scenarios.json
    ./vgpu_isolation   --quick --json bench/baselines/BENCH_vgpu.json
    ./batching_sweep   --quick --json bench/baselines/BENCH_batching.json
    ./memory_pressure  --quick --json bench/baselines/BENCH_memory.json
    ./dag_parallelism  --quick --json bench/baselines/BENCH_dag.json

With --exact the script is a second, stricter gate instead: every field
of every BENCH_*.json must equal the baseline exactly, apart from the
fields that measure the recording host (fleet_scaling's `hw_threads`
and its throughput cells' thread count, wall-clock times, rates and
speedup: THROUGHPUT_HOST_FIELDS). A change that moves simulated behaviour on purpose
refreshes the baselines and names the changed records.

Override: label the PR `perf-gate-override` (documented in README) to
skip the gate on the PR run for intentional regressions. The label
cannot reach the push-to-main run, so refresh the baselines before
merging to keep main green.

Usage:
    tools/bench_compare.py BASELINE_DIR CURRENT_DIR [options]
    tools/bench_compare.py --exact BASELINE_DIR CURRENT_DIR
"""

import argparse
import json
import pathlib
import sys

# Values below this (ms / samples-per-s) are too small for a relative
# gate to be meaningful; they are compared with slack instead.
ABS_P99_FLOOR_MS = 0.05
ABS_BE_FLOOR = 1.0


def records_fleet(doc):
    """fleet_scaling: one record per sweep cell, plus one per
    sharded-engine throughput cell. The throughput `ok` is the
    bit-identity of the parallel engine against serial — a hard gate on
    any machine. Wall-clock fields (events/sec, speedup) are NOT
    compared against the baseline: they measure the recording machine,
    not the code (see validate_fleet for the absolute speedup check)."""
    for run in doc.get("runs", []):
        key = ("fleet", run["devices"], run["placement"], run["router"],
               run["system"])
        yield key, {"p99_ms": run.get("fleet_p99_ms"),
                    "be": run.get("be_samples_per_s")}
    for cell in doc.get("throughput", []):
        yield ("fleet-throughput", cell["devices"]), {
            "ok": cell.get("matches_serial"),
        }


# Minimum hardware threads for the absolute speedup check, and the
# speedup the parallel engine must then deliver at every fleet size.
SPEEDUP_MIN_HW_THREADS = 8
SPEEDUP_FLOOR = 3.0


def validate_fleet(doc, name):
    """Absolute (baseline-independent) invariants of the CURRENT
    fleet_scaling output: the parallel engine must match serial
    bit-for-bit everywhere, and — when the recording machine has 8+
    hardware threads, so the number is physically meaningful — deliver
    at least a 3x wall-clock speedup over serial on the big fleets."""
    failures = []
    hw = doc.get("hw_threads", 0)
    for cell in doc.get("throughput", []):
        if cell.get("matches_serial") is not True:
            failures.append(
                f"{name}: throughput/{cell.get('devices')}: parallel engine "
                "did not reproduce serial results bit-for-bit")
        speedup = cell.get("speedup")
        if (hw >= SPEEDUP_MIN_HW_THREADS and speedup is not None
                and speedup < SPEEDUP_FLOOR):
            failures.append(
                f"{name}: throughput/{cell.get('devices')}: parallel speedup "
                f"{speedup:.2f}x < {SPEEDUP_FLOOR:.0f}x on a "
                f"{hw}-hardware-thread machine")
    return failures


def validate_scenarios(doc, name):
    """Absolute invariants of the CURRENT scenario_sweep output:

    * overload_order_ok (the flash-overload QoS-ordered-degradation gate
      the bench itself computes — BE pauses first, low-priority LS sheds
      next, the premium tier sheds least and keeps the highest demand
      attainment) must be true whenever the bench emits it, and
    * every front-door record must conserve requests: each first-attempt
      arrival terminates as admitted or dropped, or sits in a scheduled
      retry at the horizon (arrived == admitted + dropped +
      pending_retries). Rejected/shed are per-attempt event counts, not
      terminal outcomes, so they are deliberately outside the identity.
    """
    failures = []
    if doc.get("overload_order_ok") is False:
        failures.append(
            f"{name}: flash-overload degradation is not QoS-ordered "
            "(overload_order_ok is false)")
    for sc in doc.get("scenarios", []):
        for system in sc.get("systems", []):
            door = system.get("front_door")
            if not door:
                continue
            arrived = door.get("arrived", 0)
            accounted = (door.get("admitted", 0) + door.get("dropped", 0)
                         + door.get("pending_retries", 0))
            if arrived != accounted:
                failures.append(
                    f"{name}: {sc['name']}/{system['name']}: front door "
                    f"leaked requests: arrived {arrived} != admitted + "
                    f"dropped + pending_retries {accounted}")
    return failures


def validate_dag(doc, name):
    """Absolute invariant of the CURRENT dag_parallelism output: the
    bench's own gate — under SGDRC the DAG form must strictly beat the
    serialized form on LS p99 without losing SLO attainment. The bench
    exits non-zero when this fails, but the JSON records it too so a
    stale artifact cannot slip past the perf gate."""
    gate = doc.get("gate") or {}
    if gate.get("ok") is not True:
        return [
            f"{name}: {gate.get('system', 'SGDRC')}: DAG co-scheduling did "
            "not strictly beat the serialized form at equal attainment "
            "(gate.ok is not true)"]
    return []


VALIDATORS = {
    "fleet_scaling": validate_fleet,
    "scenario_sweep": validate_scenarios,
    "dag_parallelism": validate_dag,
}


def records_fig17(doc):
    """fig17_end_to_end: one record per (gpu, load, system), with
    per-model p99 sub-records."""
    for sc in doc.get("scenarios", []):
        for system in sc.get("systems", []):
            base = ("fig17", sc["gpu"], sc["load"], system["name"])
            yield base, {"be": system.get("be_samples_per_s")}
            for model, p99 in system.get("p99_ms", {}).items():
                yield base + (model,), {"p99_ms": p99}


def records_scenarios(doc):
    """scenario_sweep: one record per (scenario, system). Front-door
    scenarios (flash-overload, retry-storm, device-failure) add one
    sub-record per LS service gating its demand attainment (attained /
    door arrivals — counts shed and dropped requests against the tier,
    so a hard-shedding service cannot look healthy by serving little)."""
    for sc in doc.get("scenarios", []):
        for system in sc.get("systems", []):
            base = ("scenario", sc["name"], system["name"])
            yield base, {
                "p99_ms": system.get("fleet_p99_ms"),
                "be": system.get("be_samples_per_s"),
            }
            door = system.get("front_door") or {}
            for svc in door.get("services", []):
                yield base + ("svc", svc["service"]), {
                    "att": svc.get("demand_attainment"),
                }


def records_vgpu(doc):
    """vgpu_isolation: one record per (flood size, system). The `ok`
    boolean is the quota-isolation property itself (LS p99 within SLO);
    losing it is a regression regardless of magnitude. `slo_ok` is null
    when the tenant served nothing (no data ≠ pass)."""
    for cell in doc.get("cells", []):
        yield ("vgpu", cell["be_tenants"], cell["system"]), {
            "p99_ms": cell.get("p99_ms"),
            "be": cell.get("be_samples_per_s"),
            "ok": cell.get("slo_ok") if cell.get("quota") else None,
            "att": cell.get("attainment"),
        }


def records_batching(doc):
    """batching_sweep: one record per (max batch size, system)."""
    for cell in doc.get("cells", []):
        yield ("batching", cell["max_batch"], cell["system"]), {
            "p99_ms": cell.get("p99_ms"),
            "be": cell.get("be_samples_per_s"),
            "ok": cell.get("slo_ok") if cell.get("system") == "SGDRC" else None,
            "att": cell.get("attainment"),
        }


def records_memory(doc):
    """memory_pressure: one record per (pressure ratio, system), plus a
    cold-start sub-record gating the headline tail. `slo_ok` is gated only
    for the quota-aware stack (the naive FIFO baseline is *meant* to blow
    its SLO under pressure); `cold_start_p99_ms` is null when no request
    hit cold weights — the best outcome, handled by the gate's
    null-propagation rules (a baseline number turning null is data loss
    only for `att`, while p99 comparisons simply skip)."""
    for cell in doc.get("cells", []):
        key = ("memory", cell["pressure"], cell["system"])
        yield key, {
            "p99_ms": cell.get("p99_ms"),
            "be": cell.get("goodput_per_s"),
            "ok": cell.get("slo_ok") if "quota" in cell.get("system", "")
                  else None,
            "att": cell.get("attainment"),
        }
        yield key + ("cold",), {"p99_ms": cell.get("cold_start_p99_ms")}


def records_dag(doc):
    """dag_parallelism: one record per (system, form) where form is the
    model's execution shape — "dag" (explicit kernel_deps, frontier
    multi-launch) or "serialized" (the same kernels as a flat chain).
    Plus one dag-gate record whose `ok` is the bench's headline claim:
    SGDRC's DAG p99 strictly beats serialized at >= attainment."""
    for cell in doc.get("cells", []):
        form = "dag" if cell.get("dag") else "serialized"
        yield ("dag", cell["system"], form), {
            "p99_ms": cell.get("p99_ms"),
            "be": cell.get("be_samples_per_s"),
            "att": cell.get("attainment"),
        }
    gate = doc.get("gate") or {}
    yield ("dag-gate", gate.get("system", "SGDRC")), {"ok": gate.get("ok")}


EXTRACTORS = {
    "fleet_scaling": records_fleet,
    "fig17_end_to_end": records_fig17,
    "scenario_sweep": records_scenarios,
    "vgpu_isolation": records_vgpu,
    "batching_sweep": records_batching,
    "memory_pressure": records_memory,
    "dag_parallelism": records_dag,
}


def extract(path):
    doc = json.loads(path.read_text())
    bench = doc.get("bench")
    if bench not in EXTRACTORS:
        raise SystemExit(f"{path}: unknown bench kind {bench!r}")
    out = {}
    for key, metrics in EXTRACTORS[bench](doc):
        out.setdefault(key, {}).update(
            {k: v for k, v in metrics.items() if v is not None})
    return out


# The fields --exact ignores, because they measure the recording host and
# not the simulation: fleet_scaling's `hw_threads` and these fields of each
# of its throughput cells.
THROUGHPUT_HOST_FIELDS = {
    "threads", "serial_wall_ms", "parallel_wall_ms", "serial_events_per_s",
    "parallel_events_per_s", "serial_sim_s_per_wall_s",
    "parallel_sim_s_per_wall_s", "speedup",
}


def without_host_fields(doc):
    if doc.get("bench") != "fleet_scaling":
        return doc
    out = {k: v for k, v in doc.items() if k != "hw_threads"}
    if "throughput" in out:
        out["throughput"] = [
            {k: v for k, v in cell.items() if k not in THROUGHPUT_HOST_FIELDS}
            for cell in out["throughput"]]
    return out


MISSING = "<missing>"


def diff_fields(base, cur, path=""):
    """Yield (path, baseline value, current value) for every differing
    leaf. A type change counts (true vs 1, 1 vs 1.0)."""
    if isinstance(base, dict) and isinstance(cur, dict):
        for k in sorted(set(base) | set(cur)):
            sub = f"{path}.{k}" if path else k
            yield from diff_fields(base.get(k, MISSING), cur.get(k, MISSING),
                                   sub)
    elif isinstance(base, list) and isinstance(cur, list):
        for i in range(max(len(base), len(cur))):
            yield from diff_fields(base[i] if i < len(base) else MISSING,
                                   cur[i] if i < len(cur) else MISSING,
                                   f"{path}[{i}]")
    elif type(base) is not type(cur) or base != cur:
        yield path, base, cur


def exact_gate(baselines, current_dir):
    failures = []
    for bpath in baselines:
        cpath = current_dir / bpath.name
        if not cpath.exists():
            failures.append(f"{bpath.name}: no current output at {cpath}")
            continue
        base = without_host_fields(json.loads(bpath.read_text()))
        cur = without_host_fields(json.loads(cpath.read_text()))
        failures.extend(f"{bpath.name}: {path}: {b!r} -> {c!r}"
                        for path, b, c in diff_fields(base, cur))
    if failures:
        print(f"EXACT GATE FAILED ({len(failures)} field(s) differ from "
              "the baselines, host fields excluded):")
        for f in failures[:50]:
            print(f"  {f}")
        if len(failures) > 50:
            print(f"  ... and {len(failures) - 50} more")
        print("\nIf simulated behaviour changed on purpose, refresh the "
              "baselines and name the changed records, or add the "
              "`perf-gate-override` label to the PR.")
        return 1
    print(f"exact gate passed: {len(baselines)} file(s) identical to the "
          "baselines apart from host fields")
    return 0


def compare(name, base, cur, p99_tol, be_tol):
    failures = []

    def keystr(key):
        return "/".join(str(k) for k in key)

    for key, bm in sorted(base.items()):
        cm = cur.get(key)
        if cm is None:
            failures.append(f"{name}: {keystr(key)}: present in baseline "
                            "but missing from current output")
            continue
        b99, c99 = bm.get("p99_ms"), cm.get("p99_ms")
        if b99 is not None and c99 is not None and b99 > 0:
            limit = max(b99 * (1.0 + p99_tol), b99 + ABS_P99_FLOOR_MS)
            if c99 > limit:
                failures.append(
                    f"{name}: {keystr(key)}: p99 {c99:.3f} ms vs baseline "
                    f"{b99:.3f} ms (+{100.0 * (c99 / b99 - 1.0):.1f}%, "
                    f"limit +{100.0 * p99_tol:.0f}%)")
        bok, cok = bm.get("ok"), cm.get("ok")
        if bok is True and cok is not True:
            # False is a regression; null/missing means the metric became
            # no-data (zero served requests) — vacuous attainment must
            # fail the gate, not slide through as a pass.
            what = ("false now" if cok is False else
                    "no-data now (zero served requests)")
            failures.append(
                f"{name}: {keystr(key)}: pass/fail metric was true in the "
                f"baseline but is {what}")
        batt, catt = bm.get("att"), cm.get("att")
        if batt is not None and catt is None:
            failures.append(
                f"{name}: {keystr(key)}: attainment was {batt:.3f} in the "
                "baseline but is no-data now (zero served requests)")
        bbe, cbe = bm.get("be"), cm.get("be")
        if bbe is not None and cbe is not None and bbe > ABS_BE_FLOOR:
            limit = bbe * (1.0 - be_tol)
            if cbe < limit:
                failures.append(
                    f"{name}: {keystr(key)}: BE throughput {cbe:.1f}/s vs "
                    f"baseline {bbe:.1f}/s "
                    f"({100.0 * (cbe / bbe - 1.0):.1f}%, limit "
                    f"-{100.0 * be_tol:.0f}%)")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_dir", type=pathlib.Path)
    ap.add_argument("current_dir", type=pathlib.Path)
    ap.add_argument("--p99-tolerance", type=float, default=0.15,
                    help="max allowed relative p99 growth (default 0.15)")
    ap.add_argument("--be-tolerance", type=float, default=0.10,
                    help="max allowed relative BE-throughput drop "
                         "(default 0.10)")
    ap.add_argument("--exact", action="store_true",
                    help="fail on any change to a non-host field instead "
                         "of applying the tolerances")
    args = ap.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        raise SystemExit(f"no BENCH_*.json baselines in {args.baseline_dir}")
    if args.exact:
        return exact_gate(baselines, args.current_dir)

    failures = []
    checked = 0
    for bpath in baselines:
        cpath = args.current_dir / bpath.name
        if not cpath.exists():
            failures.append(f"{bpath.name}: no current output at {cpath}")
            continue
        base = extract(bpath)
        cur = extract(cpath)
        failures.extend(
            compare(bpath.name, base, cur, args.p99_tolerance,
                    args.be_tolerance))
        cdoc = json.loads(cpath.read_text())
        validator = VALIDATORS.get(cdoc.get("bench"))
        if validator:
            failures.extend(validator(cdoc, bpath.name))
        checked += len(base)

    if failures:
        print(f"PERF GATE FAILED ({len(failures)} regression(s) across "
              f"{checked} baseline records):")
        for f in failures:
            print(f"  {f}")
        print("\nIf this regression is intentional, refresh the baselines "
              "(see tools/bench_compare.py docstring) or add the "
              "`perf-gate-override` label to the PR.")
        return 1
    print(f"perf gate passed: {checked} baseline records within tolerance "
          f"(p99 +{100.0 * args.p99_tolerance:.0f}%, "
          f"BE -{100.0 * args.be_tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
