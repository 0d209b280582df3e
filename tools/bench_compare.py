#!/usr/bin/env python3
"""CI bench gate over the BENCH_*.json artifacts.

For every BENCH_*.json in BASELINE_DIR, reads the file of the same name
in CURRENT_DIR and fails (exit 1) when

  * the current file is missing or is not JSON;
  * any field differs from the baseline, in value or in JSON type (true
    vs 1, 1 vs 1.0), or a record is added or dropped. Only the fields
    that measure the recording host are exempt: fleet_scaling's
    `hw_threads` and its throughput cells' thread count, wall-clock
    times, rates and speedup (HOST_FIELDS);
  * an absolute invariant of the current output is violated, whatever
    the baseline holds (VALIDATORS):
      - fleet_scaling: every throughput cell reports matches_serial
        true (parallel bit-identical to serial), and on hosts with at
        least 8 hardware threads its speedup is at least 3x;
      - scenario_sweep: overload_order_ok holds (flash-overload
        degrades in QoS order) and every front-door record conserves
        requests (arrived == admitted + dropped + pending_retries);
      - dag_parallelism: gate.ok is true;
      - fig17_end_to_end: in every (GPU, load) cell SGDRC's
        slo_attainment is a number at least every other system's;
      - vgpu_isolation: every quota cell has slo_ok true;
      - batching_sweep: every SGDRC cell has slo_ok true;
      - memory_pressure: at every pressure >= 2 the memory-quota
        stack's cold-start p99 beats resident-FIFO's (a null SGDRC p99
        wins, a null naive p99 against SGDRC data loses);
    the last three are the benches' exit gates, recomputed from the
    cells, and also fail when the envelope's counts disagree with them.

The simulation is deterministic (fixed seeds, integer-ns clocks), so an
unchanged program reproduces every baseline exactly; see
docs/bench-json.md. A change that moves simulated behaviour on purpose
refreshes the baselines and names the changed records in CHANGES.md.
The one refresh recipe, from the repository root (fleet_scaling is the
only bench with a --quick length, and the one CI runs):

    cmake -B build -S . && cmake --build build -j
    ./build/fig17_end_to_end --json bench/baselines/BENCH_fig17.json
    ./build/scenario_sweep   --json bench/baselines/BENCH_scenarios.json
    ./build/vgpu_isolation   --json bench/baselines/BENCH_vgpu.json
    ./build/batching_sweep   --json bench/baselines/BENCH_batching.json
    ./build/memory_pressure  --json bench/baselines/BENCH_memory.json
    ./build/dag_parallelism  --json bench/baselines/BENCH_dag.json
    ./build/fleet_scaling --quick --json bench/baselines/BENCH_fleet.json

Override: label the PR `perf-gate-override` (documented in README) to
skip the gate on the PR run for intentional changes. The label cannot
reach the push-to-main run, so refresh the baselines before merging to
keep main green.

Usage: tools/bench_compare.py BASELINE_DIR CURRENT_DIR
"""

import argparse
import json
import pathlib
import sys

# Minimum hardware threads for the absolute speedup check, and the
# speedup the parallel engine must then deliver at every fleet size.
SPEEDUP_MIN_HW_THREADS = 8
SPEEDUP_FLOOR = 3.0


def validate_fleet(doc):
    """The parallel engine matches serial bit-for-bit everywhere and,
    when the recording host has 8+ hardware threads (so the number is
    physically meaningful), is at least 3x faster than serial."""
    failures = []
    hw = doc.get("hw_threads", 0)
    for cell in doc.get("throughput", []):
        if cell.get("matches_serial") is not True:
            failures.append(
                f"throughput/{cell.get('devices')}: parallel engine did not "
                "reproduce serial results bit-for-bit")
        speedup = cell.get("speedup")
        if (hw >= SPEEDUP_MIN_HW_THREADS and speedup is not None
                and speedup < SPEEDUP_FLOOR):
            failures.append(
                f"throughput/{cell.get('devices')}: parallel speedup "
                f"{speedup:.2f}x < {SPEEDUP_FLOOR:.0f}x on a "
                f"{hw}-hardware-thread machine")
    return failures


def validate_scenarios(doc):
    """flash-overload degrades in QoS order (the bench's own
    overload_order_ok), and every front-door record conserves requests:
    each first-attempt arrival ends admitted or dropped, or sits in a
    scheduled retry at the horizon. Rejected and shed count attempts,
    not outcomes, so they are outside the identity."""
    failures = []
    if doc.get("overload_order_ok") is False:
        failures.append("flash-overload degradation is not QoS-ordered "
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
                    f"{sc['name']}/{system['name']}: front door leaked "
                    f"requests: arrived {arrived} != admitted + dropped + "
                    f"pending_retries {accounted}")
    return failures


def validate_dag(doc):
    """Under SGDRC the DAG form strictly beats the serialized form on LS
    p99 without losing SLO attainment (the bench's exit gate)."""
    gate = doc.get("gate") or {}
    if gate.get("ok") is not True:
        return [f"{gate.get('system', 'SGDRC')}: DAG co-scheduling did not "
                "strictly beat the serialized form at equal attainment "
                "(gate.ok is not true)"]
    return []


def validate_fig17(doc):
    """SGDRC attains at least every other system's SLO rate in every
    (GPU, load) cell (the bench's exit gate). A null SGDRC attainment (no
    data) fails; another system's null is no rival."""
    failures = []
    for sc in doc.get("scenarios", []):
        cell = f"{sc.get('gpu')}/{sc.get('load')}"
        att = {s.get("name"): s.get("slo_attainment")
               for s in sc.get("systems", [])}
        sgdrc = att.get("SGDRC")
        if sgdrc is None:
            failures.append(f"{cell}: SGDRC has no SLO attainment")
            continue
        failures.extend(
            f"{cell}: SGDRC's SLO attainment {sgdrc} is below {name}'s "
            f"{value}"
            for name, value in att.items() if value is not None
            and value > sgdrc)
    return failures


def envelope_counts(doc, **recomputed):
    """The envelope's summary counts equal the ones recomputed from the
    cells."""
    return [f"envelope {key} is {doc.get(key)!r}, the cells give {value}"
            for key, value in recomputed.items() if doc.get(key) != value]


def slo_cells(doc, selected, label, within_key, total_key):
    """Every selected cell has slo_ok true, and the envelope's
    `within_key` and `total_key` count those cells."""
    cells = [c for c in doc.get("cells", []) if selected(c)]
    failures = [f"{label(c)}: LS p99 misses the SLO (slo_ok is "
                f"{c.get('slo_ok')!r})"
                for c in cells if c.get("slo_ok") is not True]
    return failures + envelope_counts(doc, **{
        within_key: len(cells) - len(failures), total_key: len(cells)})


def validate_vgpu(doc):
    """The guaranteed-quota LS tenant holds its SLO in every flood cell
    (the bench's exit gate)."""
    return slo_cells(
        doc, lambda c: c.get("quota") is True,
        lambda c: f"{c.get('be_tenants')} BE/{c.get('system')}",
        "quota_cells_within_slo", "quota_cells")


def validate_batching(doc):
    """SGDRC holds the LS SLO at every batch cap (the bench's exit
    gate)."""
    return slo_cells(
        doc, lambda c: c.get("system") == "SGDRC",
        lambda c: f"max_batch {c.get('max_batch')}/SGDRC",
        "sgdrc_cells_within_slo", "sgdrc_cells")


MEMORY_QUOTA = "SGDRC (memory-quota)"
RESIDENT_FIFO = "Naive (resident-FIFO)"


def validate_memory(doc):
    """At every pressure >= 2 the memory-quota stack's cold-start p99
    beats resident-FIFO's (the bench's exit gate). A side with no cold
    requests has a null p99: a null SGDRC p99 wins outright, a null
    naive p99 against SGDRC data is a loss."""
    cold = {}
    for c in doc.get("cells", []):
        cold.setdefault(c.get("pressure"), {})[c.get("system")] = (
            c.get("cold_start_p99_ms"))
    failures, wins, compared = [], 0, 0
    for pressure in sorted(p for p in cold
                           if isinstance(p, (int, float)) and p >= 2):
        by_system = cold[pressure]
        if MEMORY_QUOTA not in by_system or RESIDENT_FIFO not in by_system:
            failures.append(f"pressure {pressure}: missing a system")
            continue
        a, b = by_system[MEMORY_QUOTA], by_system[RESIDENT_FIFO]
        win = a is None or (b is not None and a < b)
        compared += 1
        wins += win
        if not win:
            failures.append(f"pressure {pressure}: {MEMORY_QUOTA}'s "
                            f"cold-start p99 {a} does not beat "
                            f"{RESIDENT_FIFO}'s {b}")
    return failures + envelope_counts(doc, sgdrc_cold_p99_wins=wins,
                                      compared_pressures=compared)


VALIDATORS = {
    "fleet_scaling": validate_fleet,
    "scenario_sweep": validate_scenarios,
    "dag_parallelism": validate_dag,
    "fig17_end_to_end": validate_fig17,
    "vgpu_isolation": validate_vgpu,
    "batching_sweep": validate_batching,
    "memory_pressure": validate_memory,
}


# The fields that measure the recording host, not the simulation:
# fleet_scaling's `hw_threads` and these fields of each throughput cell.
HOST_FIELDS = {
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
            {k: v for k, v in cell.items() if k not in HOST_FIELDS}
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


def check(bpath, cpath):
    """Every failure of one current file against its baseline."""
    if not cpath.exists():
        return [f"no current output at {cpath}"]
    try:
        cur = json.loads(cpath.read_text())
    except json.JSONDecodeError as e:
        return [f"{cpath} is not JSON: {e}"]
    base = json.loads(bpath.read_text())
    validator = VALIDATORS.get(cur.get("bench"), lambda doc: [])
    return validator(cur) + [
        f"{path}: {b!r} -> {c!r}" for path, b, c in diff_fields(
            without_host_fields(base), without_host_fields(cur))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_dir", type=pathlib.Path)
    ap.add_argument("current_dir", type=pathlib.Path)
    args = ap.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        raise SystemExit(f"no BENCH_*.json baselines in {args.baseline_dir}")
    failures = [f"{bpath.name}: {f}" for bpath in baselines
                for f in check(bpath, args.current_dir / bpath.name)]
    if failures:
        print(f"BENCH GATE FAILED ({len(failures)} failure(s)):")
        for f in failures:
            print(f"  {f}")
        print("\nIf simulated behaviour changed on purpose, refresh the "
              "baselines (tools/bench_compare.py docstring) and name the "
              "changed records, or add the `perf-gate-override` label to "
              "the PR.")
        return 1
    print(f"bench gate passed: {len(baselines)} file(s) equal to the "
          "baselines apart from host fields, and every validator holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
