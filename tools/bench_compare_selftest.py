#!/usr/bin/env python3
"""Self-test for the CI perf gate (tools/bench_compare.py).

Runs the gate against synthetic fixture JSON and asserts it passes and
fails where it must — in particular the vacuous-attainment regression:
a quota cell whose `slo_ok` turns null (tenant served zero requests)
must FAIL against a baseline where it was true, and a numeric
`attainment` turning null must fail too. Registered as a ctest so the
gate's own behaviour is regression-tested alongside the C++ suite.

It also covers the --exact mode: a change inside the tolerances still
fails it, and a change to a host-only field (wall clock, thread count)
passes both gates.

Usage: tools/bench_compare_selftest.py   (exit 0 = all checks hold)
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

GATE = pathlib.Path(__file__).resolve().parent / "bench_compare.py"

BASELINE_VGPU = {
    "bench": "vgpu_isolation",
    "quick": True,
    "duration_ms": 250.0,
    "cells": [
        {"be_tenants": 4, "system": "SGDRC + quota", "quota": True,
         "p99_ms": 3.2, "slo_ms": 5.9, "slo_ok": True, "attainment": 1.0,
         "be_samples_per_s": 27.4, "guarantee_violations": 0},
        {"be_tenants": 4, "system": "Multi-streaming", "quota": False,
         "p99_ms": 12.6, "slo_ms": 5.9, "slo_ok": False, "attainment": 0.35,
         "be_samples_per_s": 31.0, "guarantee_violations": 9000},
    ],
}


BASELINE_MEMORY = {
    "bench": "memory_pressure",
    "quick": True,
    "duration_ms": 300.0,
    "sgdrc_cold_p99_wins": 2,
    "compared_pressures": 2,
    "cells": [
        {"pressure": 2.0, "vram_mb": 80.0, "system": "SGDRC (memory-quota)",
         "p99_ms": 14.4, "cold_start_p99_ms": 10.1, "cold_requests": 12,
         "weight_loads": 45, "weight_evictions": 33, "paged_requests": 0,
         "goodput_per_s": 4100.0, "attainment": 0.99, "slo_ok": True,
         "memory_trespasses": 0, "requests": 1300},
        {"pressure": 2.0, "vram_mb": 80.0, "system": "Naive (resident-FIFO)",
         "p99_ms": 96.2, "cold_start_p99_ms": 162.5, "cold_requests": 400,
         "weight_loads": 1332, "weight_evictions": 1320, "paged_requests": 0,
         "goodput_per_s": 2500.0, "attainment": 0.61, "slo_ok": False,
         "memory_trespasses": 0, "requests": 1300},
    ],
}


BASELINE_FLEET = {
    "bench": "fleet_scaling",
    "quick": True,
    "hw_threads": 16,
    "runs": [
        {"devices": 4, "placement": "spread", "router": "round-robin",
         "system": "SGDRC", "fleet_p99_ms": 2.1, "be_samples_per_s": 210.0},
        {"devices": 16, "placement": "packed", "router": "least-outstanding",
         "system": "SGDRC", "fleet_p99_ms": 2.4, "be_samples_per_s": 700.0},
    ],
    "throughput": [
        {"devices": 256, "threads": 16, "sim_ms": 40, "events": 624000,
         "serial_wall_ms": 1700.0, "parallel_wall_ms": 400.0,
         "serial_events_per_s": 367000.0, "parallel_events_per_s": 1560000.0,
         "serial_sim_s_per_wall_s": 0.023, "parallel_sim_s_per_wall_s": 0.1,
         "speedup": 4.25, "matches_serial": True},
    ],
}


BASELINE_SCENARIOS = {
    "bench": "scenario_sweep",
    "quick": True,
    "duration_ms": 240.0,
    "sgdrc_wins_vs_best_static": 2,
    "overload_order_ok": True,
    "scenario_count": 2,
    "scenarios": [
        {"name": "steady", "description": "constant load", "devices": 2,
         "autoscaled": False,
         "systems": [
             {"name": "SGDRC", "fleet_p99_ms": 2.6, "slo_attainment": 1.0,
              "ls_goodput_per_s": 940.0, "be_samples_per_s": 297.0,
              "requests": 230, "scaling_actions": 0},
         ]},
        {"name": "flash-overload", "description": "8x spike", "devices": 2,
         "autoscaled": False,
         "device_specs": ["RTX-A2000", "A100-SXM4-40GB"],
         "front_door": True,
         "systems": [
             {"name": "SGDRC", "fleet_p99_ms": 4.7, "slo_attainment": 0.95,
              "ls_goodput_per_s": 2300.0, "be_samples_per_s": 331.0,
              "requests": 639, "scaling_actions": 0,
              "front_door": {
                  "arrived": 639, "admitted": 610, "rejected": 0,
                  "shed": 61, "retries": 50, "dropped": 25,
                  "expired": 0, "pending_retries": 4,
                  "be_pause_events": 7, "be_paused_ms": 48.3,
                  "services": [
                      {"service": 0, "arrived": 192, "admitted": 192,
                       "rejected": 0, "shed": 0, "dropped": 0,
                       "attainment": 0.99, "demand_attainment": 0.99},
                      {"service": 1, "arrived": 226, "admitted": 201,
                       "rejected": 0, "shed": 30, "dropped": 12,
                       "attainment": 0.97, "demand_attainment": 0.86},
                  ]}},
         ]},
    ],
}


BASELINE_DAG = {
    "bench": "dag_parallelism",
    "quick": True,
    "duration_ms": 250.0,
    "gate": {"system": "SGDRC", "dag_p99_ms": 0.57, "serialized_p99_ms": 0.73,
             "speedup": 1.28, "dag_attainment": 1.0,
             "serialized_attainment": 1.0, "ok": True},
    "cells": [
        {"system": "SGDRC", "dag": True, "p99_ms": 0.57, "slo_ms": 4.4,
         "attainment": 1.0, "be_samples_per_s": 88.0},
        {"system": "SGDRC", "dag": False, "p99_ms": 0.73, "slo_ms": 4.4,
         "attainment": 1.0, "be_samples_per_s": 84.0},
        {"system": "MPS", "dag": True, "p99_ms": 1.9, "slo_ms": 4.4,
         "attainment": 0.98, "be_samples_per_s": 120.0},
    ],
}


def run_gate(baseline, current, name="BENCH_vgpu.json", flags=()):
    with tempfile.TemporaryDirectory() as tmp:
        bdir = pathlib.Path(tmp) / "baseline"
        cdir = pathlib.Path(tmp) / "current"
        bdir.mkdir()
        cdir.mkdir()
        (bdir / name).write_text(json.dumps(baseline))
        (cdir / name).write_text(json.dumps(current))
        proc = subprocess.run(
            [sys.executable, str(GATE), *flags, str(bdir), str(cdir)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def expect(name, rc, out, should_fail, needle=None):
    ok = (rc != 0) == should_fail and (needle is None or needle in out)
    status = "ok" if ok else "FAILED"
    print(f"  [{status}] {name}")
    if not ok:
        print(out)
    return ok


def main():
    checks = []

    rc, out = run_gate(BASELINE_VGPU, BASELINE_VGPU)
    checks.append(expect("identical output passes", rc, out, False))

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["slo_ok"] = False
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("slo_ok true -> false fails", rc, out, True,
                         "pass/fail metric was true"))

    # The vacuous-attainment regression: a quota cell that served zero
    # requests emits slo_ok: null / attainment: null; the gate used to
    # compare only `is False` and waved the null through as a pass.
    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["slo_ok"] = None
    cur["cells"][0]["attainment"] = None
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("slo_ok true -> null (no data) fails", rc, out,
                         True, "no-data now"))

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][1]["attainment"] = None
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("attainment number -> null fails", rc, out, True,
                         "attainment was"))

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["p99_ms"] = 5.0  # +56%
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("p99 regression fails", rc, out, True, "p99"))

    cur = copy.deepcopy(BASELINE_VGPU)
    del cur["cells"][1]
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("shrunk coverage fails", rc, out, True,
                         "missing from current output"))

    # A non-quota cell's slo_ok is informational; flipping it must not trip
    # the quota gate (Multi-streaming is *expected* to miss under floods).
    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][1]["slo_ok"] = True
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("non-quota slo_ok change passes", rc, out, False))

    # ---- memory_pressure extractor ----
    mem = "BENCH_memory.json"
    rc, out = run_gate(BASELINE_MEMORY, BASELINE_MEMORY, name=mem)
    checks.append(expect("memory: identical output passes", rc, out, False))

    cur = copy.deepcopy(BASELINE_MEMORY)
    cur["cells"][0]["cold_start_p99_ms"] = 50.0  # +395%
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: cold-start p99 regression fails", rc, out,
                         True, "cold"))

    # The quota stack keeping every request warm is an *improvement*: the
    # cold p99 lapses to null and the p99 comparison simply skips.
    cur = copy.deepcopy(BASELINE_MEMORY)
    cur["cells"][0]["cold_start_p99_ms"] = None
    cur["cells"][0]["cold_requests"] = 0
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: cold p99 -> null (no cold) passes", rc,
                         out, False))

    cur = copy.deepcopy(BASELINE_MEMORY)
    cur["cells"][0]["slo_ok"] = None
    cur["cells"][0]["attainment"] = None
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: quota slo_ok true -> null fails", rc, out,
                         True, "no-data now"))

    # The naive baseline is expected to blow its SLO; its slo_ok is
    # informational and must not arm the pass/fail gate.
    cur = copy.deepcopy(BASELINE_MEMORY)
    cur["cells"][1]["slo_ok"] = True
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: naive slo_ok change passes", rc, out,
                         False))

    cur = copy.deepcopy(BASELINE_MEMORY)
    cur["cells"][0]["goodput_per_s"] = 2000.0  # -51%
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: goodput drop fails", rc, out, True,
                         "throughput"))

    cur = copy.deepcopy(BASELINE_MEMORY)
    del cur["cells"][1]
    rc, out = run_gate(BASELINE_MEMORY, cur, name=mem)
    checks.append(expect("memory: shrunk coverage fails", rc, out, True,
                         "missing from current output"))

    # ---- fleet_scaling throughput extractor + absolute validator ----
    flt = "BENCH_fleet.json"
    rc, out = run_gate(BASELINE_FLEET, BASELINE_FLEET, name=flt)
    checks.append(expect("fleet: identical output passes", rc, out, False))

    # Bit-identity is a hard gate on any machine — a parallel engine that
    # diverges from serial is a correctness bug, not a perf number.
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["throughput"][0]["matches_serial"] = False
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("fleet: matches_serial false fails", rc, out, True,
                         "bit-for-bit"))

    # Speedup is gated only where the number measures the code: a wide
    # machine delivering < 3x fails ...
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["throughput"][0]["speedup"] = 1.4
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("fleet: low speedup on wide machine fails", rc, out,
                         True, "speedup"))

    # ... while the same speedup on a narrow CI runner passes (there is
    # no parallelism to be had below 8 hardware threads).
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["hw_threads"] = 2
    cur["throughput"][0]["speedup"] = 0.9
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("fleet: low speedup on narrow machine passes", rc,
                         out, False))

    cur = copy.deepcopy(BASELINE_FLEET)
    del cur["throughput"][0]
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("fleet: dropped throughput cell fails", rc, out,
                         True, "missing from current output"))

    cur = copy.deepcopy(BASELINE_FLEET)
    cur["runs"][0]["fleet_p99_ms"] = 5.0  # +138%
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("fleet: sweep p99 regression still fails", rc, out,
                         True, "p99"))

    # ---- scenario_sweep front-door extractor + absolute validator ----
    scn = "BENCH_scenarios.json"
    rc, out = run_gate(BASELINE_SCENARIOS, BASELINE_SCENARIOS, name=scn)
    checks.append(expect("scenarios: identical output passes", rc, out,
                         False))

    # The overload gate is an absolute invariant of the current output:
    # a flash-overload run that stops degrading in QoS order fails even
    # if every relative number is within tolerance.
    cur = copy.deepcopy(BASELINE_SCENARIOS)
    cur["overload_order_ok"] = False
    rc, out = run_gate(BASELINE_SCENARIOS, cur, name=scn)
    checks.append(expect("scenarios: overload order broken fails", rc, out,
                         True, "QoS-ordered"))

    # Conservation: arrived == admitted + dropped + pending_retries for
    # every front-door record — a leak is a front-door accounting bug.
    cur = copy.deepcopy(BASELINE_SCENARIOS)
    cur["scenarios"][1]["systems"][0]["front_door"]["dropped"] = 0
    rc, out = run_gate(BASELINE_SCENARIOS, cur, name=scn)
    checks.append(expect("scenarios: front-door leak fails", rc, out, True,
                         "leaked requests"))

    # Demand attainment counts shed/dropped requests against the tier;
    # it lapsing to null (zero door arrivals) is data loss, not a pass.
    cur = copy.deepcopy(BASELINE_SCENARIOS)
    svc = cur["scenarios"][1]["systems"][0]["front_door"]["services"][1]
    svc["demand_attainment"] = None
    rc, out = run_gate(BASELINE_SCENARIOS, cur, name=scn)
    checks.append(expect("scenarios: demand attainment -> null fails", rc,
                         out, True, "attainment was"))

    # A front-door per-service record disappearing shrinks the gate.
    cur = copy.deepcopy(BASELINE_SCENARIOS)
    del cur["scenarios"][1]["systems"][0]["front_door"]["services"][1]
    rc, out = run_gate(BASELINE_SCENARIOS, cur, name=scn)
    checks.append(expect("scenarios: dropped service record fails", rc, out,
                         True, "missing from current output"))

    # ---- dag_parallelism extractor + absolute validator ----
    dag = "BENCH_dag.json"
    rc, out = run_gate(BASELINE_DAG, BASELINE_DAG, name=dag)
    checks.append(expect("dag: identical output passes", rc, out, False))

    # The headline claim is an absolute invariant of the current output:
    # SGDRC's DAG form no longer strictly beating its serialized form
    # fails even when every relative number is within tolerance.
    cur = copy.deepcopy(BASELINE_DAG)
    cur["gate"]["ok"] = False
    rc, out = run_gate(BASELINE_DAG, cur, name=dag)
    checks.append(expect("dag: gate.ok false fails", rc, out, True,
                         "strictly beat"))

    cur = copy.deepcopy(BASELINE_DAG)
    cur["cells"][0]["p99_ms"] = 0.71  # +25%
    rc, out = run_gate(BASELINE_DAG, cur, name=dag)
    checks.append(expect("dag: DAG-cell p99 regression fails", rc, out, True,
                         "p99"))

    cur = copy.deepcopy(BASELINE_DAG)
    cur["cells"][2]["attainment"] = None
    rc, out = run_gate(BASELINE_DAG, cur, name=dag)
    checks.append(expect("dag: attainment -> null fails", rc, out, True,
                         "attainment was"))

    cur = copy.deepcopy(BASELINE_DAG)
    del cur["cells"][1]
    rc, out = run_gate(BASELINE_DAG, cur, name=dag)
    checks.append(expect("dag: dropped serialized cell fails", rc, out, True,
                         "missing from current output"))

    # ---- --exact: no change to a non-host field, whatever its size ----
    exact = ("--exact",)
    rc, out = run_gate(BASELINE_VGPU, BASELINE_VGPU, flags=exact)
    checks.append(expect("exact: identical output passes", rc, out, False))

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["p99_ms"] *= 1.05
    rc, out = run_gate(BASELINE_VGPU, cur)
    checks.append(expect("exact: 5% p99 change passes the tolerance gate",
                         rc, out, False))
    rc, out = run_gate(BASELINE_VGPU, cur, flags=exact)
    checks.append(expect("exact: 5% p99 change fails --exact", rc, out, True,
                         "cells[0].p99_ms"))

    # Wall-clock, rates, speedup and thread counts measure the recording
    # host; changing all of them at once passes both gates.
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["hw_threads"] = 4
    cell = cur["throughput"][0]
    cell["threads"] = 4
    for field in ("serial_wall_ms", "parallel_wall_ms",
                  "serial_events_per_s", "parallel_events_per_s",
                  "serial_sim_s_per_wall_s", "parallel_sim_s_per_wall_s",
                  "speedup"):
        cell[field] *= 0.7
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt)
    checks.append(expect("exact: host-field change passes the tolerance "
                         "gate", rc, out, False))
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt, flags=exact)
    checks.append(expect("exact: host-field change passes --exact", rc, out,
                         False))

    # The throughput cell's event count is simulated, not host time.
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["throughput"][0]["events"] += 1
    rc, out = run_gate(BASELINE_FLEET, cur, name=flt, flags=exact)
    checks.append(expect("exact: fleet event-count change fails --exact", rc,
                         out, True, "throughput[0].events"))

    # A type change is a change (a count turning into a float).
    cur = copy.deepcopy(BASELINE_DAG)
    cur["duration_ms"] = 250
    rc, out = run_gate(BASELINE_DAG, cur, name=dag, flags=exact)
    checks.append(expect("exact: int/float type change fails --exact", rc,
                         out, True, "duration_ms"))

    cur = copy.deepcopy(BASELINE_SCENARIOS)
    del cur["scenarios"][1]["systems"][0]["front_door"]["services"][1]
    rc, out = run_gate(BASELINE_SCENARIOS, cur, name=scn, flags=exact)
    checks.append(expect("exact: dropped record fails --exact", rc, out, True,
                         "<missing>"))

    if not all(checks):
        print("bench_compare selftest FAILED")
        return 1
    print(f"bench_compare selftest passed ({len(checks)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
