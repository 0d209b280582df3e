#!/usr/bin/env python3
"""Self-test for the CI bench gate (tools/bench_compare.py).

Runs the gate against fixture JSON and asserts it passes and fails where
it must: any change to a non-host field fails, however small (a 5% p99
change, an `slo_ok` turning null, a dropped record, an int turning into
a float); a change to host fields only passes; and every validator fails
a violating current file even when the baseline holds the same value.
The Fig. 17, vGPU, batching and memory validators run on the committed
baselines, mutated (e.g. SGDRC (Static)'s P40-heavy attainment moved
into SGDRC's row). Registered as a ctest so the gate's own behaviour is
regression-tested alongside the C++ suite.

Usage: tools/bench_compare_selftest.py   (exit 0 = all checks hold)
"""

import copy
import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS = pathlib.Path(__file__).resolve().parent
GATE = TOOLS / "bench_compare.py"
BASELINES = TOOLS.parent / "bench" / "baselines"

BASELINE_VGPU = {
    "bench": "vgpu_isolation",
    "duration_ms": 1000,
    "quota_cells_within_slo": 1,
    "quota_cells": 1,
    "cells": [
        {"be_tenants": 4, "system": "SGDRC + quota", "quota": True,
         "p99_ms": 3.2, "slo_ms": 5.9, "slo_ok": True, "attainment": 1.0,
         "be_samples_per_s": 27.4, "guarantee_violations": 0},
        {"be_tenants": 4, "system": "Multi-streaming", "quota": False,
         "p99_ms": 12.6, "slo_ms": 5.9, "slo_ok": False, "attainment": 0.35,
         "be_samples_per_s": 31.0, "guarantee_violations": 9000},
    ],
}


BASELINE_FLEET = {
    "bench": "fleet_scaling",
    "quick": True,
    "hw_threads": 16,
    "runs": [
        {"devices": 4, "placement": "spread", "router": "round-robin",
         "system": "SGDRC", "fleet_p99_ms": 2.1, "be_samples_per_s": 210.0},
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
    "duration_ms": 1000,
    "overload_order_ok": True,
    "scenarios": [
        {"name": "flash-overload", "devices": 2, "front_door": True,
         "systems": [
             {"name": "SGDRC", "fleet_p99_ms": 4.7, "slo_attainment": 0.95,
              "front_door": {
                  "arrived": 639, "admitted": 610, "rejected": 0,
                  "shed": 61, "retries": 50, "dropped": 25,
                  "pending_retries": 4,
                  "services": [
                      {"service": 0, "arrived": 192, "admitted": 192,
                       "demand_attainment": 0.99},
                      {"service": 1, "arrived": 226, "admitted": 201,
                       "demand_attainment": 0.86},
                  ]}},
         ]},
    ],
}


BASELINE_DAG = {
    "bench": "dag_parallelism",
    "duration_ms": 1000,
    "gate": {"system": "SGDRC", "dag_p99_ms": 0.64, "serialized_p99_ms": 0.89,
             "speedup": 1.39, "dag_attainment": 1, "serialized_attainment": 1,
             "ok": True},
    "cells": [
        {"system": "SGDRC", "dag": True, "p99_ms": 0.64, "attainment": 1},
        {"system": "SGDRC", "dag": False, "p99_ms": 0.89, "attainment": 1},
    ],
}


def run_gate(baseline, current, name="BENCH_vgpu.json"):
    """Gate one file; `current` None leaves it out, a str is written
    verbatim."""
    with tempfile.TemporaryDirectory() as tmp:
        bdir = pathlib.Path(tmp) / "baseline"
        cdir = pathlib.Path(tmp) / "current"
        bdir.mkdir()
        cdir.mkdir()
        (bdir / name).write_text(json.dumps(baseline))
        if current is not None:
            (cdir / name).write_text(current if isinstance(current, str)
                                     else json.dumps(current))
        proc = subprocess.run(
            [sys.executable, str(GATE), str(bdir), str(cdir)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


def expect(checks, name, result, should_fail, needle=None):
    rc, out = result
    ok = (rc != 0) == should_fail and (needle is None or needle in out)
    print(f"  [{'ok' if ok else 'FAILED'}] {name}")
    if not ok:
        print(out)
    checks.append(ok)


def gate_mutated(baseline, mutate, name):
    """Gate the mutated document as both baseline and current, so only a
    validator can fail it."""
    doc = copy.deepcopy(baseline)
    mutate(doc)
    return run_gate(doc, doc, name)


def narrow_and_slow(doc):
    doc["hw_threads"] = 2
    doc["throughput"][0]["speedup"] = 0.9


def static_in_sgdrc_row(doc):
    """Fig. 17: SGDRC scores what SGDRC (Static) scores on the P40 heavy
    cell."""
    cell = next(sc for sc in doc["scenarios"]
                if sc["gpu"] == "Tesla P40" and sc["load"] == "heavy")
    rows = {s["name"]: s for s in cell["systems"]}
    rows["SGDRC"]["slo_attainment"] = rows["SGDRC (Static)"]["slo_attainment"]


def sgdrc_no_data(doc):
    for s in doc["scenarios"][0]["systems"]:
        if s["name"] == "SGDRC":
            s["slo_attainment"] = None


def memory_cell(doc, pressure, sgdrc):
    return next(c for c in doc["cells"] if c["pressure"] == pressure and
                c["system"].startswith("SGDRC") == sgdrc)


def sgdrc_cold_loses(doc):
    """Memory: the quota stack's pressure-4 cold p99 above naive's."""
    memory_cell(doc, 4, True)["cold_start_p99_ms"] = (
        memory_cell(doc, 4, False)["cold_start_p99_ms"] + 1.0)


def naive_cold_null(doc):
    """Memory: no naive cold request at pressure 2 against SGDRC data."""
    memory_cell(doc, 2, False)["cold_start_p99_ms"] = None


def sgdrc_cold_null(doc):
    """Memory: no SGDRC cold request at pressure 6 wins outright."""
    memory_cell(doc, 6, True)["cold_start_p99_ms"] = None


def main():
    checks = []

    expect(checks, "identical output passes",
           run_gate(BASELINE_VGPU, BASELINE_VGPU), False)
    expect(checks, "missing current file fails",
           run_gate(BASELINE_VGPU, None), True, "no current output")
    expect(checks, "malformed current file fails",
           run_gate(BASELINE_VGPU, '{"bench": "vgpu_isolation",'), True,
           "is not JSON")

    # ---- any non-host change fails, whatever its size ----
    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["slo_ok"] = None
    expect(checks, "slo_ok true -> null fails", run_gate(BASELINE_VGPU, cur),
           True, "cells[0].slo_ok: True -> None")

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][0]["p99_ms"] *= 1.05
    expect(checks, "5% p99 change fails", run_gate(BASELINE_VGPU, cur), True,
           "cells[0].p99_ms")

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["cells"][1]["p99_ms"] *= 0.5
    expect(checks, "p99 improvement fails", run_gate(BASELINE_VGPU, cur),
           True, "cells[1].p99_ms")

    cur = copy.deepcopy(BASELINE_VGPU)
    del cur["cells"][1]
    expect(checks, "dropped record fails", run_gate(BASELINE_VGPU, cur), True,
           "cells[1]: {")

    cur = copy.deepcopy(BASELINE_VGPU)
    cur["quick"] = False
    expect(checks, "added field fails", run_gate(BASELINE_VGPU, cur), True,
           "quick: '<missing>' -> False")

    # A count turning into a float is a change.
    cur = copy.deepcopy(BASELINE_VGPU)
    cur["duration_ms"] = 1000.0
    expect(checks, "int/float type change fails",
           run_gate(BASELINE_VGPU, cur), True, "duration_ms: 1000 -> 1000.0")

    # ---- host fields: wall clock, rates, speedup, thread counts ----
    flt = "BENCH_fleet.json"
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["hw_threads"] = 4
    cell = cur["throughput"][0]
    cell["threads"] = 4
    for field in ("serial_wall_ms", "parallel_wall_ms",
                  "serial_events_per_s", "parallel_events_per_s",
                  "serial_sim_s_per_wall_s", "parallel_sim_s_per_wall_s",
                  "speedup"):
        cell[field] *= 0.7
    expect(checks, "host-field-only change passes",
           run_gate(BASELINE_FLEET, cur, flt), False)

    # The throughput cell's event count is simulated, not host time.
    cur = copy.deepcopy(BASELINE_FLEET)
    cur["throughput"][0]["events"] += 1
    expect(checks, "fleet event-count change fails",
           run_gate(BASELINE_FLEET, cur, flt), True, "throughput[0].events")

    # ---- validators: absolute invariants of the current file ----
    scn, dag = "BENCH_scenarios.json", "BENCH_dag.json"
    fig, vgpu = "BENCH_fig17.json", "BENCH_vgpu.json"
    bat, mem = "BENCH_batching.json", "BENCH_memory.json"
    committed = {name: json.loads((BASELINES / name).read_text())
                 for name in (fig, vgpu, bat, mem)}
    for name, doc in committed.items():
        expect(checks, f"committed {name} passes", run_gate(doc, doc, name),
               False)
    fig17 = committed[fig]

    expect(checks, "memory: null SGDRC cold p99 wins outright",
           gate_mutated(committed[mem], sgdrc_cold_null, mem), False)

    # Speedup measures the code only on a wide machine.
    expect(checks, "fleet: low speedup on a narrow machine passes",
           gate_mutated(BASELINE_FLEET, narrow_and_slow, flt), False)

    for name, baseline, fname, mutate, needle in (
            ("fleet: matches_serial false fails", BASELINE_FLEET, flt,
             lambda d: d["throughput"][0].update(matches_serial=False),
             "bit-for-bit"),
            ("fleet: low speedup on a wide machine fails", BASELINE_FLEET,
             flt, lambda d: d["throughput"][0].update(speedup=1.4),
             "parallel speedup 1.40x"),
            ("scenarios: overload order broken fails", BASELINE_SCENARIOS,
             scn, lambda d: d.update(overload_order_ok=False),
             "QoS-ordered"),
            ("scenarios: front-door leak fails", BASELINE_SCENARIOS, scn,
             lambda d: d["scenarios"][0]["systems"][0]["front_door"].update(
                 dropped=0),
             "leaked requests"),
            ("dag: gate.ok false fails", BASELINE_DAG, dag,
             lambda d: d["gate"].update(ok=False), "strictly beat"),
            ("fig17: SGDRC (Static)'s P40-heavy attainment in SGDRC's row "
             "fails", fig17, fig, static_in_sgdrc_row,
             "Tesla P40/heavy: SGDRC's SLO attainment 0.152499916 is below "
             "Orion's"),
            ("fig17: null SGDRC attainment fails", fig17, fig, sgdrc_no_data,
             "SGDRC has no SLO attainment"),
            ("vgpu: a quota cell over its SLO fails", committed[vgpu], vgpu,
             lambda d: d["cells"][0].update(slo_ok=False),
             "1 BE/SGDRC + quota: LS p99 misses the SLO"),
            ("vgpu: envelope count disagreeing with the cells fails",
             committed[vgpu], vgpu,
             lambda d: d.update(quota_cells=5),
             "envelope quota_cells is 5, the cells give 4"),
            ("batching: an SGDRC cell without latency data fails",
             committed[bat], bat,
             lambda d: d["cells"][0].update(slo_ok=None),
             "max_batch 1/SGDRC: LS p99 misses the SLO (slo_ok is None)"),
            ("memory: SGDRC's cold p99 above naive's fails", committed[mem],
             mem, sgdrc_cold_loses, "pressure 4: SGDRC (memory-quota)'s"),
            ("memory: a null naive cold p99 against SGDRC data fails",
             committed[mem], mem, naive_cold_null,
             "does not beat Naive (resident-FIFO)'s None")):
        expect(checks, name, gate_mutated(baseline, mutate, fname), True,
               needle)

    if not all(checks):
        print("bench_compare selftest FAILED")
        return 1
    print(f"bench_compare selftest passed ({len(checks)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
