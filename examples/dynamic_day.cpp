// One "day" of dynamic serving, compressed into 1.2 simulated seconds:
//
//   * morning   — light diurnal traffic ramps up (0.4x → 1.6x, sine)
//   * 10:00     — a new LS service launches (tenant arrival, model D)
//   * noon      — a batch team drops a best-effort backfill job on the
//                 fleet (BE arrival)
//   * evening   — service A's traffic flash-crowds 4x; the reactive
//                 autoscaler adds a replica and retires it when the
//                 crowd leaves
//   * 22:00     — the on-call tightens every SLO to 0.75x for the
//                 nightly latency audit
//
// All of it is one workload::Scenario script; the engine compiles the
// rate timeline into a trace and drives a 3-GPU fleet running SGDRC on
// every device. This is the template for scripting your own dynamics.
//
//   ./dynamic_day
#include <cstdio>

#include "common/table.h"
#include "core/profiler.h"
#include "core/sgdrc_policy.h"
#include "models/zoo.h"
#include "workload/scenario.h"

using namespace sgdrc;
using namespace sgdrc::workload;

int main() {
  const auto spec = gpusim::rtx_a2000();
  core::OfflineProfiler profiler(spec);

  auto ls_a = models::make_model('A');
  auto ls_b = models::make_model('B');
  auto ls_d = models::make_model('D');
  auto be_i = models::make_model('I');
  auto be_j = models::make_model('J');
  for (auto* m : {&ls_a, &ls_b, &ls_d, &be_i, &be_j}) profiler.profile(*m);
  const TimeNs iso_a = profiler.isolated_latency(ls_a);
  const TimeNs iso_b = profiler.isolated_latency(ls_b);
  const TimeNs iso_d = profiler.isolated_latency(ls_d);

  const TimeNs day = 1200 * kNsPerMs;  // 1 "hour" = 50 ms
  auto hour = [day](unsigned h) { return day * h / 24; };

  // The script. Initial mix: A and B serving since midnight, one
  // overnight batch job. Service indices: A=0, B=1, D=2 (it arrives).
  Scenario sc("dynamic-day", "a compressed day of dynamic serving", day);
  sc.devices(3)
      .diurnal(0.4, 1.6, 12)
      .arrive(hour(10),
              {core::latency_sensitive_tenant(ls_d, iso_d),
               0.45 / to_sec(iso_d), 2})
      .arrive(hour(12), {core::best_effort_tenant(be_j), 0.0, 2})
      .rate(0, hour(18), 4.0)   // the evening crowd piles onto A
      .rate(0, hour(21), 1.0)   // and disperses
      .slo_factor(hour(22), 0.75);
  fleet::AutoscalerOptions aso;
  aso.interval = 10 * kNsPerMs;
  sc.autoscale(aso);

  const std::vector<ScenarioTenant> initial{
      {core::latency_sensitive_tenant(ls_a, iso_a), 0.5 / to_sec(iso_a), 2},
      {core::latency_sensitive_tenant(ls_b, iso_b), 0.5 / to_sec(iso_b), 2},
      {core::best_effort_tenant(be_i), 0.0, 2},
  };

  ScenarioEngineConfig cfg;
  cfg.spec = spec;
  cfg.slo_multiplier = 4.0;
  cfg.seed = 0xda7;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 3 * kNsPerUs;

  std::printf("dynamic day on 3x %s: %s\n\n", spec.name.c_str(),
              sc.description().c_str());

  fleet::QosAwarePlacement placement;
  fleet::QosLoadAwareRouter router;
  const auto out = run_scenario(
      sc, initial, cfg, placement, router,
      [](const gpusim::GpuSpec& gs) -> std::unique_ptr<control::Controller> {
        return std::make_unique<core::SgdrcPolicy>(gs);
      });

  TextTable t({"tenant", "class", "p99 (ms)", "SLO att.", "served",
               "samples/s"});
  for (const auto& tm : out.metrics.tenants) {
    const bool ls = tm.qos == QosClass::kLatencySensitive;
    t.add_row({tm.name, qos_name(tm.qos),
               ls ? TextTable::num(tm.p99_ms(), 2) : "-",
               ls ? TextTable::pct(tm.attainment()) : "-",
               ls ? std::to_string(tm.served) : "-",
               ls ? "-"
                  : TextTable::num(tm.samples() / to_sec(day), 1)});
  }
  t.print();

  std::printf("\n%zu requests; fleet p99 %.2f ms, %.1f%% attainment, "
              "%.0f goodput/s, %.1f BE samples/s\n",
              out.requests, out.metrics.fleet_p99_ms(),
              100.0 * out.metrics.mean_attainment(),
              out.metrics.ls_goodput(), out.metrics.be_throughput());

  std::printf("\nautoscaler log (%zu actions):\n", out.scaling.size());
  for (const auto& s : out.scaling) {
    std::printf("  %6.0f ms  %-10s tenant %u on device %u -> %zu "
                "replica%s\n",
                to_ms(s.at), s.scale_up ? "scale-up" : "scale-down",
                s.tenant, s.device, s.replicas_after,
                s.replicas_after == 1 ? "" : "s");
  }
  std::printf(
      "\nReading: the diurnal trough leaves the GPUs to the batch jobs\n"
      "(monopolisation), the noon peak and the evening crowd trigger\n"
      "scale-ups that drain away once load falls, and the SLO tighten\n"
      "shows up as a lower attainment tail after hour 22 — all from one\n"
      "Scenario script.\n");
  return 0;
}
