// Dynamic-scenario sweep: every scenario in the stock catalog (steady,
// diurnal, flash-crowd, tenant-churn, BE-backfill-surge, SLO-tighten,
// batching, model-zoo, hetero-diurnal, flash-overload, retry-storm,
// device-failure — see docs/scenarios.md) × {SGDRC, SGDRC (Static),
// MPS, Multi-streaming} on a small fleet. Load shifts, tenants churn,
// SLOs tighten, devices fail, demand exceeds capacity — the half of the
// paper's claim a fixed trace never stresses. Two gates:
//
//   1. Headline: dynamic SGDRC beats the best *static* baseline on
//      fleet LS p99 in most scenarios while keeping BE throughput
//      within 10% of that baseline.
//   2. Overload order (exit code): in flash-overload — an 8x spike on a
//      mixed A2000/A100 fleet through the front door — SGDRC must
//      degrade in QoS order: BE pauses first, low-priority LS sheds
//      next, and the premium tier (priority 2) sheds least and keeps
//      the highest attainment.
//
//   ./scenario_sweep [--json BENCH_scenarios.json] [--seed N]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_cli.h"
#include "common/json.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "models/zoo.h"
#include "workload/scenario.h"

using namespace sgdrc;
using namespace sgdrc::workload;

namespace {

// SGDRC first, then the *static-partitioning* baselines the headline
// compares against (the paper's static ablation and MPS's fixed thread
// split), then Multi-streaming as the no-control reference — it
// partitions nothing, so it is reported but not a "static baseline".
constexpr const char* kSystems[] = {"SGDRC", "SGDRC (Static)", "MPS",
                                    "Multi-streaming"};

// Construction and classification come from the shared registry: SPT
// selection (SGDRC variants run transformed kernels) and the
// static-partitioning flag the headline comparison keys on.
bool is_static(const std::string& system) {
  return baselines::system(system).static_partitioning;
}
bool uses_spt(const std::string& system) {
  return baselines::system(system).uses_spt;
}

fleet::ControllerFactory factory_for(const std::string& system) {
  return baselines::system(system).make;
}

/// Initial tenant mix (LS first — the catalog's churn script departs
/// initial tenant 1, which must be LS). Rates target the configured
/// per-device utilisation across a `devices`-wide fleet with 2-replica
/// tenants.
std::vector<ScenarioTenant> make_tenants(const core::ServingHarness& h,
                                         bool spt, unsigned devices) {
  std::vector<ScenarioTenant> out;
  for (size_t i = 0; i < h.ls_count(); ++i) {
    out.push_back({core::latency_sensitive_tenant(
                       spt ? h.ls_model_spt(i) : h.ls_model(i),
                       h.isolated_latency(i)),
                   h.rate_for(i) * static_cast<double>(devices), 2});
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    out.push_back({core::best_effort_tenant(spt ? h.be_model_spt(i)
                                                : h.be_model(i)),
                   0.0, 2});
  }
  return out;
}

struct SweepRun {
  std::string scenario;
  std::string system;
  unsigned devices = 0;
  ScenarioOutcome outcome;
};

void emit_json(const std::string& path, const std::vector<Scenario>& catalog,
               const std::vector<SweepRun>& runs, TimeNs duration,
               unsigned wins, bool overload_order_ok) {
  std::ofstream os(path);
  SGDRC_REQUIRE(os.good(), "cannot open JSON output path");
  JsonWriter j(os);
  j.begin_object();
  j.kv("bench", "scenario_sweep");
  j.kv("duration_ms", to_ms(duration));
  j.kv("sgdrc_wins_vs_best_static", static_cast<uint64_t>(wins));
  j.kv("overload_order_ok", overload_order_ok);
  j.kv("scenario_count", static_cast<uint64_t>(catalog.size()));
  j.key("scenarios").begin_array();
  for (const auto& sc : catalog) {
    j.begin_object();
    j.kv("name", sc.name());
    j.kv("description", sc.description());
    j.kv("devices", sc.device_count());
    j.kv("autoscaled", sc.autoscaled());
    // Heterogeneous scenarios carry one spec name per device; records
    // for homogeneous scenarios stay byte-identical to the pre-hetero
    // schema (no key at all), so refreshed baselines diff cleanly.
    if (!sc.device_specs().empty()) {
      j.key("device_specs").begin_array();
      for (const auto& spec : sc.device_specs()) j.value(spec.name);
      j.end_array();
    }
    if (sc.front_door_config().enabled) j.kv("front_door", true);
    j.key("systems").begin_array();
    for (const auto& r : runs) {
      if (r.scenario != sc.name()) continue;
      const auto& m = r.outcome.metrics;
      j.begin_object();
      j.kv("name", r.system);
      j.kv("fleet_p99_ms", m.fleet_p99_ms());
      j.kv("slo_attainment", m.mean_attainment());
      j.kv("ls_goodput_per_s", m.ls_goodput());
      j.kv("be_samples_per_s", m.be_throughput());
      j.kv("requests", static_cast<uint64_t>(r.outcome.requests));
      j.kv("scaling_actions",
           static_cast<uint64_t>(r.outcome.scaling.size()));
      if (sc.front_door_config().enabled) {
        const auto& fd = m.front_door;
        j.key("front_door").begin_object();
        j.kv("arrived", fd.arrived);
        j.kv("admitted", fd.admitted);
        j.kv("rejected", fd.rejected);
        j.kv("shed", fd.shed);
        j.kv("retries", fd.retries);
        j.kv("dropped", fd.dropped);
        j.kv("expired", fd.expired);
        j.kv("pending_retries", fd.pending_retries);
        j.kv("be_pause_events", fd.be_pause_events);
        j.kv("be_paused_ms", to_ms(fd.be_paused_ns));
        j.key("services").begin_array();
        for (size_t s = 0; s < fd.arrived_by_service.size(); ++s) {
          j.begin_object();
          j.kv("service", static_cast<uint64_t>(s));
          j.kv("arrived", fd.arrived_by_service[s]);
          j.kv("admitted", fd.admitted_by_service[s]);
          j.kv("rejected", fd.rejected_by_service[s]);
          j.kv("shed", fd.shed_by_service[s]);
          j.kv("dropped", fd.dropped_by_service[s]);
          if (s < m.tenants.size() &&
              m.tenants[s].qos == QosClass::kLatencySensitive) {
            j.kv("attainment", m.tenants[s].attainment());
            // Over demand (door arrivals), so shed requests count
            // against the tier — the QoS-order gate's metric.
            j.kv("demand_attainment",
                 fd.arrived_by_service[s]
                     ? static_cast<double>(m.tenants[s].attained) /
                           static_cast<double>(fd.arrived_by_service[s])
                     : 0.0);
          }
          j.end_object();
        }
        j.end_array();
        j.end_object();
      }
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("wrote %s (%zu scenarios x %zu systems)\n", path.c_str(),
              catalog.size(), std::size(kSystems));
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = sgdrc::bench::BenchCli::parse(argc, argv);
  const uint64_t seed = cli.seed_or(0x5ce0);
  const TimeNs duration = 1 * kNsPerSec;
  const unsigned devices = 2;

  core::HarnessOptions ho;
  ho.spec = gpusim::rtx_a2000();
  ho.ls_letters = "ABC";
  ho.be_letters = "IJ";
  ho.utilization = 0.4;
  ho.burstiness = 0.35;
  ho.duration = duration;
  ho.seed = seed;
  const core::ServingHarness h(ho);

  // Churn arrivals: a fourth LS model (D) and surge BE models (I/J/K
  // round-robin) minted per system variant inside run (SPT differs).
  core::OfflineProfiler prof(ho.spec, ho.exec_params);
  models::ModelDesc arrival_model = models::make_model('D');
  prof.profile(arrival_model);
  const TimeNs arrival_iso = prof.isolated_latency(arrival_model);
  const models::ModelDesc arrival_spt =
      core::ServingHarness::transform_for_spt(arrival_model, prof);
  models::ModelDesc surge_model = models::make_model('I');
  prof.profile(surge_model);
  const models::ModelDesc surge_spt =
      core::ServingHarness::transform_for_spt(surge_model, prof);

  ScenarioEngineConfig ecfg;
  ecfg.spec = ho.spec;
  ecfg.exec_params = ho.exec_params;
  ecfg.ls_instances = ho.ls_instances;
  // Constant n across every scenario and fleet shape (tenant churn would
  // otherwise drift the per-device default).
  ecfg.slo_multiplier = static_cast<double>(h.ls_count() + 1);
  ecfg.seed = seed;
  ecfg.dispatch_latency = 2 * kNsPerUs;
  ecfg.dispatch_jitter = 3 * kNsPerUs;
  ecfg.burstiness = ho.burstiness;

  // One catalog per SPT variant: churn/surge arrivals carry the model
  // flavour the system under test runs everywhere else.
  auto catalog_for = [&](bool spt) {
    ScenarioCatalogOptions copt;
    copt.duration = duration;
    copt.devices = devices;
    copt.initial_tenants =
        static_cast<unsigned>(h.ls_count() + h.be_count());
    const double arrival_rate =
        ho.utilization /
        (static_cast<double>(h.ls_count()) * to_sec(arrival_iso)) *
        static_cast<double>(devices);
    copt.make_ls_arrival = [&, spt, arrival_rate](unsigned) {
      return ScenarioTenant{
          core::latency_sensitive_tenant(spt ? arrival_spt : arrival_model,
                                         arrival_iso),
          arrival_rate, 2};
    };
    copt.make_be_arrival = [&, spt](unsigned) {
      return ScenarioTenant{
          core::best_effort_tenant(spt ? surge_spt : surge_model), 0.0, 2};
    };
    // model-zoo runs under modeled VRAM pressure (the registered
    // footprint of the churned model fleet well exceeds 256 MiB),
    // degrading to demand paging instead of rejecting; the other
    // scenarios ignore this and stay memory-less.
    copt.model_zoo_memory.enabled = true;
    copt.model_zoo_memory.vram_bytes_override = 256ull << 20;
    copt.model_zoo_memory.oversubscribe = true;
    // Mixed fleet for the heterogeneous scenarios: the workstation
    // baseline next to a datacenter A100 (~4.8x by the TPC+bandwidth
    // perf model). Everything else stays homogeneous A2000.
    copt.hetero_specs = {ho.spec, gpusim::a100_sxm4()};
    // Shed-oriented door for flash-overload / device-failure: no
    // admission bucket; BE pauses at queue depth 12, priority-0 LS
    // sheds at 20, the priority-2 premium tier not before 60. One
    // retry only — under a sustained spike the lower tiers must
    // actually lose demand, or "premium degrades last" is vacuous.
    copt.front_door.enabled = true;
    copt.front_door.be_pause_depth = 12;
    copt.front_door.shed_depth = 20;
    copt.front_door.max_retries = 1;
    // Admission-oriented door for retry-storm: a bucket sized near each
    // service's steady rate, so the 3x surge overdraws it and the
    // rejected herd exercises the backoff/jitter model.
    copt.admission_door.enabled = true;
    copt.admission_door.admit_rate = 120.0;
    copt.admission_door.admit_burst = 8.0;
    copt.admission_door.max_retries = 3;
    return scenario_catalog(copt);
  };
  const auto catalog_spt = catalog_for(true);
  const auto catalog_plain = catalog_for(false);

  std::printf("scenario sweep on %u-GPU %s fleets: %zu LS + %zu BE "
              "tenants, %zu scenarios x %zu systems, %.0f ms each\n",
              devices, ho.spec.name.c_str(), h.ls_count(), h.be_count(),
              catalog_spt.size(), std::size(kSystems), to_ms(duration));

  std::vector<SweepRun> runs(catalog_spt.size() * std::size(kSystems));
  ThreadPool pool(8);
  pool.parallel_for(runs.size(), [&](size_t i) {
    const size_t sc_i = i / std::size(kSystems);
    const std::string system = kSystems[i % std::size(kSystems)];
    const bool spt = uses_spt(system);
    const auto& catalog = spt ? catalog_spt : catalog_plain;
    const Scenario& sc = catalog[sc_i];
    // Heterogeneous scenarios place perf-aware (normalized against the
    // engine baseline spec); the empty-factor ctor is the exact legacy
    // homogeneous policy.
    fleet::QosAwarePlacement placement(
        sc.device_specs().empty()
            ? std::vector<double>{}
            : fleet::device_perf_factors(sc.device_specs(), ecfg.spec));
    fleet::QosLoadAwareRouter router;
    const auto outcome =
        run_scenario(sc, make_tenants(h, spt, devices), ecfg, placement,
                     router, factory_for(system));
    runs[i] = {sc.name(), system, sc.device_count(), outcome};
  });

  TextTable t({"scenario", "system", "fleet p99 ms", "SLO att.",
               "LS goodput/s", "BE samples/s", "requests", "scale ops"});
  for (const auto& r : runs) {
    const auto& m = r.outcome.metrics;
    t.add_row({r.scenario, r.system, TextTable::num(m.fleet_p99_ms(), 2),
               TextTable::pct(m.mean_attainment()),
               TextTable::num(m.ls_goodput(), 0),
               TextTable::num(m.be_throughput(), 1),
               std::to_string(r.outcome.requests),
               std::to_string(r.outcome.scaling.size())});
  }
  t.print();

  // Headline: SGDRC vs the best static baseline per scenario.
  unsigned wins = 0, be_ok = 0;
  std::printf("\nSGDRC vs best static baseline (by fleet LS p99):\n");
  for (const auto& sc : catalog_spt) {
    const SweepRun* dynamic = nullptr;
    const SweepRun* best_static = nullptr;
    for (const auto& r : runs) {
      if (r.scenario != sc.name()) continue;
      if (r.system == "SGDRC") {
        dynamic = &r;
      } else if (!is_static(r.system)) {
        continue;  // no-control reference, not a static baseline
      } else if (!best_static ||
                 r.outcome.metrics.fleet_p99_ms() <
                     best_static->outcome.metrics.fleet_p99_ms()) {
        best_static = &r;
      }
    }
    SGDRC_CHECK(dynamic && best_static, "sweep missing a system");
    const double dp = dynamic->outcome.metrics.fleet_p99_ms();
    const double sp = best_static->outcome.metrics.fleet_p99_ms();
    const double dbe = dynamic->outcome.metrics.be_throughput();
    const double sbe = best_static->outcome.metrics.be_throughput();
    const bool p99_win = dp < sp;
    const bool be_within = dbe >= 0.9 * sbe;
    wins += p99_win;
    be_ok += be_within;
    std::printf("  %-18s p99 %6.2f vs %6.2f ms (%s, best static: %s)  "
                "BE %7.1f vs %7.1f (%s)\n",
                sc.name().c_str(), dp, sp, p99_win ? "win " : "loss",
                best_static->system.c_str(), dbe, sbe,
                be_within ? "within 10%" : "BELOW");
  }
  std::printf("\nSGDRC beats the best static baseline on LS p99 in %u of "
              "%zu scenarios (BE within 10%% in %u).\n",
              wins, catalog_spt.size(), be_ok);

  // Overload-order gate: in flash-overload, SGDRC must degrade in QoS
  // order — BE actually paused, low-priority LS actually shed, and the
  // premium tier (service 0, priority 2) shed strictly least and left
  // with attainment no worse than any lower-priority LS service.
  bool overload_order_ok = true;
  for (const auto& r : runs) {
    if (r.scenario != "flash-overload" || r.system != "SGDRC") continue;
    const auto& m = r.outcome.metrics;
    const auto& fd = m.front_door;
    const auto shed_frac = [&](size_t s) {
      return fd.arrived_by_service[s]
                 ? static_cast<double>(fd.shed_by_service[s]) /
                       static_cast<double>(fd.arrived_by_service[s])
                 : 0.0;
    };
    // Attainment over *demand* (attained / door arrivals), not over
    // served: shedding a request is a degradation even though it never
    // produces a latency sample — attained/served would score a
    // hard-shedding tier as healthy.
    const auto demand_att = [&](size_t s) {
      return fd.arrived_by_service[s]
                 ? static_cast<double>(m.tenants[s].attained) /
                       static_cast<double>(fd.arrived_by_service[s])
                 : 0.0;
    };
    const bool be_paused = fd.be_paused_ns > 0;
    bool others_shed = false;      // some lower tier actually shed
    bool premium_least = true;     // premium shed frac <= every other
    bool premium_attains = true;   // premium demand att. >= every other
    const double premium_att = demand_att(0);
    for (size_t s = 1; s < fd.arrived_by_service.size(); ++s) {
      if (fd.shed_by_service[s] > 0) others_shed = true;
      if (shed_frac(0) > shed_frac(s)) premium_least = false;
      if (s < m.tenants.size() &&
          m.tenants[s].qos == QosClass::kLatencySensitive &&
          premium_att < demand_att(s)) {
        premium_attains = false;
      }
    }
    overload_order_ok =
        be_paused && others_shed && premium_least && premium_attains;
    std::printf(
        "\nflash-overload QoS order (SGDRC): BE paused %.1f ms (%s), "
        "premium shed %.1f%% vs worst other %.1f%% (%s), premium "
        "demand attainment %.1f%% (%s) -> %s\n",
        to_ms(fd.be_paused_ns), be_paused ? "ok" : "NEVER",
        100.0 * shed_frac(0),
        [&] {
          double worst = 0.0;
          for (size_t s = 1; s < fd.arrived_by_service.size(); ++s) {
            worst = std::max(worst, shed_frac(s));
          }
          return 100.0 * worst;
        }(),
        premium_least && others_shed ? "ordered" : "OUT OF ORDER",
        100.0 * premium_att, premium_attains ? "highest" : "NOT HIGHEST",
        overload_order_ok ? "PASS" : "FAIL");
  }

  if (!cli.json_path.empty()) {
    emit_json(cli.json_path, catalog_spt, runs, duration, wins,
              overload_order_ok);
  }
  if (!overload_order_ok) {
    std::printf("FAIL: flash-overload degradation is not QoS-ordered\n");
    return 1;
  }
  return 0;
}
