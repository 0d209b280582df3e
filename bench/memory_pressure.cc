// GPU memory virtualization under pressure: a 12-service model fleet on
// 2 devices whose summed weight footprint is swept to 1x..6x the modeled
// VRAM (vram = sum weights / pressure). Traffic rotates through hot sets
// in three phases — the residency layer must keep re-deciding which
// weights stay warm — while service 0 holds a declared memory quota and
// stays hot all run. Two systems, both on the SGDRC controller:
//
//   * SGDRC (memory-quota)   — LRU-by-tenant-priority eviction that
//                              respects quotas and in-flight work, plus
//                              the warm-weight router that steers each
//                              request to a resident replica;
//   * Naive (resident-FIFO)  — first-loaded-first-evicted, blind to
//                              quotas, priority, and activity, behind a
//                              residency-blind least-outstanding router.
//
// The headline: SGDRC's cold-start p99 beats the naive stack at every
// pressure ratio >= 2x (no cold requests at all counts as a win).
//
//   ./memory_pressure [--json BENCH_memory.json] [--seed N]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_cli.h"
#include "common/json.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "workload/scenario.h"

using namespace sgdrc;
using namespace sgdrc::workload;

namespace {

constexpr unsigned kServices = 12;  // service i runs model letters[i % 6]
constexpr unsigned kDevices = 2;
constexpr double kColdMult = 0.15;  // trickle rate for out-of-phase services

struct Cell {
  double pressure = 1.0;  // sum(weights) / modeled VRAM
  bool sgdrc = true;      // memory-quota stack vs the naive FIFO stack
};

struct CellResult {
  Cell cell;
  uint64_t vram_bytes = 0;
  fleet::FleetMetrics metrics;
  size_t requests = 0;
};

const char* label(const Cell& c) {
  return c.sgdrc ? "SGDRC (memory-quota)" : "Naive (resident-FIFO)";
}

/// The 12 scripted services: every tenant replicated on both devices, so
/// each device's registered footprint is the full model zoo. Service 0
/// (the quota holder under SGDRC) pins its weights with a declared
/// memory_bytes guarantee and priority.
std::vector<ScenarioTenant> make_tenants(const core::ServingHarness& h,
                                         bool quota) {
  std::vector<ScenarioTenant> out;
  for (unsigned s = 0; s < kServices; ++s) {
    const size_t m = s % h.ls_count();
    core::TenantSpec spec = core::latency_sensitive_tenant(
        h.ls_model(m), h.isolated_latency(m));
    if (s == 0 && quota) {
      spec.vgpu.priority = 1;
      spec.vgpu.memory_bytes = spec.model->weight_bytes();
    }
    out.push_back({std::move(spec),
                   h.rate_for(m) * static_cast<double>(kDevices), kDevices});
  }
  return out;
}

/// A rolling hot set: each of services 1-11 runs at full rate for one
/// third of the run, with starts staggered evenly across the first two
/// thirds — so ~4-5 services are hot at any moment and the hot set
/// shifts by one service at a time (no synchronized mass flips). Cold
/// services idle at a trickle — exactly the traffic that pays cold
/// starts when the evictor guesses wrong; service 0 is hot throughout.
Scenario make_scenario(TimeNs d, const memory::MemoryOptions& mem) {
  Scenario sc("memory-pressure",
              "12 services, a rolling hot set, weights swept past VRAM",
              d);
  sc.devices(kDevices).memory(mem);
  for (unsigned s = 1; s < kServices; ++s) {
    const TimeNs hot_from = (s - 1) * (2 * d / 3) / (kServices - 2);
    const TimeNs hot_to = hot_from + d / 3;
    if (hot_from > 0) sc.rate(s, 0, kColdMult);
    sc.rate(s, hot_from, 1.0);
    if (hot_to < d) sc.rate(s, hot_to, kColdMult);
  }
  return sc;
}

CellResult run_cell(const core::ServingHarness& h, const Cell& cell,
                    uint64_t total_weights, TimeNs duration, uint64_t seed) {
  memory::MemoryOptions mem;
  mem.enabled = true;
  mem.vram_bytes_override = static_cast<uint64_t>(
      static_cast<double>(total_weights) / cell.pressure);
  mem.oversubscribe = true;
  // PCIe gen3-class weight streaming: heavy enough that a wrong
  // eviction costs real tail latency at every swept pressure.
  mem.load_gbps = 8.0;
  mem.evict = cell.sgdrc ? memory::EvictPolicy::kLruPriority
                         : memory::EvictPolicy::kFifo;

  ScenarioEngineConfig ecfg;
  ecfg.spec = h.options().spec;
  ecfg.exec_params = h.options().exec_params;
  ecfg.slo_multiplier = 8.0;
  ecfg.seed = seed;
  ecfg.burstiness = h.options().burstiness;

  const Scenario sc = make_scenario(duration, mem);
  // Placement is forced here (replicas == devices), but the quota stack
  // goes through the byte-aware bin-packer all the same — the path the
  // fleet layer uses when placements are real.
  fleet::QuotaAwarePlacement quota_placement(ecfg.spec.num_tpcs,
                                             mem.vram_bytes_override);
  fleet::SpreadPlacement spread_placement;
  const fleet::PlacementPolicy& placement =
      cell.sgdrc ? static_cast<const fleet::PlacementPolicy&>(quota_placement)
                 : spread_placement;
  fleet::WarmWeightRouter warm_router;
  fleet::LeastOutstandingRouter naive_router;
  fleet::Router& router =
      cell.sgdrc ? static_cast<fleet::Router&>(warm_router) : naive_router;

  const auto outcome =
      run_scenario(sc, make_tenants(h, cell.sgdrc), ecfg, placement, router,
                   baselines::system("SGDRC").make);
  return {cell, mem.vram_bytes_override, outcome.metrics, outcome.requests};
}

void emit_json(const std::string& path, const std::vector<CellResult>& all,
               TimeNs duration, unsigned wins, unsigned compared) {
  std::ofstream os(path);
  SGDRC_REQUIRE(os.good(), "cannot open JSON output path");
  JsonWriter j(os);
  j.begin_object();
  j.kv("bench", "memory_pressure");
  j.kv("duration_ms", to_ms(duration));
  j.kv("sgdrc_cold_p99_wins", static_cast<uint64_t>(wins));
  j.kv("compared_pressures", static_cast<uint64_t>(compared));
  j.key("cells").begin_array();
  for (const auto& r : all) {
    const auto& m = r.metrics;
    j.begin_object();
    j.kv("pressure", r.cell.pressure);
    j.kv("vram_mb", static_cast<double>(r.vram_bytes) / (1024.0 * 1024.0));
    j.kv("system", label(r.cell));
    j.kv("p99_ms", m.fleet_p99_ms());
    // No cold requests -> no cold p99: null, the best possible outcome
    // (the gate's null-propagation treats a regression *to* null on the
    // naive side as data loss, so the asymmetry is handled there).
    j.kv("cold_start_p99_ms", m.cold_start_p99_ms());
    j.kv("cold_requests", m.cold_requests());
    j.kv("weight_loads", m.weight_loads());
    j.kv("weight_evictions", m.weight_evictions());
    j.kv("paged_requests", m.paged_requests());
    j.kv("goodput_per_s", m.ls_goodput());
    j.kv("attainment", m.mean_attainment());
    const double att = m.mean_attainment();
    if (std::isnan(att)) {
      j.kv("slo_ok", std::numeric_limits<double>::quiet_NaN());
    } else {
      j.kv("slo_ok", att >= 0.9);
    }
    j.kv("memory_trespasses", m.memory_trespasses());
    j.kv("requests", static_cast<uint64_t>(r.requests));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("wrote %s (%zu cells)\n", path.c_str(), all.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = sgdrc::bench::BenchCli::parse(argc, argv);
  const uint64_t seed = cli.seed_or(0x3e30);
  const TimeNs duration = 1 * kNsPerSec;
  const std::vector<double> pressures = {1, 2, 4, 6};

  core::HarnessOptions ho;
  ho.spec = gpusim::rtx_a2000();
  ho.ls_letters = "ABCDFG";  // small serving models; duplicated to 12
  ho.be_letters = "";
  ho.utilization = 0.7;
  ho.burstiness = 0.35;
  ho.duration = duration;
  ho.seed = seed;
  const core::ServingHarness h(ho);

  uint64_t total_weights = 0;
  for (unsigned s = 0; s < kServices; ++s) {
    total_weights += h.ls_model(s % h.ls_count()).weight_bytes();
  }

  std::printf("memory pressure on %u-GPU %s fleets: %u services "
              "(%.0f MB registered per device), 3 rotating hot phases, "
              "vram swept to 1/pressure of the footprint\n",
              kDevices, ho.spec.name.c_str(), kServices,
              static_cast<double>(total_weights) / (1024.0 * 1024.0));

  std::vector<Cell> cells;
  for (const double p : pressures) {
    cells.push_back({p, true});
    cells.push_back({p, false});
  }
  std::vector<CellResult> results(cells.size());
  ThreadPool pool(8);
  pool.parallel_for(cells.size(), [&](size_t i) {
    results[i] = run_cell(h, cells[i], total_weights, duration, seed);
  });

  TextTable t({"pressure", "system", "p99 ms", "cold p99 ms", "cold req",
               "loads", "evict", "paged", "goodput/s", "att."});
  for (const auto& r : results) {
    const auto& m = r.metrics;
    const double cp = m.cold_start_p99_ms();
    t.add_row({TextTable::num(r.cell.pressure, 0), label(r.cell),
               TextTable::num(m.fleet_p99_ms(), 2),
               std::isnan(cp) ? "-" : TextTable::num(cp, 2),
               std::to_string(m.cold_requests()),
               std::to_string(m.weight_loads()),
               std::to_string(m.weight_evictions()),
               std::to_string(m.paged_requests()),
               TextTable::num(m.ls_goodput(), 0),
               TextTable::pct(m.mean_attainment())});
  }
  t.print();

  // Headline: at every pressure >= 2x, the quota stack's cold-start p99
  // beats the naive stack's. A side with no cold requests has no p99:
  // SGDRC-null wins outright, naive-null with SGDRC data is a loss,
  // both-null ties as a pass.
  unsigned wins = 0, compared = 0;
  for (const double p : pressures) {
    if (p < 2.0) continue;
    const CellResult* sg = nullptr;
    const CellResult* nv = nullptr;
    for (const auto& r : results) {
      if (r.cell.pressure != p) continue;
      (r.cell.sgdrc ? sg : nv) = &r;
    }
    SGDRC_CHECK(sg && nv, "sweep missing a system");
    const double a = sg->metrics.cold_start_p99_ms();
    const double b = nv->metrics.cold_start_p99_ms();
    const bool win = std::isnan(a) ? true : (std::isnan(b) ? false : a < b);
    ++compared;
    wins += win;
    std::printf("%spressure %.0fx: cold p99 %s vs %s ms (%s)\n",
                compared == 1 ? "\n" : "", p,
                std::isnan(a) ? "-" : TextTable::num(a, 2).c_str(),
                std::isnan(b) ? "-" : TextTable::num(b, 2).c_str(),
                win ? "win" : "LOSS");
  }
  std::printf("\nSGDRC (memory-quota) beats Naive (resident-FIFO) on "
              "cold-start p99 at %u of %u pressures >= 2x.\n",
              wins, compared);

  if (!cli.json_path.empty()) {
    emit_json(cli.json_path, results, duration, wins, compared);
  }
  return wins == compared ? 0 : 1;
}
