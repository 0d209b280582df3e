// Dynamic request batching: the throughput-for-latency axis, swept over
// max batch size × systems on one GPU. One latency-sensitive service
// (model A, bursty Apollo-like arrivals) batches up to N requests per
// launch (fixed assembly timeout) beside two concurrent best-effort
// tenants:
//
//   * SGDRC           — the batch-aware controller (SGDRC wrapped with
//                       the occupancy feedback loop of
//                       control/batch_aware.h);
//   * SGDRC (Static)  — frozen even split, no tide, no occupancy loop;
//   * Multi-streaming — no control at all.
//
// The headline: batching >1 amortises per-kernel launch overhead and
// weight traffic, so the GPU time the LS service frees flows to
// best-effort — BE samples/s rises with the batch cap — while SGDRC
// holds the LS p99 within its (fixed) SLO in every swept cell. Exit
// status enforces the SGDRC-holds-SLO half, like vgpu_isolation.
//
//   ./batching_sweep [--json BENCH_batching.json] [--seed N]
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
#include "control/batch_aware.h"
#include "core/harness.h"

using namespace sgdrc;
using namespace sgdrc::core;

namespace {

constexpr TimeNs kAssemblyTimeout = 1500 * kNsPerUs;

struct Cell {
  unsigned max_batch = 1;
  std::string system;  // registry key ("SGDRC" runs the batch-aware wrap)
};

struct CellResult {
  Cell cell;
  workload::ServingMetrics metrics;
  TimeNs slo = 0;
};

/// "SGDRC" cells run the batch-occupancy feedback controller; the name
/// stays the family name so the sweep reads as the Fig. 17 comparison.
std::string controller_name(const std::string& system) {
  return system == "SGDRC" ? "SGDRC (Batch-aware)" : system;
}

CellResult run_cell(const ServingHarness& h, const Cell& cell,
                    double slo_multiplier) {
  const auto& sys = baselines::system(controller_name(cell.system));
  ServingSimBuilder b;
  b.gpu(h.options().spec)
      .duration(h.options().duration)
      .slo_multiplier(slo_multiplier)
      .best_effort_mode(BeMode::kConcurrent)
      .seed(h.options().seed);
  b.add_latency_sensitive(sys.uses_spt ? h.ls_model_spt(0) : h.ls_model(0),
                          h.isolated_latency(0));
  if (cell.max_batch > 1) {
    b.batching(workload::batch_up_to(cell.max_batch, kAssemblyTimeout));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    b.add_best_effort(sys.uses_spt ? h.be_model_spt(i) : h.be_model(i));
  }
  const auto controller = sys.make(h.options().spec);
  auto sim = b.build(*controller);
  const TimeNs slo = sim->slo_of(0);
  return {cell, sim->run(h.trace()), slo};
}

double occupancy_of(const workload::TenantMetrics& ls, unsigned max_batch) {
  // max_batch 1 disables the assembly queue: every request is its own
  // job, occupancy 1 by definition. A batching cell that never launched
  // a batch has no occupancy — NaN (null in the JSON), not a made-up 1.
  if (max_batch <= 1) return 1.0;
  if (ls.batch_sizes.empty()) return std::numeric_limits<double>::quiet_NaN();
  return ls.batch_sizes.mean();
}

void emit_json(const std::string& path, const std::vector<CellResult>& all,
               TimeNs duration, unsigned sgdrc_slo_ok, unsigned sgdrc_cells) {
  std::ofstream os(path);
  SGDRC_REQUIRE(os.good(), "cannot open JSON output path");
  JsonWriter j(os);
  j.begin_object();
  j.kv("bench", "batching_sweep");
  j.kv("duration_ms", to_ms(duration));
  j.kv("assembly_timeout_ms", to_ms(kAssemblyTimeout));
  j.kv("sgdrc_cells_within_slo", static_cast<uint64_t>(sgdrc_slo_ok));
  j.kv("sgdrc_cells", static_cast<uint64_t>(sgdrc_cells));
  j.key("cells").begin_array();
  for (const auto& r : all) {
    const auto& ls = r.metrics.tenants[0];
    j.begin_object();
    j.kv("max_batch", r.cell.max_batch);
    j.kv("system", r.cell.system);
    j.kv("controller", controller_name(r.cell.system));
    j.kv("p99_ms", ls.p99_ms());
    j.kv("slo_ms", to_ms(r.slo));
    // Null (not a vacuous true) when the tenant served nothing.
    if (ls.has_latency_data()) {
      j.kv("slo_ok", ls.p99_ms() <= to_ms(r.slo));
    } else {
      j.kv("slo_ok", std::numeric_limits<double>::quiet_NaN());
    }
    j.kv("attainment", ls.attainment());
    j.kv("mean_batch_occupancy", occupancy_of(ls, r.cell.max_batch));
    j.kv("ls_goodput_per_s", r.metrics.ls_goodput());
    j.kv("be_samples_per_s", r.metrics.be_throughput());
    j.kv("overall_per_s", r.metrics.overall_throughput());
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("wrote %s (%zu cells)\n", path.c_str(), all.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = sgdrc::bench::BenchCli::parse(argc, argv);
  const uint64_t seed = cli.seed_or(0xba7c);
  const TimeNs duration = 1 * kNsPerSec;
  const std::vector<unsigned> batches = {1, 2, 4, 8, 16, 32};
  // Fixed SLO across every cell: batching must live inside the same
  // budget single-request serving gets (assembly wait included).
  const double slo_multiplier = 11.0;

  HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.ls_letters = "A";
  o.be_letters = "IJ";
  o.utilization = 0.45;   // bursty near-half load: assembly queues fill
  o.burstiness = 0.5;     // frame-aligned bursts are what batching eats
  o.duration = duration;
  o.seed = seed;
  const ServingHarness h(o);

  const std::vector<std::string> systems = {"SGDRC", "SGDRC (Static)",
                                            "Multi-streaming"};
  std::vector<Cell> cells;
  for (const unsigned b : batches) {
    for (const auto& s : systems) cells.push_back({b, s});
  }
  std::printf("request-batching sweep on %s: LS model A (%.0f req/s, "
              "assembly %.1f ms, SLO %.1fx iso) + %zu concurrent BE "
              "tenants, batch cap 1..%u x %zu systems\n",
              o.spec.name.c_str(), h.rate_for(0), to_ms(kAssemblyTimeout),
              slo_multiplier, h.be_count(), batches.back(), systems.size());

  std::vector<CellResult> results(cells.size());
  ThreadPool pool(8);
  pool.parallel_for(cells.size(), [&](size_t i) {
    results[i] = run_cell(h, cells[i], slo_multiplier);
  });

  TextTable t({"batch", "system", "occup.", "p99 ms", "SLO ms", "SLO?",
               "att.", "LS goodput/s", "BE samples/s"});
  unsigned sgdrc_slo_ok = 0, sgdrc_cells = 0;
  for (const auto& r : results) {
    const auto& ls = r.metrics.tenants[0];
    const bool ok = ls.has_latency_data() && ls.p99_ms() <= to_ms(r.slo);
    if (r.cell.system == "SGDRC") {
      ++sgdrc_cells;
      sgdrc_slo_ok += ok;
    }
    t.add_row({std::to_string(r.cell.max_batch), r.cell.system,
               TextTable::num(occupancy_of(ls, r.cell.max_batch), 2),
               TextTable::num(ls.p99_ms(), 2),
               TextTable::num(to_ms(r.slo), 2), ok ? "yes" : "NO",
               TextTable::pct(ls.attainment()),
               TextTable::num(r.metrics.ls_goodput(), 0),
               TextTable::num(r.metrics.be_throughput(), 1)});
  }
  t.print();

  // The throughput half of the story: BE gains from LS batching.
  double be_at_1 = 0.0, be_best = 0.0;
  for (const auto& r : results) {
    if (r.cell.system != "SGDRC") continue;
    const double be = r.metrics.be_throughput();
    if (r.cell.max_batch == 1) be_at_1 = be;
    be_best = std::max(be_best, be);
  }
  std::printf("\nSGDRC holds the LS SLO in %u of %u batching cells; "
              "best-effort throughput %.1f -> %.1f samples/s "
              "(%+.0f%%) as the batch cap grows.\n",
              sgdrc_slo_ok, sgdrc_cells, be_at_1, be_best,
              be_at_1 > 0 ? 100.0 * (be_best / be_at_1 - 1.0) : 0.0);
  if (!cli.json_path.empty()) {
    emit_json(cli.json_path, results, duration, sgdrc_slo_ok, sgdrc_cells);
  }
  return sgdrc_slo_ok == sgdrc_cells ? 0 : 1;
}
