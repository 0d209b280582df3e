// Operator-DAG co-scheduling: the inception-style wide recipes
// (models::inception_ls / inception_be) swept through every registry
// system twice over the identical trace —
//
//   * DAG        — the model carries explicit kernel_deps
//                  (ModelBuilder::build_dag), so each request exposes a
//                  frontier of dependency-independent operators and the
//                  serving layer multi-launches them, Opara-style;
//   * serialized — the byte-for-byte same kernels as a flat chain, one
//                  kernel in flight per request (the pre-DAG behaviour).
//
// The headline: under SGDRC the DAG form strictly beats the serialized
// form on LS p99 without giving up SLO attainment — the branches of one
// request co-execute on disjoint slices of the tidal LS region while
// §4's spatial-temporal rule keeps counting the tenant as ONE co-runner
// (SgdrcPolicy::kIntraTenantWidth). The exit code gates exactly that:
// non-zero unless SGDRC's DAG p99 < serialized p99 with attainment >=
// the serialized run's.
//
//   ./dag_parallelism [--json BENCH_dag.json] [--seed N]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_cli.h"
#include "common/json.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "models/zoo.h"
#include "workload/trace.h"

using namespace sgdrc;
using namespace sgdrc::core;

namespace {

struct Cell {
  std::string system;  // registry key
  bool dag = false;    // explicit kernel_deps vs serialized chain
};

struct CellResult {
  Cell cell;
  workload::ServingMetrics metrics;
  TimeNs slo = 0;
};

std::string label(const Cell& c) {
  return c.system + (c.dag ? " DAG" : " serialized");
}

/// The profiled model set: both forms of both inception recipes, plus
/// the SPT-transformed variants SGDRC runs. The DAG and serialized
/// forms hold byte-identical kernels — only kernel_deps differs — so
/// one isolated latency (the serialized sum) is the SLO base for both.
struct ModelSet {
  models::ModelDesc ls[2], be[2];          // [dag]
  models::ModelDesc ls_spt[2], be_spt[2];  // [dag]
  TimeNs iso = 0;
};

ModelSet build_models(const OfflineProfiler& prof) {
  ModelSet s;
  for (const int dag : {0, 1}) {
    s.ls[dag] = models::inception_ls(dag != 0);
    s.be[dag] = models::inception_be(dag != 0);
    prof.profile(s.ls[dag]);
    prof.profile(s.be[dag]);
    s.ls_spt[dag] = ServingHarness::transform_for_spt(s.ls[dag], prof);
    s.be_spt[dag] = ServingHarness::transform_for_spt(s.be[dag], prof);
  }
  s.iso = prof.isolated_latency(s.ls[0]);
  return s;
}

CellResult run_cell(const gpusim::GpuSpec& spec, const ModelSet& models,
                    const std::vector<workload::Request>& trace,
                    const Cell& cell, TimeNs duration,
                    double slo_multiplier, uint64_t seed) {
  const auto& sys = baselines::system(cell.system);
  const int d = cell.dag ? 1 : 0;
  ServingSimBuilder b;
  b.gpu(spec)
      .duration(duration)
      .slo_multiplier(slo_multiplier)
      .best_effort_mode(BeMode::kConcurrent)
      .seed(seed);
  b.add_latency_sensitive(sys.uses_spt ? models.ls_spt[d] : models.ls[d],
                          models.iso);
  b.add_best_effort(sys.uses_spt ? models.be_spt[d] : models.be[d]);
  const auto controller = sys.make(spec);
  auto sim = b.build(*controller);
  const TimeNs slo = sim->slo_of(0);
  return {cell, sim->run(trace), slo};
}

void emit_json(const std::string& path, const std::vector<CellResult>& all,
               TimeNs duration, double dag_p99, double serial_p99,
               double dag_att, double serial_att, bool gate_ok) {
  std::ofstream os(path);
  SGDRC_REQUIRE(os.good(), "cannot open JSON output path");
  JsonWriter j(os);
  j.begin_object();
  j.kv("bench", "dag_parallelism");
  j.kv("duration_ms", to_ms(duration));
  j.key("gate").begin_object();
  j.kv("system", "SGDRC");
  j.kv("dag_p99_ms", dag_p99);
  j.kv("serialized_p99_ms", serial_p99);
  j.kv("speedup", serial_p99 / dag_p99);
  j.kv("dag_attainment", dag_att);
  j.kv("serialized_attainment", serial_att);
  j.kv("ok", gate_ok);
  j.end_object();
  j.key("cells").begin_array();
  for (const auto& r : all) {
    const auto& ls = r.metrics.tenants[0];
    j.begin_object();
    j.kv("system", r.cell.system);
    j.kv("dag", r.cell.dag);
    j.kv("p99_ms", ls.p99_ms());
    j.kv("slo_ms", to_ms(r.slo));
    j.kv("attainment", ls.attainment());
    j.kv("be_samples_per_s", r.metrics.be_throughput());
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::printf("wrote %s (%zu cells)\n", path.c_str(), all.size());
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = sgdrc::bench::BenchCli::parse(argc, argv);
  const uint64_t seed = cli.seed_or(0xda60);
  const TimeNs duration = 1 * kNsPerSec;
  // SLO and load match the end-to-end benches: moderate LS utilisation
  // against one always-on BE colocation partner.
  const double utilization = 0.30;
  const double slo_multiplier = 6.0;

  const gpusim::GpuSpec spec = gpusim::rtx_a2000();
  const OfflineProfiler prof(spec);
  const ModelSet models = build_models(prof);

  workload::TraceOptions topt;
  topt.services = 1;
  topt.duration = duration;
  topt.burstiness = 0.35;
  topt.seed = seed;
  topt.per_service_rates.push_back(utilization / to_sec(models.iso));
  const auto trace = workload::generate_apollo_like_trace(topt);

  std::printf(
      "operator-DAG co-scheduling on %s: InceptionLS (%zu kernels, "
      "4-branch blocks) + InceptionBE, DAG vs serialized, iso %.2f ms\n",
      spec.name.c_str(), models.ls[0].kernels.size(), to_ms(models.iso));

  std::vector<Cell> cells;
  for (const auto& sys : baselines::system_registry()) {
    cells.push_back({sys.name, true});
    cells.push_back({sys.name, false});
  }

  std::vector<CellResult> results(cells.size());
  ThreadPool pool(8);
  pool.parallel_for(cells.size(), [&](size_t i) {
    results[i] = run_cell(spec, models, trace, cells[i], duration,
                          slo_multiplier, seed);
  });

  TextTable t({"system", "p99 ms", "SLO ms", "att.", "BE samples/s"});
  double dag_p99 = 0, serial_p99 = 0, dag_att = 0, serial_att = 0;
  for (const auto& r : results) {
    const auto& ls = r.metrics.tenants[0];
    if (r.cell.system == "SGDRC") {
      (r.cell.dag ? dag_p99 : serial_p99) = ls.p99_ms();
      (r.cell.dag ? dag_att : serial_att) = ls.attainment();
    }
    t.add_row({label(r.cell), TextTable::num(ls.p99_ms(), 2),
               TextTable::num(to_ms(r.slo), 2),
               TextTable::pct(ls.attainment()),
               TextTable::num(r.metrics.be_throughput(), 1)});
  }
  t.print();

  const bool gate_ok = dag_p99 < serial_p99 && dag_att >= serial_att;
  std::printf(
      "\nSGDRC: DAG p99 %.2f ms vs serialized %.2f ms (%.2fx), "
      "attainment %.1f%% vs %.1f%% — %s\n",
      dag_p99, serial_p99, dag_p99 > 0 ? serial_p99 / dag_p99 : 0.0,
      100.0 * dag_att, 100.0 * serial_att,
      gate_ok ? "DAG co-scheduling pays for itself"
              : "GATE FAILED (DAG must strictly beat serialized)");
  if (!cli.json_path.empty()) {
    emit_json(cli.json_path, results, duration, dag_p99, serial_p99,
              dag_att, serial_att, gate_ok);
  }
  return gate_ok ? 0 : 1;
}
