// The benchmark's four workloads. Each builds its inputs from a seed,
// runs its simulation cells one at a time on the calling thread, and
// reports per-cell results: host time, a digest of the simulated
// outcome, the correctness gate, and the counters the per-layer metrics
// are made from.
//
// Every workload runs each cell two ways:
//   * reference() — through the library's own runner (ServingSim::run,
//     FleetSim::run, run_scenario), unwrapped;
//   * prepare() + run_cells() — through the benchmark harness: forwarding
//     wrappers around controllers, routers and placements, and on
//     single-device cells a fleet-mode ServingSim whose EventQueue the
//     harness owns and steps with run_next().
// Equal digests prove the harness (traced or not) measures the library's
// own behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "forwarding.h"
#include "gpusim/kernel.h"
#include "gpusim/gpu_spec.h"

namespace perfbench {

struct SetupTimes {
  double profile_s = 0;        // model construction + offline profiling
  double spt_transform_s = 0;  // ServingHarness::transform_for_spt
  double trace_gen_s = 0;      // request traces
  double build_s = 0;          // sim / fleet construction
  uint64_t requests = 0;       // requests in the generated traces
  double total() const {
    return profile_s + spt_transform_s + trace_gen_s + build_s;
  }
};

struct CellOutcome {
  std::string name;
  bool sgdrc = false;  // the paper's system: feeds the simulated metrics
  bool fleet = false;
  double run_s = 0;    // first event to metrics in hand, host seconds
  std::string digest;  // hex digest of counters + raw latency samples
  std::string failure; // empty when the correctness gate passed

  // Simulated outcome (used for SGDRC cells).
  std::vector<double> ls_latency_ns;
  uint64_t ls_served = 0;
  uint64_t ls_attained = 0;
  double be_samples = 0;
  int64_t sim_duration_ns = 0;

  // Layer counters.
  uint64_t events = 0;
  uint64_t peak_pending = 0;  // single-device cells: EventQueue::slot_count
  uint64_t launches = 0;
  uint64_t evictions = 0;
  uint64_t kernels_done = 0;  // executor completions
  uint64_t requests_served = 0;
  double imbalance_cv = 0;
  uint64_t door_arrived = 0, door_admitted = 0, door_shed = 0,
           door_retries = 0, door_dropped = 0;
  uint64_t weight_loads = 0, paged_requests = 0, cold_requests = 0;
  uint64_t autoscaler_decisions = 0;
};

/// Host seconds of a pass's cells, summed.
inline double run_seconds(const std::vector<CellOutcome>& cells) {
  double s = 0;
  for (const auto& c : cells) s += c.run_s;
  return s;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Digest of every cell through the library's own runner, cell order.
  virtual std::vector<std::string> reference() = 0;
  /// Set-up: models, profiling, SPT transforms, traces, and the cells'
  /// sims, wrapped for the harness. A non-null probe makes the following
  /// run_cells() a traced pass (the wrappers hold it).
  virtual SetupTimes prepare(LayerProbe* probe) = 0;
  /// Run every prepared cell through the harness, in order, and release
  /// them. `probe` must be the one given to prepare().
  virtual std::vector<CellOutcome> run_cells(LayerProbe* probe) = 0;
  /// The kernels of every model the workload runs (set by prepare()).
  virtual std::vector<sgdrc::gpusim::KernelDesc> kernel_mix() const = 0;
  virtual sgdrc::gpusim::GpuSpec spec() const = 0;
  /// Workloads with a fleet engine: rerun the pass's cells on `threads`
  /// worker threads; returns host seconds, or nullopt when not applicable.
  /// `digests` receives one digest per cell.
  virtual std::optional<double> parallel_rerun(
      unsigned threads, std::vector<std::string>& digests) {
    (void)threads;
    (void)digests;
    return std::nullopt;
  }
};

/// The stock scenario names, in catalog order (per-scenario metrics).
const std::vector<std::string>& stock_scenario_names();

/// Throws std::invalid_argument for an unknown name. Without a seed the
/// workload's inputs are exactly those of the bench it comes from; a seed
/// scales each LS request stream's rate by up to +-0.5% (workloads.cc).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::optional<uint64_t> seed);

}  // namespace perfbench
