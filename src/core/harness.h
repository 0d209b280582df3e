// ServingHarness: one-stop setup for §9's end-to-end scenario. Builds the
// Tab. 3 zoo, runs offline profiling, derives per-service request rates
// that put the LS side at a target utilisation, generates the Apollo-like
// trace, prepares SPT-transformed model variants for SGDRC, and runs any
// control::Controller over the identical workload — so every system in
// Fig. 17 is compared apples-to-apples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/serving.h"
#include "workload/trace.h"

namespace sgdrc::core {

struct HarnessOptions {
  gpusim::GpuSpec spec;
  gpusim::ExecutorParams exec_params;
  std::string ls_letters = "ABCDEFGH";  // Tab. 3 LS set
  std::string be_letters = "IJK";       // Tab. 3 BE set
  /// Target LS utilisation (fraction of serialized capacity) at scale 1.
  double utilization = 0.40;
  /// §9.2: heavy = 1.0, light = 0.5.
  double load_scale = 1.0;
  /// Fraction of requests arriving in frame-aligned bursts.
  double burstiness = 0.5;
  TimeNs duration = 2 * kNsPerSec;
  unsigned ls_instances = 4;
  /// How the BE tenants share the GPU: §9.2's round-robin rotation, or
  /// all tenants co-resident (opens N-way colocation scenarios).
  BeMode be_mode = BeMode::kRoundRobin;
  uint64_t seed = 0x5eed;
};

class ServingHarness {
 public:
  explicit ServingHarness(HarnessOptions opt);

  /// Run one system. `spt` selects the SPT-transformed model variants
  /// (SGDRC and SGDRC-Static run transformed memory-bound kernels and pay
  /// the §9.1.2 overhead; baselines run the original kernels).
  workload::ServingMetrics run(control::Controller& controller,
                               bool spt) const;

  const HarnessOptions& options() const { return opt_; }
  size_t ls_count() const { return ls_plain_.size(); }
  TimeNs isolated_latency(size_t service) const { return iso_.at(service); }
  double rate_for(size_t service) const { return rates_.at(service); }
  const models::ModelDesc& ls_model(size_t i) const { return ls_plain_[i]; }
  const models::ModelDesc& ls_model_spt(size_t i) const { return ls_spt_[i]; }
  const models::ModelDesc& be_model(size_t i) const { return be_plain_[i]; }
  const models::ModelDesc& be_model_spt(size_t i) const { return be_spt_[i]; }
  size_t be_count() const { return be_plain_.size(); }
  const std::vector<workload::Request>& trace() const { return trace_; }
  const OfflineProfiler& profiler() const { return *profiler_; }

  /// SPT-transform a profiled model: rewrite its memory-bound kernels
  /// (they carry the 2.9% overhead and the extra registers of Fig. 15b).
  static models::ModelDesc transform_for_spt(const models::ModelDesc& m,
                                             const OfflineProfiler& prof);

 private:
  HarnessOptions opt_;
  std::unique_ptr<OfflineProfiler> profiler_;
  std::vector<models::ModelDesc> ls_plain_, be_plain_;
  std::vector<models::ModelDesc> ls_spt_, be_spt_;
  std::vector<TimeNs> iso_;
  std::vector<double> rates_;
  std::vector<workload::Request> trace_;
};

}  // namespace sgdrc::core
