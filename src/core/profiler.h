// Offline profiling (§4's offline phase):
//
//  * min_tpcs per kernel — binary search for the smallest TPC count whose
//    runtime is within tolerance of the full-GPU runtime (the SM_LS the
//    tidal scheduler reserves, §7.1);
//  * memory-boundedness per kernel — co-run the kernel against an L2/VRAM
//    thrasher on disjoint TPCs; a kernel is memory-bound when its runtime
//    degrades (§7.2's definition);
//  * memory-bound flags on tensors — a tensor is memory-bound when some
//    memory-bound kernel accesses it;
//  * the model's isolated latency (the SLO base, §9.2).
#pragma once

#include "common/event_queue.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"
#include "models/model.h"

namespace sgdrc::core {

class OfflineProfiler {
 public:
  /// "Optimal latency" tolerance for the min-TPC binary search.
  static constexpr double kLatencyTolerance = 0.02;
  /// Degradation under the thrasher that marks a kernel memory-bound.
  static constexpr double kMemoryBoundThreshold = 0.10;

  OfflineProfiler(const gpusim::GpuSpec& spec,
                  gpusim::ExecutorParams exec_params = {});

  /// Fill kernel.min_tpcs / kernel.memory_bound and tensor.memory_bound.
  void profile(models::ModelDesc& m) const;

  /// Minimum TPCs for optimal latency of one kernel (binary search).
  unsigned min_tpcs_for(const gpusim::KernelDesc& k) const;

  /// §7.2's measurement: does an L2-thrashing co-runner on disjoint TPCs
  /// degrade this kernel?
  bool is_memory_bound(const gpusim::KernelDesc& k) const;

  /// Isolated end-to-end latency: kernels run back-to-back on the whole
  /// GPU (the p99-isolated base of the SLO; the simulator is
  /// deterministic, so p99 = the value itself).
  TimeNs isolated_latency(const models::ModelDesc& m) const;

  const gpusim::GpuSpec& spec() const { return spec_; }
  const gpusim::ExecutorParams& exec_params() const { return params_; }

 private:
  gpusim::GpuSpec spec_;
  gpusim::ExecutorParams params_;
};

}  // namespace sgdrc::core
