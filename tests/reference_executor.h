// Test-only reference executor: GpuExecutor as it was before the
// occupancy tables and the single completion event (docs/determinism.md).
// runtime_ns() rescans every running kernel once per TPC and once per
// channel, and recompute_rates() cancels and re-pushes one completion
// event per running kernel. The class body is kept verbatim so
// executor_crosscheck_test.cc can diff the library executor against the
// behaviour it replaced; it reuses the library's ExecutorParams, which
// did not change, and keeps a verbatim copy of the launch record of that
// time, where 0 means every TPC / channel. One addition: RunningInfo
// carries each kernel's current rate, as the library's does, so the
// cross-check can compare rates bit for bit. Not part of the sgdrc
// library.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/event_queue.h"
#include "common/sim_time.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/kernel.h"
#include "gpusim/resources.h"

namespace sgdrc::gpusim::reference {

struct KernelLaunch {
  const KernelDesc* kernel = nullptr;
  TpcMask tpc_mask = 0;      // 0 ⇒ all TPCs
  ChannelSet channels = 0;   // 0 ⇒ all channels
  uint64_t tag = 0;          // scheduler cookie (task id, queue id, ...)
};

class GpuExecutor {
 public:
  using LaunchId = uint64_t;
  /// Completion: launch id, completion time.
  using CompletionFn = std::function<void(LaunchId, TimeNs)>;
  /// Eviction: launch id, time the kernel actually stopped.
  using EvictionFn = std::function<void(LaunchId, TimeNs)>;

  GpuExecutor(const GpuSpec& spec, EventQueue& queue,
              ExecutorParams params = {});

  /// Start a kernel. The completion callback fires from the event queue.
  LaunchId launch(const KernelLaunch& l, CompletionFn on_complete);

  /// Preempt a running kernel via the eviction flag. Only preemptible
  /// kernels accept this. No-op (returns false) if already finished.
  bool evict(LaunchId id, EvictionFn on_evicted);

  size_t running_count() const { return running_.size(); }
  TimeNs now() const { return queue_.now(); }
  const GpuSpec& spec() const { return spec_; }
  const ExecutorParams& params() const { return params_; }

  /// Closed-form runtime of a kernel running alone with the given
  /// allocation — the offline profiler's measurement primitive.
  TimeNs solo_runtime(const KernelDesc& k, unsigned tpcs, unsigned channels,
                      bool spt_transformed) const;

  /// Resource views for schedulers.
  struct RunningInfo {
    const KernelDesc* kernel;
    TpcMask tpc_mask;
    ChannelSet channels;
    uint64_t tag;
    TimeNs started;
    double rate;  // fraction of its work per ns under the current sharing
  };
  std::optional<RunningInfo> info(LaunchId id) const;
  /// Snapshot of every running kernel (scheduler admission checks).
  std::vector<RunningInfo> running_infos() const;
  /// Union of TPC masks (channel sets) of running kernels.
  TpcMask busy_tpcs() const;
  ChannelSet busy_channels() const;

  uint64_t launches() const { return stats_launches_; }
  uint64_t completions() const { return stats_completions_; }
  uint64_t evictions() const { return stats_evictions_; }

 private:
  struct Running {
    KernelLaunch launch;
    CompletionFn on_complete;
    double remaining = 1.0;        // fraction of work left
    double rate = 0.0;             // fraction per ns under current alloc
    double demand_gbps = 0.0;      // natural bandwidth demand (bytes/ns)
    TimeNs last_update = 0;
    TimeNs started = 0;
    EventId completion_event = 0;
    bool has_completion_event = false;
    bool eviction_pending = false;
  };

  void settle_progress();      // apply rates up to now
  void recompute_rates();      // re-derive rates + completion events
  double runtime_ns(const Running& r) const;  // t under current sharing
  double parallelism_cap(const KernelDesc& k) const;
  void finish(LaunchId id);
  void kill(LaunchId id, EvictionFn on_evicted);

  double per_tpc_flops_per_ns() const;
  double per_channel_bytes_per_ns() const;

  GpuSpec spec_;
  EventQueue& queue_;
  ExecutorParams params_;
  std::map<LaunchId, Running> running_;
  LaunchId next_id_ = 1;
  uint64_t stats_launches_ = 0;
  uint64_t stats_completions_ = 0;
  uint64_t stats_evictions_ = 0;
};

}  // namespace sgdrc::gpusim::reference
