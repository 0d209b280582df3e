// Kernel-level discrete-event executor: the substrate on which every
// scheduler in the evaluation (SGDRC and all baselines) runs.
//
// Model: processor-sharing roofline. A running kernel's instantaneous
// runtime is
//
//   t = overhead + max(t_compute, t_memory) × (1 + spt_overhead?)
//
//   t_compute: FLOPs over the throughput of its TPC-mask share. TPCs
//     time-share among kernels whose masks overlap, with an intra-SM
//     interference penalty γ per co-runner (L1/FPU/shared-memory
//     contention — Fig. 3a). Parallelism is capped by the kernel's grid
//     (max_useful_tpcs) — why a minimum-TPC count exists (§7.1).
//   t_memory: bytes over the bandwidth of its channel-set share. Channels
//     are shared demand-proportionally among kernels whose channel sets
//     overlap, with an inter-SM penalty β per co-runner (L2/MSHR/bank
//     contention — Fig. 3b; this is what cache coloring removes). A
//     shrunken channel set also shrinks usable L2 (λ factor) — FGPU's
//     static-partitioning downside (§3.2).
//
// Rates are recomputed once per executor event and once per launch made
// outside one, so progress between events is linear (fluid processor
// sharing). A completion or eviction runs its callback with the executor
// held: launches inside it only record their change, and one recompute
// when the callback returns (or throws) covers them all.
//
// Grants. A launch carries an explicit gpusim::Allocation, the same type
// a controller's plan emits; resolve() expands its all() sentinel to the
// device masks and rejects empty or out-of-device grants, so the
// executor stores, computes with and reports (RunningInfo) only device
// masks.
//
// Hot path. Fixed-size occupancy tables follow every change instead of
// being rebuilt per recompute. A launch, completion or kill adds or
// removes its kernel's claim through one helper: per-TPC user counts and
// the share term 1 / (users × intra-SM penalty), and, for kernels that
// move bytes, per-channel user counts, 1 / users, the inter-SM penalty,
// the bandwidth at the equal-split floor and the summed bandwidth
// demand. A launch adds its demand to each channel's sum, which is then
// still the LaunchId-ordered sum because the new kernel has the largest
// id; a removal only marks its channels stale, and the next recompute
// rebuilds each stale sum from scratch in LaunchId order (never by
// subtraction, which would change bits). Rates walk only the set bits
// of a kernel's masks, in ascending order, so every sum adds the same
// terms in the same order as a rescan of every co-runner would, and
// every rate is bit-identical to it; kernels next to each other in
// LaunchId order with the same TPC mask share one sum per recompute.
// The running kernels are a vector in ascending LaunchId order, each
// with its parallelism cap and L2-scaled byte count computed at launch.
//
// The executor keeps ONE pending completion event, at the smallest (due,
// LaunchId) over its running kernels, and cancels and re-pushes it on
// every recompute, even when its due time did not change. That is exact:
// one event per kernel, all re-pushed with consecutive sequence numbers
// at every recompute, could only ever fire at the earliest of them, whose
// own recompute then re-pushed the rest; the single event takes that
// earliest one's place among same-timestamp events. Keeping an unchanged
// event instead would let it fire ahead of events pushed at its time
// since it was scheduled.
//
// A held event's one recompute is exact too. No simulated time passes
// inside a callback, so a recompute per change would only ever have
// re-derived rates that no progress was made at before the next one
// replaced them; the last, over the final running set, is the one that
// counts. Each change reserves the place in line its own re-push would
// have taken (EventQueue::reserve_place), and the event is pushed at the
// latest, so every heap key (when, seq) is what a recompute per change
// gives; only slot ids differ, and nothing reads them.
// tests/executor_crosscheck_test.cc diffs this executor against the
// per-kernel-event original on seeded launch/evict scripts, with
// callbacks that launch and evict several times, and compares every
// running kernel's rate bit for bit at each probe.
//
// Preemption (§7.1): BE kernels poll an eviction flag; evict() kills the
// kernel after the microsecond-scale flag-check latency and all progress
// is lost — the scheduler must relaunch to restart, exactly the paper's
// (and Reef's) reset semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/event_queue.h"
#include "common/sim_time.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/kernel.h"
#include "gpusim/resources.h"

namespace sgdrc::gpusim {

struct ExecutorParams {
  double intra_sm_gamma = 0.25;       // per-co-runner intra-SM penalty
  double inter_channel_beta = 0.45;   // per-co-runner channel penalty
  // Contention penalties saturate (L1/MSHR/bank queues fill up): caps on
  // the multiplicative factors, matching the few-× degradations of
  // Fig. 3 rather than unbounded growth.
  double max_intra_penalty = 3.0;
  double max_inter_penalty = 3.0;
  double l2_shrink_lambda = 0.18;     // memory slowdown per lost L2 slice
  TimeNs launch_overhead = 3 * kNsPerUs;
  TimeNs evict_latency = 4 * kNsPerUs;  // flag check → reset (Reef-scale)
  double spt_overhead = 0.029;          // §9.1.2 measured SPT cost
};

struct KernelLaunch {
  const KernelDesc* kernel = nullptr;
  Allocation alloc = Allocation::all();  // GpuExecutor::resolve()d
  uint64_t tag = 0;  // scheduler cookie (task id, queue id, ...)
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

  /// Start a kernel on the resolve()d grant. The completion callback
  /// fires from the event queue.
  LaunchId launch(const KernelLaunch& l, CompletionFn on_complete);

  /// The device masks `a` grants: the all() sentinel of either field
  /// expands to every TPC / channel this device has. Throws ConfigError
  /// for an empty field, or for a mask naming a TPC or channel the device
  /// lacks (out-of-range bits are legal only as the sentinel). The only
  /// code that expands the sentinel.
  Allocation resolve(const Allocation& a) const;

  /// Preempt a running kernel via the eviction flag. Only preemptible
  /// kernels accept this. No-op (returns false) if already finished.
  /// The callback is kept with the kernel until the flag check lands; a
  /// kernel that completes first drops it uncalled.
  bool evict(LaunchId id, EvictionFn on_evicted);

  size_t running_count() const { return running_.size(); }
  TimeNs now() const { return queue_.now(); }
  const GpuSpec& spec() const { return spec_; }
  const ExecutorParams& params() const { return params_; }

  /// Closed-form runtime of a kernel running alone with the given
  /// allocation — the offline profiler's measurement primitive.
  TimeNs solo_runtime(const KernelDesc& k, unsigned tpcs, unsigned channels,
                      bool spt_transformed) const;

  /// Resource view for schedulers: the resolved device masks of a
  /// running kernel (never the all() sentinel), and its rate as of the
  /// last recompute: the fraction of its work done per ns. Inside a
  /// completion or eviction callback that is the rate before the event
  /// (0 for a kernel the callback launched) until the callback returns.
  struct RunningInfo {
    const KernelDesc* kernel;
    TpcMask tpc_mask;
    ChannelSet channels;
    uint64_t tag;
    TimeNs started;
    double rate;
  };
  /// Every running kernel, ascending LaunchId (scheduler admission
  /// checks). The span points into a buffer this call clears and
  /// refills, so it is valid until the running set changes or the next
  /// call; a caller that keeps it across either copies it.
  std::span<const RunningInfo> running_infos();

  uint64_t launches() const { return stats_launches_; }
  uint64_t completions() const { return stats_completions_; }
  uint64_t evictions() const { return stats_evictions_; }
  /// Work counters: rate recomputes, and the runtime_ns() evaluations
  /// they made (one per running kernel each).
  uint64_t recomputes() const { return stats_recomputes_; }
  uint64_t runtime_evals() const { return stats_runtime_evals_; }

 private:
  struct Running {
    LaunchId id = 0;
    KernelLaunch launch;           // alloc holds device masks
    CompletionFn on_complete;
    EvictionFn on_evicted;         // set by an accepted evict()
    double remaining = 1.0;        // fraction of work left
    double rate = 0.0;             // fraction per ns under current alloc
    double demand_gbps = 0.0;      // natural bandwidth demand (bytes/ns)
    double cap = 0.0;              // parallelism_cap(*launch.kernel)
    double mem_work = 0.0;         // bytes × L2-shrink factor of its set
    TimeNs last_update = 0;
    TimeNs started = 0;
    bool eviction_pending = false;
  };
  using RunningList = std::vector<Running>;  // ascending LaunchId

  RunningList::iterator find(LaunchId id);  // end() when not running
  RunningList::const_iterator find(LaunchId id) const;
  void settle_progress();      // apply rates up to now
  void recompute_rates();      // rebuild stale demands, rates + event
  /// Σ of the share term over `mask`'s TPCs: the TPCs a kernel on the
  /// mask gets, before its parallelism cap.
  double shared_tpcs(TpcMask mask) const;
  /// t from the tables, given shared_tpcs(r's TPC mask).
  double runtime_ns(const Running& r, double tpcs) const;
  double parallelism_cap(const KernelDesc& k) const;
  /// Adds (`add`) or removes r's claim on the occupancy tables.
  void occupy(const Running& r, bool add);
  void finish(LaunchId id);
  void kill(LaunchId id);
  void note_change();  // running set changed: reserve its event's place
  /// Runs `fn(id, now)` held, then recomputes once (also on a throw).
  void call_held(const CompletionFn& fn, LaunchId id);

  double per_tpc_flops_per_ns() const;
  double per_channel_bytes_per_ns() const;

  GpuSpec spec_;
  EventQueue& queue_;
  ExecutorParams params_;
  RunningList running_;
  std::vector<RunningInfo> infos_;  // running_infos()'s buffer
  // Occupancy tables, updated by occupy() on every change; sized by the
  // TpcMask and ChannelSet widths, so an executor allocates none. An
  // entry whose user count is 0 holds a stale share term or penalty
  // that nothing reads.
  static constexpr size_t kMaxTpcs = 64;
  static constexpr size_t kMaxChannels = 32;
  std::array<unsigned, kMaxTpcs> tpc_users_{};  // kernels covering TPC t
  std::array<double, kMaxTpcs> tpc_share_{};    // 1 / (users × intra)
  std::array<unsigned, kMaxChannels> channel_users_{};  // byte movers on c
  std::array<double, kMaxChannels> channel_inv_users_{};  // 1 / users
  std::array<double, kMaxChannels> channel_penalty_{};    // inter-SM
  std::array<double, kMaxChannels> channel_floor_bw_{};   // at 1 / users
  std::array<double, kMaxChannels> channel_demand_{};   // summed in id order
  ChannelSet stale_demand_ = 0;  // channels a removal left to rebuild
  EventId completion_event_{};  // EventId{} never names a live event
  // The place the latest change reserved (none while nothing runs): the
  // next recompute pushes the completion event there.
  std::optional<EventQueue::Place> place_;
  bool held_ = false;       // inside a completion / eviction callback
  TimeNs settled_at_ = 0;   // last settle_progress() time
  LaunchId next_id_ = 1;
  uint64_t stats_launches_ = 0;
  uint64_t stats_completions_ = 0;
  uint64_t stats_evictions_ = 0;
  uint64_t stats_recomputes_ = 0;
  uint64_t stats_runtime_evals_ = 0;
};

}  // namespace sgdrc::gpusim
