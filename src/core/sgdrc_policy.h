// SGDRC's online scheduler (§4 online phase, §7), rewritten as a
// plan-emitting control::Controller:
//
//  * spatial-temporal multiplexing: at most one LS *job* and one BE
//    *job* co-execute; LS/BE queues are served in order. A DAG job's
//    dependency-independent operators co-schedule inside its one slot
//    (capped by SgdrcPolicy::kIntraTenantWidth) — internal fan-out is
//    not a co-runner;
//  * tidal SM masking (§7.1): the LS partition grows to the maximum
//    min-TPC requirement over a sliding window of queued LS kernels and
//    shrinks to zero when LS goes idle; the BE partition is the tide pool
//    left behind. LS preempts BE via the eviction flag when the BE kernel
//    holds TPCs the LS kernel needs;
//  * bimodal tensors (§7.2): when colocated, memory-bound LS kernels run
//    on (1−ChBE) of the channels and memory-bound BE kernels on ChBE;
//    when either side is alone it gets every channel (monopolisation);
//  * vGPU guarantees (control::VgpuSpec on TenantSpec): a tenant's hard
//    TPC region is packed first for its own kernels and never handed to
//    anyone else — the tide flows only through unguaranteed TPCs.
//    Channel shares re-derive the LS/BE channel split; priorities order
//    the LS launch queue.
//
// With no guarantees declared (all-default VgpuSpec), plan() emits
// exactly the directive sequence the historic imperative schedule()
// produced, so metrics are bit-for-bit identical — pinned by the golden
// run digests in tests/control_test.cc and tests/conformance_test.cc.
//
// SgdrcStaticPolicy is §9.2's "SGDRC (Static)" ablation: the same
// partitions, frozen at an even split, with no tide and no preemption.
#pragma once

#include <utility>
#include <vector>

#include "control/controller.h"
#include "core/serving.h"
#include "gpusim/resources.h"

namespace sgdrc::core {

/// SgdrcPolicy's constructor throws ConfigError unless ch_be is in (0,1),
/// sliding_window is at least 1 and reserve_decay_interval is positive.
struct SgdrcOptions {
  double ch_be = 1.0 / 3.0;    // §6's default BE channel share
  size_t sliding_window = 8;   // §7.1 sliding-window length
  /// The SM reservation decays one TPC per this interval when LS demand
  /// falls, so the BE mask follows the tide without flapping per event.
  TimeNs reserve_decay_interval = 100 * kNsPerUs;
};

class SgdrcPolicy : public control::Controller {
 public:
  /// Intra-tenant width cap: at most this many kernels of one *job* may
  /// co-execute. Only DAG models (explicit kernel_deps) ever present
  /// more than one launchable kernel per job, so chain workloads never
  /// reach it. The §4 spatial-temporal rule counts co-running *jobs* — a
  /// tenant's own operator branches ride inside its single slot — and
  /// this cap keeps that internal fan-out from fragmenting the SM mask.
  static constexpr unsigned kIntraTenantWidth = 4;

  explicit SgdrcPolicy(const gpusim::GpuSpec& spec, SgdrcOptions opt = {});

  std::string name() const override { return "SGDRC"; }
  control::ResourcePlan plan(const control::SimView& sim) override;

  gpusim::ChannelSet be_channels() const { return be_channels_; }
  gpusim::ChannelSet ls_channels() const { return ls_channels_; }

  /// Lower bound on the sliding-window SM reservation, set per plan by an
  /// outer controller (the batch-aware wrapper widens it when batch
  /// occupancy says wide kernels are coming, narrows it back to 0 when
  /// they are not). 0 — the default — reproduces the historic tide
  /// bit-for-bit; values are clamped to the device.
  void set_reserve_floor(unsigned tpcs) { reserve_floor_ = tpcs; }
  unsigned reserve_floor() const { return reserve_floor_; }

 private:
  /// The LS/BE channel split for this plan: the ctor default, or one
  /// re-derived from the active tenants' guaranteed channel shares.
  void channel_split(const control::SimView& sim, gpusim::ChannelSet& ls,
                     gpusim::ChannelSet& be) const;

  /// One running BE *job*: its kernels' masks folded into one entry.
  struct BeRun {
    JobId job;
    gpusim::TpcMask mask;
    gpusim::TpcMask widest;  // the widest mask this job may hold (guarantees)
    bool monopolising;
    bool evicting;
  };
  SgdrcOptions opt_;
  unsigned num_tpcs_;
  gpusim::ChannelSet be_channels_;  // ChBE  of the channels
  gpusim::ChannelSet ls_channels_;  // 1−ChBE
  TimeNs last_ls_activity_ = 0;     // tide clock
  unsigned ls_reserve_ = 1;         // sliding-window SM reservation
  unsigned reserve_floor_ = 0;      // external floor (batch-aware wrapper)
  TimeNs last_decay_ = 0;           // reserve decay clock

  // plan()'s scratch, cleared at the start of every plan and kept
  // between plans, so a plan allocates only when a buffer outgrows every
  // earlier plan's. Each is described where plan() fills it.
  std::vector<BeRun> be_runs_;
  // (job, value) pairs, looked up linearly: a plan touches a handful of
  // jobs and only looks entries up, never iterates them.
  std::vector<std::pair<JobId, unsigned>> inflight_width_, planned_width_;
  std::vector<size_t> order_;
  std::vector<char> launched_;
  std::vector<JobId> be_kept_jobs_, be_evicted_jobs_, be_planned_;
};

class SgdrcStaticPolicy : public control::Controller {
 public:
  explicit SgdrcStaticPolicy(const gpusim::GpuSpec& spec);

  std::string name() const override { return "SGDRC (Static)"; }
  control::ResourcePlan plan(const control::SimView& sim) override;

 private:
  gpusim::TpcMask ls_mask_, be_mask_;
  gpusim::ChannelSet ls_channels_, be_channels_;
};

/// Round channel count to whole channel groups so the partition stays
/// colorable at the group granularity (Tab. 4).
gpusim::ChannelSet be_channel_partition(const gpusim::GpuSpec& spec,
                                        double ch_be);

}  // namespace sgdrc::core
