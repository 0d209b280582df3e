// SGDRC's online scheduler (§4 online phase, §7), rewritten as a
// plan-emitting control::Controller:
//
//  * spatial-temporal multiplexing: at most one LS *job* and one BE
//    *job* co-execute; LS/BE queues are served in order. A DAG job's
//    dependency-independent operators co-schedule inside its one slot
//    (capped by SgdrcOptions::intra_tenant_width) — internal fan-out is
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
//    the LS launch queue; BE weights split the tide pool when unequal.
//
// With no guarantees declared (all-default VgpuSpec), plan() emits
// exactly the directive sequence the historic imperative schedule()
// produced, so metrics are bit-for-bit identical — pinned by the golden
// run digests in tests/control_test.cc and tests/conformance_test.cc.
//
// SgdrcStaticPolicy is §9.2's "SGDRC (Static)" ablation: the same
// partitions, frozen at an even split, with no tide and no preemption.
#pragma once

#include "control/controller.h"
#include "core/serving.h"
#include "gpusim/resources.h"

namespace sgdrc::core {

struct SgdrcOptions {
  double ch_be = 1.0 / 3.0;    // §6's default BE channel share
  size_t sliding_window = 8;   // §7.1 sliding-window length
  /// How long the LS reservation outlives the last LS activity. The
  /// sliding window reserves SMs for kernels "waiting in the kernel
  /// launch queue" (§7.1); holding the reservation across momentary idle
  /// gaps prevents monopolise→preempt thrash that would waste BE work.
  TimeNs reservation_window = 300 * kNsPerUs;
  /// The SM reservation decays one TPC per this interval when LS demand
  /// falls, so the BE mask follows the tide without flapping per event.
  TimeNs reserve_decay_interval = 100 * kNsPerUs;
  /// Intra-tenant width cap: at most this many kernels of one *job* may
  /// co-execute. Only DAG models (explicit kernel_deps) ever present
  /// more than one launchable kernel per job, so any value >= 1 leaves
  /// chain workloads bit-identical. The §4 spatial-temporal rule counts
  /// co-running *jobs* — a tenant's own operator branches ride inside
  /// its single slot — and this cap keeps that internal fan-out from
  /// fragmenting the SM mask. 0 = unlimited.
  unsigned intra_tenant_width = 4;
};

class SgdrcPolicy : public control::Controller {
 public:
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

  SgdrcOptions opt_;
  unsigned num_tpcs_;
  gpusim::ChannelSet be_channels_;  // ChBE  of the channels
  gpusim::ChannelSet ls_channels_;  // 1−ChBE
  TimeNs last_ls_activity_ = 0;     // tide clock
  unsigned ls_reserve_ = 1;         // sliding-window SM reservation
  unsigned reserve_floor_ = 0;      // external floor (batch-aware wrapper)
  TimeNs last_decay_ = 0;           // reserve decay clock
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
