// Batch-aware SGDRC: the plan-emitting SGDRC controller wrapped with a
// feedback loop on observed batch occupancy. Batched LS jobs run
// batch-size-scaled kernels (~√B wider latency-optimal masks, see
// models/batching.h); the stock tide only reserves SMs for kernels
// *already queued*, so every freshly assembled wide batch would start by
// preempting best-effort work — paying the eviction latency once per
// batch. This controller watches each batching tenant's occupancy and
// queue depth and holds the sliding-window SM reservation wide enough
// for the batch size the tenant is actually running — and narrows it
// back (floor 0 = the plain tide, bit-for-bit) when occupancy falls, so
// best-effort gets the SMs back the moment batching stops earning them.
#pragma once

#include <vector>

#include "control/controller.h"
#include "core/sgdrc_policy.h"

namespace sgdrc::control {

class BatchAwareSgdrc : public Controller {
 public:
  /// Occupancy below this never widens the reserve (a tenant batching in
  /// ones is not batching).
  static constexpr double kMinOccupancy = 1.5;

  explicit BatchAwareSgdrc(const gpusim::GpuSpec& spec);

  std::string name() const override { return "SGDRC (Batch-aware)"; }
  ResourcePlan plan(const SimView& view) override;

  /// The SM-reservation floor derived from the latest view (test /
  /// observability hook; recomputed every plan()).
  unsigned current_floor() const { return inner_.reserve_floor(); }

 private:
  core::SgdrcPolicy inner_;
  unsigned num_tpcs_;
  /// Per-tenant widest base-kernel footprint (max min_tpcs), cached on
  /// first sight — the model is fixed at tenant registration, and plan()
  /// runs on every sim event. 0 = not yet computed.
  std::vector<unsigned> base_need_;
  /// plan()'s scratch, kept between plans: per tenant, whether it has a
  /// live LS job.
  std::vector<char> has_job_;
};

}  // namespace sgdrc::control
