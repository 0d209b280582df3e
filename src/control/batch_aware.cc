#include "control/batch_aware.h"

#include <algorithm>
#include <cmath>

namespace sgdrc::control {

using workload::QosClass;
using workload::TenantId;

BatchAwareSgdrc::BatchAwareSgdrc(const gpusim::GpuSpec& spec)
    : inner_(spec), num_tpcs_(spec.num_tpcs) {}

ResourcePlan BatchAwareSgdrc::plan(const SimView& view) {
  // Which tenants have live LS work right now (queued or in flight) —
  // the floor must vanish the moment a batching tenant goes quiet, or
  // best-effort would keep paying for batches that stopped coming.
  has_job_.assign(view.tenant_count(), 0);
  for (const auto& job : view.jobs(QosClass::kLatencySensitive)) {
    has_job_[job.tenant] = 1;
  }

  unsigned floor = 0;
  for (TenantId t = 0; t < view.tenant_count(); ++t) {
    if (!view.tenant_active(t) || !view.batching_enabled(t)) continue;
    const double depth =
        static_cast<double>(view.batch_queue_depth(t));
    if (depth == 0.0 && !has_job_[t]) continue;  // quiet: narrow now
    const auto& spec = view.tenant(t);
    const double occupancy = view.batch_occupancy(t);
    // The batch size this tenant is about to run: what it has been
    // launching (occupancy), or — early on, before the first batch — what
    // is already queued. Clamped to the policy's cap.
    const double expected =
        std::min<double>(spec.batching.max_batch, std::max(occupancy, depth));
    if (expected < kMinOccupancy) continue;  // not really batching
    // Widest latency-optimal footprint among the tenant's base kernels,
    // scaled the same ~√B way models::batched_variant widens min_tpcs.
    // Cached per tenant: the model is frozen at registration.
    if (t >= base_need_.size()) base_need_.resize(t + 1, 0);
    if (base_need_[t] == 0) {
      unsigned need = 1;
      for (const auto& k : spec.model->kernels) {
        need = std::max(need, std::max(1u, k.min_tpcs));
      }
      base_need_[t] = need;
    }
    const unsigned widened = static_cast<unsigned>(std::ceil(
        static_cast<double>(base_need_[t]) * std::sqrt(expected)));
    floor = std::max(floor, widened);
  }
  // Never reserve the whole device: the tide must always leave BE at
  // least one TPC to soak, or batching would starve the other class.
  inner_.set_reserve_floor(std::min(floor, num_tpcs_ - 1));
  return inner_.plan(view);
}

}  // namespace sgdrc::control
