// The policy half of the software-defined control plane. A Controller
// looks at the world through a SimView and answers with a declarative
// ResourcePlan; the enforcer inside core::ServingSim compiles the plan
// into executor launches / eviction flags and validates guarantees. The
// split is deliberate (Gilman & Walls: separate mechanism from policy):
// controllers never touch the executor, so guarantees can be checked in
// one place, plans can be logged/tested as data, and the same controller
// runs under the standalone sim, the fleet layer, and the scenario
// engine unchanged. Every system — SGDRC and each Fig. 17 baseline — is
// a Controller; there is no other way to drive the sim.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "control/plan.h"
#include "core/serving.h"

namespace sgdrc::control {

/// Read-only window onto one device's serving state — everything a
/// controller may base a plan on. It deliberately re-exports the
/// ServingSim read API rather than copying state: plans are recomputed
/// after every event, so a snapshot would be stale by construction.
///
/// jobs(), waiting_jobs() and running_infos() return spans into buffers
/// the sim and its executor own and refill on each call (one per
/// accessor and class), so a plan reads them without allocating. A view
/// is valid until the sim changes state or the same accessor is called
/// again (for the same class); calls to the other accessors leave it
/// intact. Within one plan() nothing changes state, so a controller may
/// hold all of them at once; one that keeps a view across a mutation
/// copies it.
class SimView {
 public:
  explicit SimView(core::ServingSim& sim) : sim_(&sim) {}

  TimeNs now() const { return sim_->now(); }
  const gpusim::GpuSpec& spec() const { return sim_->spec(); }
  const core::ServingConfig& config() const { return sim_->config(); }

  std::span<const core::ServingSim::JobView> jobs(workload::QosClass q) const {
    return sim_->jobs(q);
  }
  std::span<const core::ServingSim::JobView> waiting_jobs(
      workload::QosClass q) const {
    return sim_->waiting_jobs(q);
  }
  std::optional<core::ServingSim::JobView> find_job(workload::JobId id) const {
    return sim_->find_job(id);
  }
  size_t inflight(workload::QosClass q) const { return sim_->inflight(q); }
  std::span<const gpusim::GpuExecutor::RunningInfo> running_infos() const {
    return sim_->exec().running_infos();
  }
  /// Isolated runtime of `k` on the whole device (every TPC and channel).
  TimeNs solo_runtime(const gpusim::KernelDesc& k) const {
    return sim_->exec().solo_runtime(k, spec().num_tpcs, spec().num_channels,
                                     k.spt_transformed);
  }

  size_t tenant_count() const { return sim_->tenant_count(); }
  size_t tenant_count(workload::QosClass q) const {
    return sim_->tenant_count(q);
  }
  bool has_class(workload::QosClass q) const { return sim_->has_class(q); }
  bool tenant_active(workload::TenantId t) const {
    return sim_->tenant_active(t);
  }
  const core::TenantSpec& tenant(workload::TenantId t) const {
    return sim_->tenant(t);
  }
  const VgpuSpec& vgpu(workload::TenantId t) const {
    return sim_->tenant(t).vgpu;
  }
  /// The concrete TPC region backing a tenant's guarantee (empty mask
  /// when unguaranteed). Regions are carved by the enforcer, not the
  /// controller, so every controller sees the same geometry.
  gpusim::TpcMask guaranteed_mask(workload::TenantId t) const {
    return sim_->guaranteed_mask(t);
  }
  /// Union of all active guaranteed regions of one class.
  gpusim::TpcMask guaranteed_union(workload::QosClass q) const {
    return sim_->guaranteed_union(q);
  }

  // ---- dynamic request batching (core/serving.h batching read API) ----
  bool batching_enabled(workload::TenantId t) const {
    return sim_->batching_enabled(t);
  }
  /// Requests waiting ahead of the GPU (assembly + closed batches).
  size_t batch_queue_depth(workload::TenantId t) const {
    return sim_->batch_queue_depth(t);
  }
  /// Mean requests per launched batch so far (0 before the first).
  double batch_occupancy(workload::TenantId t) const {
    return sim_->batch_occupancy(t);
  }

 private:
  core::ServingSim* sim_;
};

/// The scheduling brain. plan() is invoked after every state change
/// (request arrival, kernel completion, eviction landing, BE rotation,
/// wake_at firing); it must be idempotent — look at the view, say what
/// should run now. The plan is applied after plan() returns, so the view
/// never reflects the plan being built.
class Controller {
 public:
  virtual ~Controller() = default;
  virtual std::string name() const = 0;
  virtual ResourcePlan plan(const SimView& view) = 0;
  /// Whether this controller honours vGPU guarantees. The enforcer
  /// rejects a trespassing launch from a guarantee-aware controller as a
  /// bug; a guarantee-blind one (the Fig. 17 baselines, which predate
  /// vGPU quotas) is counted in ServingMetrics::guarantee_violations
  /// instead, so it can still be measured against guaranteed tenants.
  virtual bool guarantee_aware() const { return true; }
};

/// Builds one controller per device — fleets hand every GPU its own
/// instance because controllers are stateful (tidal clocks, switch
/// timers).
using ControllerFactory =
    std::function<std::unique_ptr<Controller>(const gpusim::GpuSpec&)>;

}  // namespace sgdrc::control
