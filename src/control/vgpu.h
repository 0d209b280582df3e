// The software-defined vGPU (§4): what a tenant is *guaranteed*, as
// opposed to what a scheduler happens to give it. A VgpuSpec travels on
// core::TenantSpec, so guarantees are declared where tenants are
// declared — per tenant, scriptable by scenarios (set_quota), and
// visible to fleet placement (bin-packing by guaranteed TPCs).
//
// Semantics:
//  * guaranteed_tpcs — a hard SM (TPC) reservation. The serving engine
//    carves a concrete TPC region per guaranteed tenant (LS regions from
//    the top of the mask, BE regions from the bottom) and the plan
//    enforcer rejects launches that put another tenant's kernel inside
//    it. 0 means "no reservation": the tenant lives off the tidal
//    residual.
//  * channel_share — guaranteed fraction of the VRAM channels (bimodal
//    tensor coloring, §7.2). Shares steer the LS/BE channel split inside
//    plan-emitting controllers; 0 falls back to the controller default
//    (ChBE). Rounded to whole channel groups at enforcement.
//  * priority — launch-ordering tie-break within a QoS class (higher
//    first; equal priorities keep arrival order).
//
// This header is a dependency leaf: core/serving.h embeds VgpuSpec in
// TenantSpec, and the rest of the control plane (plan.h, controller.h)
// sits above core.
#pragma once

#include <cstdint>

namespace sgdrc::control {

struct VgpuSpec {
  /// Hard SM reservation (TPC count); 0 = no guarantee (tidal only).
  unsigned guaranteed_tpcs = 0;
  /// Guaranteed fraction of VRAM channels in (0,1); 0 = controller
  /// default split.
  double channel_share = 0.0;
  /// Launch-ordering tie-break within a class; higher runs first.
  int priority = 0;
  /// Guaranteed VRAM bytes for the tenant's weights (memory
  /// virtualization, src/memory). Validated like TPC budgets
  /// (Σ quotas ≤ device VRAM on modeled devices); a replica within its
  /// quota is shielded from pressure eviction, and loads beyond one's
  /// own quota are counted as memory trespasses. 0 = no guarantee.
  uint64_t memory_bytes = 0;

  bool guaranteed() const { return guaranteed_tpcs > 0; }
};

}  // namespace sgdrc::control
