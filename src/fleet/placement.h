// Cluster-level placement (the ParvaGPU layering: per-GPU spatial
// sharing below, device assignment above): a PlacementPolicy decides
// which devices each fleet tenant's replicas land on before the fleet
// simulation starts. Replicas of one tenant always land on distinct
// devices; a tenant asking for more replicas than the fleet has devices
// is clamped to one replica per device.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/serving.h"

namespace sgdrc::fleet {

using workload::QosClass;

/// Index of a GPU within one fleet simulation.
using DeviceId = uint32_t;

/// Relative serving capacity of `s` against a baseline spec: the mean
/// of the TPC-count and VRAM-bandwidth ratios. The one formula behind
/// FleetSim::device_perf, perf-aware placement, and the perf-normalized
/// routers — exactly 1.0 when s == base, so homogeneous fleets divide
/// by 1.0 everywhere and keep their decisions bit-identical.
double relative_perf(const gpusim::GpuSpec& s, const gpusim::GpuSpec& base);

/// relative_perf over a whole fleet — feed QosAwarePlacement's
/// perf-aware constructor from FleetConfig::device_specs.
std::vector<double> device_perf_factors(
    const std::vector<gpusim::GpuSpec>& specs, const gpusim::GpuSpec& base);

/// Per-device bin capacities for QuotaAwarePlacement on heterogeneous
/// fleets.
struct DeviceShape {
  unsigned tpcs = 0;
  uint64_t vram_bytes = 0;  // 0 = don't bin-pack memory on this device
};

/// One workload replicated across the fleet: the per-device TenantSpec
/// plus how many devices should host an instance of it.
struct FleetTenantSpec {
  core::TenantSpec spec;
  unsigned replicas = 1;
  /// Expected load share for QoS-aware placement; 0 ⇒ derived (LS
  /// tenants weigh their isolated latency — costlier models spread
  /// first; BE tenants weigh equally).
  double weight = 0.0;
};

inline FleetTenantSpec replicated(core::TenantSpec spec,
                                  unsigned replicas = 1,
                                  double weight = 0.0) {
  return {std::move(spec), replicas, weight};
}

/// assignment[t][r] = device hosting replica r of fleet tenant t.
using Assignment = std::vector<std::vector<DeviceId>>;

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  virtual Assignment place(const std::vector<FleetTenantSpec>& tenants,
                           unsigned devices) const = 0;
};

/// Balance replica counts: each replica goes to the device currently
/// hosting the fewest replicas (ties → lowest device id).
class SpreadPlacement : public PlacementPolicy {
 public:
  std::string name() const override { return "spread"; }
  Assignment place(const std::vector<FleetTenantSpec>& tenants,
                   unsigned devices) const override;
};

/// First-fit consolidation: fill device 0 up to `per_device` replicas,
/// then device 1, … — uses the fewest devices, concentrating contention
/// (the baseline SGDRC-per-device has to beat).
class PackPlacement : public PlacementPolicy {
 public:
  explicit PackPlacement(unsigned per_device = 8) : per_device_(per_device) {}
  std::string name() const override { return "pack"; }
  Assignment place(const std::vector<FleetTenantSpec>& tenants,
                   unsigned devices) const override;

 private:
  unsigned per_device_;
};

/// QoS-aware: LS replicas balance weighted LS load (weight = expected
/// load share, default isolated latency) across devices; BE replicas
/// then fill the least-BE-crowded devices, preferring ones with the
/// least LS load — batch work lands where it steals the least.
class QosAwarePlacement : public PlacementPolicy {
 public:
  QosAwarePlacement() = default;
  /// Perf-aware variant for heterogeneous fleets: every device's
  /// accumulated LS load and BE count are divided by its relative
  /// capacity (device_perf_factors) before comparison, so a 2x device
  /// hosts ~2x the weighted load. An empty vector is the homogeneous
  /// policy, decision-for-decision.
  explicit QosAwarePlacement(std::vector<double> device_perf)
      : perf_(std::move(device_perf)) {}
  std::string name() const override { return "qos-aware"; }
  Assignment place(const std::vector<FleetTenantSpec>& tenants,
                   unsigned devices) const override;

 private:
  std::vector<double> perf_;
};

/// Bin-pack by guaranteed vGPU quotas (the ParvaGPU-style spatial-quota
/// unit), now two-dimensional — (TPCs, VRAM bytes): guaranteed replicas
/// go first-fit-decreasing (decreasing in their dominant normalized
/// dimension) against each device's TPC and byte budgets, so no
/// device's hard reservations overcommit its SMs or its VRAM (a
/// ServingSim would reject such a replica set outright); unguaranteed
/// replicas then balance the residual headroom — TPCs first, VRAM bytes
/// on ties. A replica's byte demand is its VgpuSpec::memory_bytes quota
/// when declared, else its model's weight footprint. Ties break toward
/// the fewest replicas, then the lowest device id, keeping placements
/// deterministic. With `vram_bytes == 0` (the default) the byte
/// dimension vanishes and placements match the TPC-only policy exactly.
class QuotaAwarePlacement : public PlacementPolicy {
 public:
  /// Uniform bins: `tpcs_per_device` is every device's TPC capacity
  /// (GpuSpec::num_tpcs); `vram_bytes` its byte capacity (0 = don't
  /// bin-pack memory).
  explicit QuotaAwarePlacement(unsigned tpcs_per_device,
                               uint64_t vram_bytes = 0)
      : capacity_(tpcs_per_device), capacity_bytes_(vram_bytes) {}
  /// Heterogeneous bins: one (TPC, byte) capacity per device, e.g. each
  /// of FleetConfig::device_specs' num_tpcs and vram_bytes. Big devices
  /// naturally absorb the big reservations — the FFD pass sees their
  /// larger headroom. Size must equal the device count at place().
  explicit QuotaAwarePlacement(std::vector<DeviceShape> shapes)
      : shapes_(std::move(shapes)) {}
  std::string name() const override { return "quota-aware"; }
  Assignment place(const std::vector<FleetTenantSpec>& tenants,
                   unsigned devices) const override;

 private:
  unsigned capacity_ = 0;       // uniform TPC bins (unused with shapes_)
  uint64_t capacity_bytes_ = 0;
  std::vector<DeviceShape> shapes_;  // per-device bins; empty = uniform
};

/// Check an assignment is well-formed: one entry per tenant,
/// min(replicas, devices) distinct in-range devices each. Fails loudly —
/// a bad placement would otherwise surface as confusing routing state.
void validate_assignment(const Assignment& assignment,
                         const std::vector<FleetTenantSpec>& tenants,
                         unsigned devices);

}  // namespace sgdrc::fleet
