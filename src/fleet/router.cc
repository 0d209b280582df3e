#include "fleet/router.h"

#include "fleet/fleet.h"

namespace sgdrc::fleet {

size_t RoundRobinRouter::route(const FleetSim& fleet, unsigned tenant,
                               const std::vector<Replica>& replicas) {
  (void)fleet;
  if (tenant >= next_.size()) next_.resize(tenant + 1, 0);  // churned in
  const size_t pick = next_[tenant] % replicas.size();
  next_[tenant] = pick + 1;
  return pick;
}

namespace {

/// Scan replicas starting at a rotated offset and keep the first strict
/// minimum. Unequal loads pick the same replica regardless of offset;
/// ties resolve to a different replica each call instead of hot-spotting
/// the lowest index (device 0 under pack placement, every startup).
template <typename LoadFn>
size_t rotated_min(std::vector<size_t>& cursor, unsigned tenant,
                   size_t replicas, LoadFn load) {
  if (tenant >= cursor.size()) cursor.resize(tenant + 1, 0);  // churned in
  const size_t start = cursor[tenant]++ % replicas;
  size_t best = start;
  auto best_load = load(start);
  for (size_t i = 1; i < replicas; ++i) {
    const size_t idx = (start + i) % replicas;
    const auto l = load(idx);
    if (l < best_load) {
      best = idx;
      best_load = l;
    }
  }
  return best;
}

}  // namespace

// Heterogeneity: every load-aware router divides its load signal by
// FleetSim::device_perf, so a device with 2x the capacity looks
// half-loaded at equal queue depth and earns proportionally more work.
// device_perf is exactly 1.0 on homogeneous fleets — dividing integer
// loads (exactly representable as doubles) by 1.0 is exact, so the
// comparisons, ties, and tie-break rotation reproduce the homogeneous
// decisions bit-for-bit.

size_t LeastOutstandingRouter::route(const FleetSim& fleet, unsigned tenant,
                                     const std::vector<Replica>& replicas) {
  return rotated_min(cursor_, tenant, replicas.size(), [&](size_t i) {
    return static_cast<double>(fleet.outstanding(replicas[i])) /
           fleet.device_perf(replicas[i].device);
  });
}

size_t QosLoadAwareRouter::route(const FleetSim& fleet, unsigned tenant,
                                 const std::vector<Replica>& replicas) {
  return rotated_min(cursor_, tenant, replicas.size(), [&](size_t i) {
    return fleet.device_ls_load(replicas[i].device) /
           fleet.device_perf(replicas[i].device);
  });
}

size_t WarmWeightRouter::route(const FleetSim& fleet, unsigned tenant,
                               const std::vector<Replica>& replicas) {
  return rotated_min(cursor_, tenant, replicas.size(), [&](size_t i) {
    size_t penalty = 0;
    switch (fleet.replica_residency(replicas[i])) {
      case memory::Residency::kWarm:
      case memory::Residency::kUnmodeled:
        break;
      case memory::Residency::kLoading:
        penalty = kColdPenalty / 2;  // weights land shortly
        break;
      case memory::Residency::kCold:
      case memory::Residency::kPaged:
        penalty = kColdPenalty;
        break;
    }
    return static_cast<double>(fleet.outstanding(replicas[i]) + penalty) /
           fleet.device_perf(replicas[i].device);
  });
}

}  // namespace sgdrc::fleet
