// Cluster-level request routing: every arriving LS request is dispatched
// to one replica of its fleet tenant by a pluggable strategy. Routers see
// live per-device state through the FleetSim introspection API (the
// runtime-aware scheduling of Yu et al., arXiv:2111.14255 — route by
// observed load, not static assignment). Routing must be deterministic:
// fleet runs are reproducible bit-for-bit given the same trace and seed.
#pragma once

#include <string>
#include <vector>

#include "fleet/placement.h"

namespace sgdrc::fleet {

class FleetSim;

/// Where one replica of a fleet tenant lives: a device and the TenantId
/// it was assigned within that device's ServingSim.
struct Replica {
  DeviceId device = 0;
  workload::TenantId local_tenant = 0;
};

class Router {
 public:
  virtual ~Router() = default;
  virtual std::string name() const = 0;
  /// Called once per FleetSim::run before any dispatch; stateful routers
  /// (round-robin cursors) reset here so back-to-back runs are identical.
  virtual void reset(size_t fleet_tenants) { (void)fleet_tenants; }
  /// Pick the replica (an index into `replicas`, never empty) that
  /// serves a request for `tenant` arriving at fleet.now().
  virtual size_t route(const FleetSim& fleet, unsigned tenant,
                       const std::vector<Replica>& replicas) = 0;
  /// True when route() inspects live device state (outstanding counts,
  /// residency, queue depths). The sharded fleet engine must then
  /// barrier every device shard up to each dispatch timestamp before
  /// routing; a blind router (round-robin) lets the engine coalesce a
  /// whole window of dispatches without synchronizing, since the only
  /// cross-shard effect is the timestamped injection one dispatch hop
  /// in the future. Default true: correctness over speed for routers
  /// that don't declare themselves.
  virtual bool reads_device_state() const { return true; }
};

/// Per-tenant rotation, blind to load — fair under equal replicas, and
/// the baseline the load-aware strategies must beat under skew. Tenants
/// admitted mid-run (scenario churn) grow the cursor table on demand.
class RoundRobinRouter : public Router {
 public:
  std::string name() const override { return "round-robin"; }
  void reset(size_t fleet_tenants) override {
    next_.assign(fleet_tenants, 0);
  }
  size_t route(const FleetSim& fleet, unsigned tenant,
               const std::vector<Replica>& replicas) override;
  /// Pure cursor rotation — never looks at a device, so the sharded
  /// engine may run it with device shards lagging behind the dispatch
  /// frontier (the lookahead window).
  bool reads_device_state() const override { return false; }

 private:
  std::vector<size_t> next_;
};

/// Send to the replica with the fewest requests in its system (admitted
/// + backlogged, including batch-assembly queues), perf-normalized by
/// FleetSim::device_perf so bigger devices earn proportional work on
/// heterogeneous fleets. Ties rotate through a per-tenant cursor: equal
/// loads are common (an idle fleet, every startup), and the old
/// lowest-index tie-break hot-spotted device 0 under pack placement.
/// Deterministic — no RNG in the dispatch path.
class LeastOutstandingRouter : public Router {
 public:
  std::string name() const override { return "least-outstanding"; }
  void reset(size_t fleet_tenants) override {
    cursor_.assign(fleet_tenants, 0);
  }
  size_t route(const FleetSim& fleet, unsigned tenant,
               const std::vector<Replica>& replicas) override;

 private:
  std::vector<size_t> cursor_;
};

/// Send to the replica whose *device* carries the least expected LS work
/// (Σ outstanding × isolated latency over every LS tenant on the device,
/// perf-normalized) — cross-tenant aware, so a replica that is itself
/// idle on a device hammered by a co-located tenant is avoided.
/// Equal-load ties rotate like LeastOutstandingRouter's (cursor-based,
/// deterministic).
class QosLoadAwareRouter : public Router {
 public:
  std::string name() const override { return "qos-load-aware"; }
  void reset(size_t fleet_tenants) override {
    cursor_.assign(fleet_tenants, 0);
  }
  size_t route(const FleetSim& fleet, unsigned tenant,
               const std::vector<Replica>& replicas) override;

 private:
  std::vector<size_t> cursor_;
};

/// Residency-aware routing for memory-virtualized fleets: prefer the
/// replica whose weights are warm. Score = outstanding requests plus a
/// cold penalty (half for a replica mid-load — it will be warm shortly,
/// full for cold/paged), so a warm replica absorbs up to kColdPenalty
/// extra queued requests before the router warms a second one. On
/// devices without memory modeling every replica reads kUnmodeled
/// (= warm) and this degrades to exactly LeastOutstandingRouter. Ties
/// rotate.
class WarmWeightRouter : public Router {
 public:
  /// Trades queueing delay against cold-start DMAs. Kept near
  /// load_time / service_time: much higher and a hot service pins to one
  /// replica, queueing right up to the spill threshold without ever
  /// warming its second copy.
  static constexpr size_t kColdPenalty = 3;

  std::string name() const override { return "warm-weight"; }
  void reset(size_t fleet_tenants) override {
    cursor_.assign(fleet_tenants, 0);
  }
  size_t route(const FleetSim& fleet, unsigned tenant,
               const std::vector<Replica>& replicas) override;

 private:
  std::vector<size_t> cursor_;
};

}  // namespace sgdrc::fleet
