// The fleet layer: N per-device ServingSims (each with its own gpusim
// device and its own Policy instance), a PlacementPolicy that decides
// where each tenant's replicas live, and a Router that dispatches every
// arriving LS request to a replica by live per-device state. Per-GPU
// resource control (SGDRC or a baseline) stays a device-local concern;
// the fleet adds the cluster placement + routing layer on top, and
// aggregates metrics fleet-wide.
//
// Execution is a sharded conservative discrete-event engine (see
// docs/fleet-engine.md): each device owns a private EventQueue (its
// shard), the fleet keeps two queues of its own (control actions and
// trace dispatches), and a windowed loop interleaves them — barrier the
// shards up to the next fleet event, fire it, repeat. Device shards
// never read each other, so within a window they may run on a thread
// pool (FleetOptions::parallel); serial and parallel execute the *same*
// loop and are bit-identical by construction (docs/determinism.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "control/controller.h"
#include "core/serving.h"
#include "fleet/front_door.h"
#include "fleet/placement.h"
#include "fleet/router.h"

namespace sgdrc::fleet {

/// Derive device d's RNG seed from the fleet seed. Distinct per device
/// (golden-ratio stride through splitmix64), so replicas never share an
/// arrival-jitter stream, while the whole fleet stays reproducible from
/// one base seed.
inline uint64_t device_seed(uint64_t base, DeviceId device) {
  return splitmix64(base + kGoldenSeedStride *
                               (static_cast<uint64_t>(device) + 1));
}

/// Execution-engine knobs for the sharded fleet engine.
struct FleetOptions {
  /// Run device shards on a thread pool inside each conservative time
  /// window. OFF by default: the serial path executes the *same*
  /// windowed loop single-threaded, so flipping this changes wall-clock
  /// only — results are bit-identical either way (ctest-enforced by
  /// tests/fleet_parallel_test.cc) and serial stays the baseline of
  /// record.
  bool parallel = false;
  /// Worker threads when parallel (0 = hardware concurrency). Capped at
  /// the device count — extra workers would only contend on the claim
  /// index.
  unsigned threads = 0;
};

struct FleetConfig {
  /// Baseline device spec: every device runs it when `device_specs` is
  /// empty, and perf normalization (FleetSim::device_perf) measures
  /// heterogeneous devices against it.
  gpusim::GpuSpec spec;
  /// Per-device specs for heterogeneous fleets (e.g. a mixed
  /// A2000/A100 rack). Empty = homogeneous (`spec` everywhere);
  /// otherwise size must equal `devices`. Placement, routing, and
  /// autoscaling normalize load by FleetSim::device_perf so a big
  /// device earns proportionally more work.
  std::vector<gpusim::GpuSpec> device_specs;
  gpusim::ExecutorParams exec_params;
  unsigned devices = 1;
  unsigned ls_instances = 4;
  TimeNs duration = 2 * kNsPerSec;
  /// Forwarded to every device sim. Leave 0 only when every device hosts
  /// the same tenant mix: the per-device default (n = co-resident
  /// tenants) would otherwise give the same tenant different SLOs under
  /// different placements.
  double slo_multiplier = 0.0;
  core::BeMode be_mode = core::BeMode::kRoundRobin;
  uint64_t seed = 0x5eed;
  /// Router→device dispatch cost: a fixed hop latency plus an
  /// exponential jitter tail (mean). Jitter draws from the destination
  /// device's salted RNG stream, so replicas see independent jitter.
  TimeNs dispatch_latency = 0;
  TimeNs dispatch_jitter = 0;
  /// GPU memory virtualization, forwarded to every device sim (weight
  /// residency, cold-start loads, eviction; src/memory). OFF by default.
  memory::MemoryOptions memory;
  /// Overload front door (admission control, QoS-ordered shedding,
  /// retry storms; src/fleet/front_door.h). OFF by default: the
  /// dispatch path is then byte-for-byte the pre-front-door one.
  FrontDoorConfig front_door;
  /// Sharded-engine execution knobs (parallelism). Results never depend
  /// on these.
  FleetOptions engine;
};

struct FleetMetrics {
  TimeNs duration = 0;
  /// Discrete events the engine fired to produce this run (device-shard
  /// events + fleet control/dispatch events) — the numerator of the
  /// bench events/sec throughput metric.
  uint64_t events = 0;
  /// Per-device metrics (devices idled by pack placement report empty
  /// ServingMetrics with no tenants).
  std::vector<workload::ServingMetrics> devices;
  /// Per fleet tenant, merged across its replicas: counters add and
  /// latency samples union, so p99/attainment reflect every request the
  /// tenant served anywhere in the fleet.
  std::vector<workload::TenantMetrics> tenants;
  /// LS requests dispatched to each device (router decisions).
  std::vector<uint64_t> routed;
  /// Front-door accounting (all zeros when the door is disabled).
  FrontDoorMetrics front_door;

  double ls_goodput() const;       // attained requests / s, fleet-wide
  double be_throughput() const;    // samples / s, fleet-wide
  /// Launches that trespassed on a guaranteed vGPU region, fleet-wide.
  uint64_t guarantee_violations() const;
  double overall_throughput() const {
    return ls_goodput() + be_throughput();
  }
  double mean_attainment() const;  // over LS fleet tenants
  /// p99 latency (ms) over the union of all LS requests fleet-wide.
  double fleet_p99_ms() const;

  // ---- memory-residency stats (all zero when memory modeling is off) ----
  uint64_t weight_loads() const;
  uint64_t weight_evictions() const;
  uint64_t paged_requests() const;
  /// Loads past a tenant's own declared memory quota, fleet-wide.
  uint64_t memory_trespasses() const;
  /// Requests that hit a cold or paged replica, fleet-wide.
  uint64_t cold_requests() const;
  /// p99 latency (ms) over the union of cold-start-gated requests; NaN
  /// when none (every request found warm weights — the best outcome).
  double cold_start_p99_ms() const;

  // ---- load-imbalance stats, over per-device routed counts ----
  double routed_mean() const;
  /// Coefficient of variation (population stddev / mean); 0 = balanced.
  double imbalance_cv() const;
  /// Hottest device / mean; 1 = balanced.
  double imbalance_max_over_mean() const;
};

/// Bit-exact digest of a fleet run, in workload::run_digest's scheme: the
/// router's decisions and every fleet tenant's counters and raw samples,
/// plus — unless `tenants_only` — the engine's event count, the front
/// door's books and each device's busy time and violation counters.
/// `tenants_only` compares runs that may legitimately differ in engine
/// work, e.g. with and without an observing front door.
std::string run_digest(const FleetMetrics& m, bool tenants_only = false);

/// Each device runs its own controller instance (controllers are
/// stateful — tidal clocks, switch timers); the factory builds one per
/// device.
using ControllerFactory = control::ControllerFactory;

class FleetSim {
 public:
  /// `placement` is consulted once, in the constructor; `router` and
  /// `make_controller`'s products must outlive run(). `make_controller`
  /// is also kept (by copy) for devices brought up lazily mid-run.
  FleetSim(FleetConfig cfg, std::vector<FleetTenantSpec> tenants,
           const PlacementPolicy& placement, Router& router,
           const ControllerFactory& make_controller);

  /// Replay `trace` fleet-wide; Request::service indexes the LS fleet
  /// tenants in spec order. Single-shot: one run per FleetSim.
  FleetMetrics run(const std::vector<workload::Request>& trace);

  // -------------------------------------------- external-driver API ----
  // run() is begin() + scheduled inject()s + run_until() + finish();
  // dynamic scenarios (workload::Scenario) call the pieces directly and
  // interleave control actions via at().
  void begin();
  /// Route one LS request for `service` (index into the LS fleet tenants)
  /// arriving at `arrival` (≤ now()).
  void inject(unsigned service, TimeNs arrival);
  /// Schedule a control action (tenant churn, SLO change, autoscaler
  /// tick) on the fleet clock. Control actions fire before
  /// same-timestamp dispatches and device events (the canonical tier
  /// order — docs/determinism.md).
  void at(TimeNs t, std::function<void()> fn);
  /// Drive the whole engine to `t` (events at exactly `t` still fire):
  /// the conservative windowed loop — barrier every device shard up to
  /// the next fleet event, fire it, repeat; then drain the shards to
  /// `t` inclusive. Returns the number of events fired.
  size_t run_until(TimeNs t);
  /// Stop recording and aggregate — active and retired replicas both
  /// count, so churned tenants keep their history.
  FleetMetrics finish();

  // --------------------------------- runtime rescale / re-placement ----
  /// Admit a new fleet tenant mid-run: the placement policy re-places the
  /// full tenant list and the new tenant's replicas land on its row
  /// (existing replicas never move). Returns the fleet tenant index; LS
  /// tenants also get the next service index. The row is placed on a
  /// copy of the tenant list and checked before anything changes (an
  /// empty row, a device out of range, failed, or idle without an
  /// explicit slo_multiplier, a replica SLO past TimeNs, a device sim
  /// that would refuse the replica, e.g. over its vGPU or VRAM budget);
  /// a rejected tenant throws ConfigError and leaves the fleet as it
  /// was.
  unsigned add_fleet_tenant(FleetTenantSpec spec,
                            const PlacementPolicy& placement);
  /// Grow a tenant by one replica on `device`.
  /// The device sim is created lazily if pack placement left it idle.
  /// An LS replica's SLO is scaled by the accumulated set_slo_factor().
  /// Runs add_fleet_tenant's per-device checks first; a rejected replica
  /// throws ConfigError and leaves the fleet as it was.
  void add_replica(unsigned tenant, DeviceId device);
  /// Grow a tenant by one replica wherever a device accepts it
  /// (failover and autoscaler scale-up). Candidates are the live devices
  /// not hosting the tenant yet (sim-less ones only under an explicit
  /// slo_multiplier), tried in order of perf-normalized LS load
  /// (device_ls_load / device_perf), then id, until one passes
  /// add_replica's checks; when the least-loaded one accepts, exactly one
  /// check runs. Returns the device, or nullopt, leaving the fleet as it
  /// was, when every candidate refuses.
  std::optional<DeviceId> try_add_replica(unsigned tenant);
  /// Retire the replica on `device`: routing stops immediately, admitted
  /// work drains, metrics survive (autoscaler scale-down).
  void remove_replica(unsigned tenant, DeviceId device);
  /// Retire every replica (tenant departure).
  void remove_fleet_tenant(unsigned tenant);
  /// Scale every LS SLO fleet-wide (factor < 1 tightens). Replicas added
  /// later inherit the accumulated factor. Throws ConfigError, changing
  /// nothing, unless the factor and the accumulated factor are finite
  /// and positive and every scaled SLO fits in TimeNs.
  void set_slo_factor(double factor);
  /// Re-plan a fleet tenant's vGPU guarantees (scenario set_quota): the
  /// spec is updated so future replicas inherit it, and every active
  /// replica's device re-carves its region and re-plans.
  void set_fleet_vgpu(unsigned tenant, const control::VgpuSpec& vgpu);
  /// Cordon `device` (mid-run failure): every replica on it retires —
  /// routing stops immediately, admitted work drains, metrics survive —
  /// and the autoscaler / lazy bring-up will never target it again. A
  /// tenant whose last replica lived there becomes unroutable: with the
  /// front door enabled its requests shed (and may retry); without, the
  /// next dispatch for it throws. Each such tenant is rescheduled through
  /// try_add_replica; one that no device accepts stays unroutable.
  /// Idempotent.
  void fail_device(DeviceId device);
  bool device_failed(DeviceId d) const { return failed_.at(d) != 0; }
  /// Pause/resume best-effort work on every live device (the front
  /// door's first shedding lever; also callable from scenario scripts).
  void set_be_paused(bool paused);

  // ------------------------------------------- router / test read API ----
  unsigned device_count() const { return cfg_.devices; }
  const FleetConfig& config() const { return cfg_; }
  bool device_in_use(DeviceId d) const { return devices_.at(d) != nullptr; }
  const core::ServingSim& device(DeviceId d) const;
  /// Device d's GPU spec: `config().spec` for homogeneous fleets, the
  /// per-device entry otherwise.
  const gpusim::GpuSpec& device_spec(DeviceId d) const;
  /// Relative serving capacity of device d against the baseline spec:
  /// the mean of its TPC-count and VRAM-bandwidth ratios. Exactly 1.0
  /// for every device of a homogeneous fleet, so perf-normalized
  /// routing/scaling (which divide by this) reproduce the homogeneous
  /// decisions bit-for-bit.
  double device_perf(DeviceId d) const;
  /// Where each tenant's replicas were first placed: the construction
  /// placement plus one appended row per runtime arrival. Replica
  /// rescale does not rewrite it — replicas_of() is the live view.
  const Assignment& assignment() const { return assignment_; }
  size_t tenant_count() const { return tenants_.size(); }
  const FleetTenantSpec& fleet_tenant(unsigned t) const {
    return tenants_.at(t);
  }
  /// Active (routable) replicas of a tenant; shrinks on removal.
  const std::vector<Replica>& replicas_of(unsigned tenant) const {
    return replicas_.at(tenant);
  }
  size_t ls_service_count() const { return ls_fleet_tenants_.size(); }
  /// Fleet tenant index behind an LS service index.
  unsigned ls_fleet_tenant(unsigned service) const {
    return ls_fleet_tenants_.at(service);
  }
  /// Fleet-wide LS queue depth: Σ outstanding over every active LS
  /// replica. The front door's overload signal.
  size_t fleet_ls_queue_depth() const;
  /// The live front door, or null when disabled.
  const FrontDoor* front_door() const { return front_door_.get(); }
  /// The engine frontier: how far the fleet-level queues have advanced.
  /// Device shards lag this inside a coalesced window and land on it at
  /// every barrier.
  TimeNs now() const { return std::max(control_.now(), dispatch_.now()); }
  /// True when device shards execute on the thread pool.
  bool parallel() const { return pool_ != nullptr; }
  /// Requests a replica currently holds (admitted + backlogged).
  size_t outstanding(const Replica& r) const {
    return device(r.device).outstanding(r.local_tenant);
  }
  /// Where the replica's weights live (kUnmodeled when its device does
  /// not model memory). The warm-weight router keys on this.
  memory::Residency replica_residency(const Replica& r) const {
    return device(r.device).residency_of(r.local_tenant);
  }
  /// Expected queued LS work on a device: Σ over its LS tenants of
  /// outstanding × isolated latency (ns of serialized work). Idle
  /// (sim-less) devices report zero.
  double device_ls_load(DeviceId d) const;

 private:
  void dispatch(const workload::Request& r);
  /// One routing attempt through the front door; `attempt` counts the
  /// retries already spent (0 = first arrival). `first_arrival` is the
  /// request's original fleet arrival — the latency clock — which
  /// survives retries, so backoff waits land in the latency samples.
  void dispatch_attempt(const workload::Request& r, unsigned attempt,
                        TimeNs first_arrival);
  /// Re-arrive a rejected/shed request after backoff, or drop it when
  /// the retry budget or the measurement window is exhausted.
  void schedule_retry(const workload::Request& r, unsigned attempt,
                      TimeNs first_arrival);
  void front_door_tick(TimeNs t);
  core::ServingConfig device_config(DeviceId d) const;
  /// A replica that passed every check, so placing it cannot throw.
  struct CheckedReplica {
    DeviceId device;
    /// Its device's initial SLO scaled by the accumulated SLO factor, or
    /// nullopt when the initial SLO stands (BE, or a factor of 1).
    std::optional<TimeNs> slo;
    /// Set only for an idle device: the sim built to check the replica,
    /// not yet begun, and the controller it plans with.
    std::unique_ptr<control::Controller> controller;
    std::unique_ptr<core::ServingSim> sim;
  };
  /// Throws ConfigError, changing nothing, unless a replica of `spec`
  /// may go on `d`: in range, not failed, and, when idle, with an
  /// explicit slo_multiplier; its scaled SLO fits in TimeNs; and the
  /// device's sim would register it (ServingSim::validate_tenant).
  CheckedReplica check_replica(const core::TenantSpec& spec,
                               DeviceId d) const;
  /// Bring the device up if the check built its sim, then register the
  /// replica there.
  void place_replica(unsigned tenant, CheckedReplica r);
  /// The conservative barrier: every device shard fires its events
  /// before `t` (exclusive) or up to `t` (inclusive) and lands its
  /// clock on `t`. Serial or thread-pool execution per FleetOptions;
  /// shards are independent, so the result is the same either way.
  size_t advance_shards(TimeNs t, bool inclusive);

  FleetConfig cfg_;
  std::vector<FleetTenantSpec> tenants_;
  Router& router_;
  ControllerFactory make_controller_;
  Assignment assignment_;
  /// Fleet-tier queues: control actions (at(); churn, SLO changes,
  /// autoscaler ticks) and trace dispatches (run()'s arrival → route
  /// hops). Separate so the engine can order control before dispatch at
  /// equal timestamps and coalesce blind-router dispatch windows.
  EventQueue control_;
  EventQueue dispatch_;
  /// One event-queue shard per device (created eagerly, even for
  /// devices idled by pack placement, so mid-run bring-up finds a shard
  /// already sitting on the fleet frontier). Device d's sim schedules
  /// exclusively on shards_[d]; cross-shard injections arrive as
  /// timestamped messages scheduled by the main thread between windows.
  /// That exclusivity is checked, not assumed: each sim's ShardGuard
  /// asserts it when armed (SGDRC_DEBUG_OWNERSHIP=1 —
  /// common/shard_guard.h).
  std::vector<std::unique_ptr<EventQueue>> shards_;
  /// Workers for advance_shards (null ⇒ serial). Woken per window via
  /// the pool's condition variable — readiness events, not polling.
  std::unique_ptr<ThreadPool> pool_;
  uint64_t events_ = 0;
  /// One controller per device.
  std::vector<std::unique_ptr<control::Controller>> controllers_;
  std::vector<std::unique_ptr<core::ServingSim>> devices_;  // null if idle
  std::vector<std::vector<Replica>> replicas_;  // active, per fleet tenant
  std::vector<std::vector<Replica>> retired_;   // removed, kept for metrics
  std::vector<unsigned> ls_fleet_tenants_;      // service index → tenant
  std::vector<uint64_t> routed_;
  std::vector<char> failed_;  // per device; 1 after fail_device
  bool device_be_paused_ = false;  // current fleet-wide BE pause state
  /// Null unless cfg_.front_door.enabled. The door reads live queue
  /// depths, so its presence disables dispatch coalescing — the engine
  /// barriers the shards before every dispatch, exactly like a
  /// state-reading router (docs/fleet-engine.md).
  std::unique_ptr<FrontDoor> front_door_;
  double slo_factor_ = 1.0;  // accumulated set_slo_factor product
  bool begun_ = false;
};

}  // namespace sgdrc::fleet
