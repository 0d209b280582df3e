// Tests for the fleet layer: placement (spread / pack / QoS-aware
// assignment shapes), routing (round-robin fairness, least-outstanding
// load avoidance), device-salted RNG seeding, metrics aggregation, and
// bit-for-bit determinism of whole fleet runs.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>

#include "baselines/baseline_policies.h"
#include "core/profiler.h"
#include "core/sgdrc_policy.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet.h"
#include "models/zoo.h"

namespace sgdrc::fleet {
namespace {

using core::best_effort_tenant;
using core::latency_sensitive_tenant;
using core::with_vgpu;
using workload::Request;

// Shared profiled models (profiling dominates test time; do it once).
struct Zoo {
  gpusim::GpuSpec spec = gpusim::test_gpu();
  models::ModelDesc ls_a = models::make_model('A');
  models::ModelDesc ls_b = models::make_model('B');
  models::ModelDesc be_i = models::make_model('I');
  TimeNs iso_a = 0, iso_b = 0;

  Zoo() {
    core::OfflineProfiler prof(spec);
    for (auto* m : {&ls_a, &ls_b, &be_i}) prof.profile(*m);
    iso_a = prof.isolated_latency(ls_a);
    iso_b = prof.isolated_latency(ls_b);
  }
};

const Zoo& zoo() {
  static const Zoo z;
  return z;
}

ControllerFactory sgdrc_factory() {
  return [](const gpusim::GpuSpec& spec) -> std::unique_ptr<control::Controller> {
    return std::make_unique<core::SgdrcPolicy>(spec);
  };
}

FleetConfig small_fleet(unsigned devices, TimeNs duration) {
  FleetConfig cfg;
  cfg.spec = zoo().spec;
  cfg.devices = devices;
  cfg.duration = duration;
  cfg.slo_multiplier = 4.0;
  cfg.seed = 0xf1ee7;
  return cfg;
}

std::vector<unsigned> per_device_counts(const Assignment& a,
                                        unsigned devices) {
  std::vector<unsigned> count(devices, 0);
  for (const auto& reps : a) {
    for (const DeviceId d : reps) ++count[d];
  }
  return count;
}

// ---------------------------------------------------------- Placement ----

TEST(Placement, SpreadBalancesReplicaCounts) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2),
      replicated(best_effort_tenant(z.be_i), 4),
  };
  SpreadPlacement spread;
  const auto a = spread.place(tenants, 4);
  validate_assignment(a, tenants, 4);
  EXPECT_EQ(per_device_counts(a, 4), (std::vector<unsigned>{2, 2, 2, 2}));
}

TEST(Placement, PackConsolidatesOntoFewestDevices) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2),
  };
  PackPlacement pack;
  const auto packed = pack.place(tenants, 4);
  validate_assignment(packed, tenants, 4);
  // Pack leaves devices 2 and 3 idle; spread touches all four.
  EXPECT_EQ(per_device_counts(packed, 4),
            (std::vector<unsigned>{2, 2, 0, 0}));
  SpreadPlacement spread;
  EXPECT_EQ(per_device_counts(spread.place(tenants, 4), 4),
            (std::vector<unsigned>{1, 1, 1, 1}));
}

TEST(Placement, PackOverflowsAtCapacity) {
  const auto& z = zoo();
  // One more single-replica tenant than device 0 takes spills onto
  // device 1; device 2 stays idle.
  std::vector<FleetTenantSpec> tenants(
      PackPlacement::kPerDevice + 1,
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1));
  PackPlacement pack;
  const auto a = pack.place(tenants, 3);
  validate_assignment(a, tenants, 3);
  EXPECT_EQ(per_device_counts(a, 3),
            (std::vector<unsigned>{PackPlacement::kPerDevice, 1, 0}));
}

TEST(Placement, QosAwareSendsBestEffortToLightDevice) {
  const auto& z = zoo();
  // Two LS tenants whose isolated latencies, the weights QoS-aware
  // placement derives, differ 100-fold, then one BE tenant: the BE
  // replica must land beside the light LS tenant.
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, 100 * z.iso_a), 1),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_a), 1),
      replicated(best_effort_tenant(z.be_i), 1),
  };
  QosAwarePlacement qos;
  const auto a = qos.place(tenants, 2);
  validate_assignment(a, tenants, 2);
  EXPECT_NE(a[0][0], a[1][0]);       // LS tenants split across devices
  EXPECT_EQ(a[2][0], a[1][0]);       // BE lands with the light tenant
}

// ------------------------------------------------------------ Seeding ----

TEST(Fleet, DeviceSeedsAreDistinctAndSalted) {
  const uint64_t base = 0xabcdef;
  for (DeviceId d = 0; d < 8; ++d) {
    EXPECT_NE(device_seed(base, d), base);
    for (DeviceId e = d + 1; e < 8; ++e) {
      EXPECT_NE(device_seed(base, d), device_seed(base, e));
    }
  }
}

TEST(Fleet, EveryDeviceSimGetsItsOwnSeed) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(2, 50 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  EXPECT_NE(fleet.device(0).config().seed, fleet.device(1).config().seed);
  EXPECT_EQ(fleet.device(0).config().seed,
            device_seed(fleet.config().seed, 0));
}

// ------------------------------------------------------------ Routing ----

TEST(Router, RoundRobinIsFairUnderEqualLoad) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(2, 500 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  // 10 well-separated requests: rotation alone must split them 5/5.
  std::vector<Request> trace;
  for (unsigned i = 0; i < 10; ++i) {
    trace.push_back({i * 40 * kNsPerMs, 0});
  }
  const auto m = fleet.run(trace);
  EXPECT_EQ(m.routed, (std::vector<uint64_t>{5, 5}));
  EXPECT_DOUBLE_EQ(m.imbalance_cv(), 0.0);
  EXPECT_DOUBLE_EQ(m.imbalance_max_over_mean(), 1.0);
}

TEST(Router, LeastOutstandingPicksTheIdleReplica) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  FleetConfig cfg = small_fleet(2, 500 * kNsPerMs);
  cfg.ls_instances = 1;
  SpreadPlacement spread;
  LeastOutstandingRouter lo;
  FleetSim fleet(cfg, tenants, spread, lo, sgdrc_factory());
  // Four near-simultaneous requests (gaps ≪ isolated latency): each
  // dispatch must see the earlier ones still in flight and alternate to
  // the idle replica.
  const TimeNs gap = std::max<TimeNs>(z.iso_a / 64, 1);
  std::vector<Request> trace;
  for (unsigned i = 0; i < 4; ++i) {
    trace.push_back({i * gap, 0});
  }
  const auto m = fleet.run(trace);
  EXPECT_EQ(m.routed, (std::vector<uint64_t>{2, 2}));
}

// Regression: equal loads used to break toward the lowest replica index,
// so an idle fleet (every startup; every lull) funnelled all traffic to
// device 0. Well-separated requests — each one completes before the next
// arrives, so every dispatch sees an all-idle tie — must now spread
// round-robin across the replicas, for both load-aware routers.
TEST(Router, LoadAwareTieBreakRotatesOnIdleFleet) {
  const auto& z = zoo();
  std::vector<Request> trace;
  for (unsigned i = 0; i < 12; ++i) {
    trace.push_back({i * 40 * kNsPerMs, 0});
  }
  {
    std::vector<FleetTenantSpec> tenants{
        replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 3)};
    SpreadPlacement spread;
    LeastOutstandingRouter lo;
    FleetSim fleet(small_fleet(3, 500 * kNsPerMs), tenants, spread, lo,
                   sgdrc_factory());
    const auto m = fleet.run(trace);
    EXPECT_EQ(m.routed, (std::vector<uint64_t>{4, 4, 4}))
        << "least-outstanding hot-spots a replica on an idle fleet";
  }
  {
    std::vector<FleetTenantSpec> tenants{
        replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 3)};
    SpreadPlacement spread;
    QosLoadAwareRouter qla;
    FleetSim fleet(small_fleet(3, 500 * kNsPerMs), tenants, spread, qla,
                   sgdrc_factory());
    const auto m = fleet.run(trace);
    EXPECT_EQ(m.routed, (std::vector<uint64_t>{4, 4, 4}))
        << "qos-load-aware hot-spots a replica on an idle fleet";
  }
}

TEST(Router, QosLoadAwareAvoidsTheLoadedDevice) {
  const auto& z = zoo();
  // Tenant 0 has replicas on both devices; tenant 1 lives only on
  // device 0 and is flooded first. The QoS-load-aware router must send
  // tenant 0's request to device 1; plain round-robin would not.
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 1),
  };
  FleetConfig cfg = small_fleet(2, 500 * kNsPerMs);
  cfg.ls_instances = 1;
  SpreadPlacement spread;
  QosLoadAwareRouter qla;
  FleetSim fleet(cfg, tenants, spread, qla, sgdrc_factory());
  ASSERT_EQ(fleet.replicas_of(0).size(), 2u);
  const DeviceId dev_of_b = fleet.replicas_of(1)[0].device;
  // Flood tenant 1 (service index 1), then send one tenant-0 request
  // while the flood is still queued.
  std::vector<Request> trace;
  for (unsigned i = 0; i < 6; ++i) {
    trace.push_back({i + 1, 1});
  }
  trace.push_back({100, 0});
  const auto m = fleet.run(trace);
  // The tenant-0 request went to the device NOT hosting the flood.
  EXPECT_EQ(m.routed[dev_of_b], 6u);
  EXPECT_EQ(m.routed[1 - dev_of_b], 1u);
}

// ------------------------------------------- Aggregation + determinism ----

FleetMetrics run_reference_fleet(core::BeMode be_mode) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2),
      replicated(best_effort_tenant(z.be_i), 2),
  };
  FleetConfig cfg = small_fleet(2, 200 * kNsPerMs);
  cfg.be_mode = be_mode;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 5 * kNsPerUs;  // exercises the per-device RNG
  SpreadPlacement spread;
  LeastOutstandingRouter lo;
  FleetSim fleet(cfg, tenants, spread, lo, sgdrc_factory());
  workload::TraceOptions topt;
  topt.services = 2;
  topt.duration = cfg.duration;
  topt.per_service_rates = {200.0, 200.0};
  topt.seed = 0x7ace;
  return fleet.run(workload::generate_apollo_like_trace(topt));
}

TEST(Fleet, AggregationConservesRequestsAndMergesClasses) {
  const auto m = run_reference_fleet(core::BeMode::kRoundRobin);
  ASSERT_EQ(m.tenants.size(), 3u);
  ASSERT_EQ(m.devices.size(), 2u);
  // Every dispatched request is attributed to exactly one fleet tenant
  // and one device.
  uint64_t routed_total = 0;
  for (const uint64_t r : m.routed) routed_total += r;
  uint64_t arrived_total = 0;
  for (const auto& t : m.tenants) arrived_total += t.arrived;
  EXPECT_EQ(routed_total, arrived_total);
  // Fleet tenant counters equal the sum over their device replicas.
  for (unsigned t = 0; t < 2; ++t) {
    uint64_t dev_served = 0;
    for (const auto& dm : m.devices) {
      for (const auto& tm : dm.tenants) {
        if (tm.qos == workload::QosClass::kLatencySensitive &&
            tm.letter == m.tenants[t].letter) {
          dev_served += tm.served;
        }
      }
    }
    EXPECT_EQ(m.tenants[t].served, dev_served);
    EXPECT_EQ(m.tenants[t].latency.count(), m.tenants[t].served);
  }
  // The merged BE tenant made progress on both devices.
  EXPECT_GT(m.tenants[2].kernels_done, 0u);
  EXPECT_GT(m.be_throughput(), 0.0);
  EXPECT_GT(m.ls_goodput(), 0.0);
}

TEST(Fleet, IdenticalRunsProduceIdenticalMetrics) {
  for (const auto mode :
       {core::BeMode::kRoundRobin, core::BeMode::kConcurrent}) {
    EXPECT_EQ(run_digest(run_reference_fleet(mode)),
              run_digest(run_reference_fleet(mode)));
  }
}

TEST(Fleet, SingleDeviceFleetMatchesStandaloneServingSim) {
  const auto& z = zoo();
  // A 1-device fleet with a zero-cost dispatch hop is exactly a
  // ServingSim: the layers must agree bit-for-bit.
  workload::TraceOptions topt;
  topt.services = 1;
  topt.duration = 200 * kNsPerMs;
  topt.per_service_rates = {300.0};
  topt.seed = 0x1de7;
  const auto trace = workload::generate_apollo_like_trace(topt);

  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
      replicated(best_effort_tenant(z.be_i), 1),
  };
  FleetConfig cfg = small_fleet(1, topt.duration);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
  const auto fm = fleet.run(trace);

  core::SgdrcPolicy policy(z.spec);
  const auto sim = core::ServingSimBuilder()
                       .gpu(z.spec)
                       .duration(topt.duration)
                       .slo_multiplier(cfg.slo_multiplier)
                       .add_latency_sensitive(z.ls_a, z.iso_a)
                       .add_best_effort(z.be_i)
                       .build(policy);
  const auto sm = sim->run(trace);

  ASSERT_EQ(fm.tenants.size(), sm.tenants.size());
  for (size_t t = 0; t < fm.tenants.size(); ++t) {
    EXPECT_EQ(fm.tenants[t].served, sm.tenants[t].served);
    EXPECT_EQ(fm.tenants[t].attained, sm.tenants[t].attained);
    EXPECT_EQ(fm.tenants[t].kernels_done, sm.tenants[t].kernels_done);
    EXPECT_EQ(fm.tenants[t].latency.raw(), sm.tenants[t].latency.raw());
  }
}

// --------------------------------------------- runtime rescale / churn ----

TEST(Fleet, RuntimeReplicaRescaleConservesRequests) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1)};
  FleetConfig cfg = small_fleet(2, 200 * kNsPerMs);
  cfg.ls_instances = 1;
  SpreadPlacement spread;
  LeastOutstandingRouter lo;
  FleetSim fleet(cfg, tenants, spread, lo, sgdrc_factory());
  fleet.begin();
  for (unsigned i = 0; i < 50; ++i) {
    const TimeNs at = (i + 1) * 2 * kNsPerMs;
    fleet.at(at, [&fleet, at] { fleet.inject(0, at); });
  }
  // Scale out to device 1 mid-run, then retire the original replica
  // while traffic still flows: the tail must route to device 1 only.
  fleet.at(50 * kNsPerMs, [&fleet] { fleet.add_replica(0, 1); });
  fleet.at(60 * kNsPerMs, [&fleet] { fleet.remove_replica(0, 0); });
  fleet.run_until(cfg.duration);
  const auto m = fleet.finish();
  // Both devices served traffic; nothing was lost across the rescale —
  // the retired replica drained and its history still counts.
  EXPECT_GT(m.routed[0], 0u);
  EXPECT_GT(m.routed[1], 0u);
  EXPECT_EQ(m.routed[0] + m.routed[1], 50u);
  EXPECT_EQ(m.tenants[0].arrived, 50u);
  EXPECT_EQ(m.tenants[0].served, 50u);
}

TEST(Fleet, RuntimeAddBringsUpPackIdledDevice) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
      replicated(best_effort_tenant(z.be_i), 1)};
  FleetConfig cfg = small_fleet(2, 100 * kNsPerMs);
  PackPlacement pack;  // everything lands on device 0
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, pack, rr, sgdrc_factory());
  EXPECT_FALSE(fleet.device_in_use(1));
  fleet.begin();
  fleet.at(20 * kNsPerMs, [&fleet] { fleet.add_replica(0, 1); });
  for (unsigned i = 0; i < 20; ++i) {
    const TimeNs at = 30 * kNsPerMs + i * 3 * kNsPerMs;
    fleet.at(at, [&fleet, at] { fleet.inject(0, at); });
  }
  fleet.run_until(cfg.duration);
  const auto m = fleet.finish();
  // The idle device was created lazily and served its share.
  EXPECT_TRUE(fleet.device_in_use(1));
  EXPECT_GT(m.routed[1], 0u);
  EXPECT_EQ(m.tenants[0].served, 20u);
}

TEST(Fleet, AddFleetTenantReusesThePlacementPolicy) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  FleetConfig cfg = small_fleet(2, 100 * kNsPerMs);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
  fleet.begin();
  unsigned added = ~0u;
  fleet.at(10 * kNsPerMs, [&] {
    added = fleet.add_fleet_tenant(
        replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2), spread);
  });
  fleet.run_until(20 * kNsPerMs);
  ASSERT_EQ(added, 1u);
  EXPECT_EQ(fleet.tenant_count(), 2u);
  EXPECT_EQ(fleet.ls_service_count(), 2u);
  EXPECT_EQ(fleet.replicas_of(1).size(), 2u);
  // The new service routes like any other.
  fleet.at(30 * kNsPerMs, [&fleet] { fleet.inject(1, 30 * kNsPerMs); });
  fleet.run_until(cfg.duration);
  const auto m = fleet.finish();
  EXPECT_EQ(m.tenants[1].arrived, 1u);
  EXPECT_EQ(m.tenants[1].served, 1u);
}

TEST(Fleet, SloFactorsPastTimeNsAreRejectedBeforeAnyChange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  FleetConfig cfg = small_fleet(2, 10 * kNsPerMs);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
  const TimeNs slo = fleet.device(0).slo_of(0);
  EXPECT_THROW(fleet.set_slo_factor(kInf), ConfigError);
  EXPECT_THROW(fleet.set_slo_factor(0.0), ConfigError);
  // Finite, but every scaled SLO is past 2^64 ns.
  EXPECT_THROW(fleet.set_slo_factor(1e300), ConfigError);
  EXPECT_EQ(fleet.device(0).slo_of(0), slo);
  EXPECT_EQ(fleet.device(1).slo_of(0), slo);

  fleet.set_slo_factor(8.0);
  EXPECT_EQ(fleet.device(0).slo_of(0),
            static_cast<TimeNs>(8.0 * static_cast<double>(slo)));
  // A later replica inherits the accumulated factor: its initial SLO of
  // 4 × 2^60 ns fits in TimeNs, 8 times that does not, so the tenant is
  // refused before the fleet or any device registers it.
  const size_t counts[] = {fleet.device(0).tenant_count(),
                           fleet.device(1).tenant_count()};
  EXPECT_THROW(
      fleet.add_fleet_tenant(
          replicated(latency_sensitive_tenant(z.ls_b, TimeNs{1} << 60), 1),
          spread),
      ConfigError);
  EXPECT_EQ(fleet.device(0).tenant_count(), counts[0]);
  EXPECT_EQ(fleet.device(1).tenant_count(), counts[1]);
  EXPECT_EQ(fleet.tenant_count(), 1u);
  EXPECT_EQ(fleet.ls_service_count(), 1u);
  EXPECT_EQ(fleet.assignment().size(), 1u);
  EXPECT_NO_THROW(fleet.finish());

  // With no LS SLO to scale, only the accumulated factor can overflow.
  std::vector<FleetTenantSpec> be_only{
      replicated(best_effort_tenant(z.be_i), 1)};
  FleetSim be_fleet(cfg, be_only, spread, rr, sgdrc_factory());
  be_fleet.set_slo_factor(1e300);
  EXPECT_THROW(be_fleet.set_slo_factor(1e300), ConfigError);
}

TEST(Fleet, TenantPlacedOnAFailedDeviceIsRejectedBeforeAnyChange) {
  // Spread places a 2-replica tenant on both devices, one of them
  // cordoned: the tenant is refused before its healthy replica lands.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(2, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  fleet.fail_device(1);
  const size_t on_device0 = fleet.device(0).tenant_count();
  EXPECT_THROW(
      fleet.add_fleet_tenant(
          replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2), spread),
      ConfigError);
  EXPECT_EQ(fleet.device(0).tenant_count(), on_device0);
  EXPECT_EQ(fleet.tenant_count(), 1u);
  EXPECT_EQ(fleet.ls_service_count(), 1u);
  EXPECT_EQ(fleet.assignment().size(), 1u);
  EXPECT_NO_THROW(fleet.finish());
}

// Per device: whether it is in use, and its sim's tenant count.
std::vector<std::pair<bool, size_t>> device_states(const FleetSim& fleet) {
  std::vector<std::pair<bool, size_t>> out;
  for (DeviceId d = 0; d < fleet.device_count(); ++d) {
    const bool in_use = fleet.device_in_use(d);
    out.emplace_back(in_use, in_use ? fleet.device(d).tenant_count() : 0);
  }
  return out;
}

// An LS fleet tenant whose replicas each guarantee `tpcs` TPCs.
FleetTenantSpec guaranteed_ls(const models::ModelDesc& m, TimeNs iso,
                              unsigned tpcs, unsigned replicas) {
  return replicated(with_vgpu(latency_sensitive_tenant(m, iso),
                              {.guaranteed_tpcs = tpcs}),
                    replicas);
}

TEST(Fleet, TenantADeviceSimRefusesIsRejectedBeforeAnyChange) {
  // Tenant 0 guarantees 3 of the test GPU's 4 TPCs, so the device sim
  // refuses a second tenant guaranteeing 2; the fleet must refuse it
  // before it registers the tenant anywhere.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{guaranteed_ls(z.ls_a, z.iso_a, 3, 1)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(1, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  const auto before = device_states(fleet);
  EXPECT_THROW(
      fleet.add_fleet_tenant(guaranteed_ls(z.ls_b, z.iso_b, 2, 1), spread),
      ConfigError);
  EXPECT_EQ(device_states(fleet), before);
  EXPECT_EQ(fleet.tenant_count(), 1u);
  EXPECT_EQ(fleet.ls_service_count(), 1u);
  EXPECT_EQ(fleet.assignment().size(), 1u);
  EXPECT_NO_THROW(fleet.finish());
}

TEST(Fleet, RowRefusedPastAnIdleDeviceIsRejectedBeforeAnyChange) {
  // Spread puts the newcomer's first replica on idle device 1, which
  // would take it, and its second on device 0, whose guarantees refuse
  // it: device 1 must stay idle and no replica may register.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{guaranteed_ls(z.ls_a, z.iso_a, 3, 1)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(2, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  ASSERT_FALSE(fleet.device_in_use(1));
  const auto before = device_states(fleet);
  EXPECT_THROW(
      fleet.add_fleet_tenant(guaranteed_ls(z.ls_b, z.iso_b, 2, 2), spread),
      ConfigError);
  EXPECT_EQ(device_states(fleet), before);
  EXPECT_EQ(fleet.tenant_count(), 1u);
  EXPECT_EQ(fleet.ls_service_count(), 1u);
  EXPECT_EQ(fleet.assignment().size(), 1u);
  EXPECT_NO_THROW(fleet.finish());
}

TEST(Fleet, FailoverOntoARefusingDeviceLeavesTheTenantUnroutable) {
  // Tenants 0 and 1 each guarantee 3 of the test GPU's 4 TPCs, one per
  // device. When device 1 fails, device 0 refuses tenant 1's replica:
  // the refusal must not escape, and tenant 1 stays unroutable.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{guaranteed_ls(z.ls_a, z.iso_a, 3, 1),
                                       guaranteed_ls(z.ls_b, z.iso_b, 3, 1)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(2, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  ASSERT_EQ(fleet.replicas_of(1).at(0).device, 1u);
  const size_t on_device0 = fleet.device(0).tenant_count();
  EXPECT_NO_THROW(fleet.fail_device(1));
  EXPECT_TRUE(fleet.replicas_of(1).empty());
  EXPECT_EQ(fleet.device(0).tenant_count(), on_device0);
  EXPECT_NO_THROW(fleet.finish());
}

TEST(Fleet, FailoverSkipsARefusingDeviceForTheNextThatAccepts) {
  // As above on three devices, with a BE tenant on device 2. Devices 0
  // and 2 carry no LS load, so device 0 is tried first and refuses;
  // tenant 1 fails over to device 2 and keeps serving.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{guaranteed_ls(z.ls_a, z.iso_a, 3, 1),
                                       guaranteed_ls(z.ls_b, z.iso_b, 3, 1),
                                       replicated(best_effort_tenant(z.be_i))};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetConfig cfg = small_fleet(3, 50 * kNsPerMs);
  FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
  ASSERT_EQ(fleet.replicas_of(1).at(0).device, 1u);
  ASSERT_EQ(fleet.replicas_of(2).at(0).device, 2u);
  const size_t on_device0 = fleet.device(0).tenant_count();
  fleet.begin();
  fleet.at(5 * kNsPerMs, [&fleet] { fleet.fail_device(1); });
  fleet.at(10 * kNsPerMs, [&fleet] { fleet.inject(1, 10 * kNsPerMs); });
  fleet.run_until(cfg.duration);
  ASSERT_EQ(fleet.replicas_of(1).size(), 1u);
  EXPECT_EQ(fleet.replicas_of(1)[0].device, 2u);
  EXPECT_EQ(fleet.device(0).tenant_count(), on_device0);
  const auto m = fleet.finish();
  EXPECT_EQ(m.routed[2], 1u);
  EXPECT_EQ(m.tenants[1].served, 1u);
}

TEST(Autoscaler, ScaleUpSkipsARefusingDeviceForTheNextThatAccepts) {
  // Tenant 0 (3 of 4 TPCs guaranteed) has 8 requests outstanding on
  // its one replica, well past the scale-up threshold. Devices 1 and 2
  // carry no LS load; device 1's guarantees refuse the new replica, so
  // it goes to device 2.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{guaranteed_ls(z.ls_a, z.iso_a, 3, 1),
                                       guaranteed_ls(z.ls_b, z.iso_b, 3, 1),
                                       replicated(best_effort_tenant(z.be_i))};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(3, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  fleet.begin();
  for (unsigned i = 0; i < 8; ++i) fleet.inject(0, 0);
  const size_t on_device1 = fleet.device(1).tenant_count();
  Autoscaler scaler;
  scaler.tick(fleet);
  ASSERT_EQ(scaler.decisions().size(), 1u);
  EXPECT_TRUE(scaler.decisions()[0].scale_up);
  EXPECT_EQ(scaler.decisions()[0].device, 2u);
  ASSERT_EQ(fleet.replicas_of(0).size(), 2u);
  EXPECT_EQ(fleet.replicas_of(0)[1].device, 2u);
  EXPECT_EQ(fleet.device(1).tenant_count(), on_device1);
  EXPECT_NO_THROW(fleet.finish());
}

TEST(Fleet, EveryReplicaSharesItsFleetTenantsModel) {
  // Replicas placed at construction, by add_fleet_tenant and by
  // add_replica all run the fleet tenant's own ModelDesc object: no
  // replica holds a copy of its kernel list.
  const auto& z = zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(best_effort_tenant(z.be_i), 1)};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(small_fleet(3, 10 * kNsPerMs), tenants, spread, rr,
                 sgdrc_factory());
  EXPECT_EQ(fleet.fleet_tenant(0).spec.model, tenants[0].spec.model);
  const unsigned added = fleet.add_fleet_tenant(
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), 2), spread);
  ASSERT_EQ(fleet.replicas_of(0).size(), 2u);
  fleet.add_replica(0, 2);
  for (const unsigned t : {0u, 1u, added}) {
    const models::ModelDesc* model = fleet.fleet_tenant(t).spec.model.get();
    ASSERT_NE(model, nullptr);
    for (const Replica& r : fleet.replicas_of(t)) {
      EXPECT_EQ(fleet.device(r.device).tenant(r.local_tenant).model.get(),
                model);
    }
  }
  EXPECT_EQ(fleet.replicas_of(0).size(), 3u);
}

// -------------------------------------------------- vGPU quota layer ----

TEST(Placement, QuotaAwareBinPacksGuaranteedTpcs) {
  const auto& z = zoo();  // 4-TPC test GPU
  std::vector<FleetTenantSpec> tenants{
      replicated(with_vgpu(latency_sensitive_tenant(z.ls_a, z.iso_a),
                           {.guaranteed_tpcs = 3}),
                 1),
      replicated(with_vgpu(latency_sensitive_tenant(z.ls_b, z.iso_b),
                           {.guaranteed_tpcs = 2}),
                 1),
      replicated(with_vgpu(best_effort_tenant(z.be_i),
                           {.guaranteed_tpcs = 2}),
                 1),
      replicated(best_effort_tenant(z.be_i), 2),
  };
  QuotaAwarePlacement quota(z.spec.num_tpcs);
  const auto a = quota.place(tenants, 2);
  validate_assignment(a, tenants, 2);
  // FFD over {3, 2, 2} into 4-TPC bins: the 3 sits alone, the two 2s
  // pack together — no bin's reservations overcommit its SMs.
  EXPECT_NE(a[0][0], a[1][0]);
  EXPECT_EQ(a[1][0], a[2][0]);
  // Every replica set is constructible: the device sims accept the
  // resulting per-device guarantee budgets.
  FleetConfig cfg = small_fleet(2, 5 * kNsPerMs);
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, quota, rr, sgdrc_factory());
  fleet.begin();
  fleet.run_until(cfg.duration);
  EXPECT_EQ(fleet.finish().guarantee_violations(), 0u);
}

TEST(Placement, QuotaAwareBinPacksVramBytes) {
  const auto& z = zoo();  // 4-TPC test GPU
  const uint64_t w = z.be_i.weight_bytes();
  ASSERT_GT(w, 0u);
  // Two 1-TPC reservations with memory quotas of 14w and 10w against
  // 20w byte bins: both fit device 0's TPCs, but not its bytes together.
  std::vector<FleetTenantSpec> tenants{
      replicated(with_vgpu(latency_sensitive_tenant(z.ls_a, z.iso_a),
                           {.guaranteed_tpcs = 1, .memory_bytes = 14 * w}),
                 1),
      replicated(with_vgpu(latency_sensitive_tenant(z.ls_b, z.iso_b),
                           {.guaranteed_tpcs = 1, .memory_bytes = 10 * w}),
                 1),
      replicated(best_effort_tenant(z.be_i), 1),
  };
  QuotaAwarePlacement bytes(z.spec.num_tpcs, 20 * w);
  const auto a = bytes.place(tenants, 2);
  validate_assignment(a, tenants, 2);
  // FFD places the 14w quota first; the 10w one fits the TPCs left on
  // device 0 but not its 6w of bytes, so it goes to device 1.
  EXPECT_EQ(a[0][0], 0u);
  EXPECT_EQ(a[1][0], 1u);
  // The unguaranteed replica sees equal TPC headroom (3 and 3) and equal
  // replica counts; the tie breaks toward device 1's 10w of byte
  // headroom over device 0's 6w, not toward the lower id.
  EXPECT_EQ(a[2][0], 1u);
  // Without byte bins the two reservations share device 0.
  const auto tpcs_only = QuotaAwarePlacement(z.spec.num_tpcs).place(tenants, 2);
  EXPECT_EQ(tpcs_only[0][0], 0u);
  EXPECT_EQ(tpcs_only[1][0], 0u);
}

TEST(FleetVgpu, SetFleetVgpuReachesEveryReplicaAndFutureOnes) {
  const auto& z = zoo();
  FleetConfig cfg = small_fleet(2, 50 * kNsPerMs);
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(best_effort_tenant(z.be_i), 2),
  };
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
  fleet.begin();
  fleet.at(10 * kNsPerMs,
           [&] { fleet.set_fleet_vgpu(0, {.guaranteed_tpcs = 2}); });
  fleet.run_until(20 * kNsPerMs);
  for (const Replica& r : fleet.replicas_of(0)) {
    EXPECT_EQ(gpusim::tpc_count(
                  fleet.device(r.device).guaranteed_mask(r.local_tenant)),
              2u);
  }
  EXPECT_EQ(fleet.fleet_tenant(0).spec.vgpu.guaranteed_tpcs, 2u);
  fleet.run_until(cfg.duration);
  // SGDRC's plan-emitting controller honours the regions everywhere.
  EXPECT_EQ(fleet.finish().guarantee_violations(), 0u);
}

}  // namespace
}  // namespace sgdrc::fleet
