// Heterogeneous fleets and the overload front door: per-device GpuSpecs
// (device_spec/device_perf), perf-normalized placement and routing,
// token-bucket admission, QoS-ordered shedding (BE pause before
// priority-scaled LS shed), the client retry model (whose backoff must
// land in latency samples — shedding is never free), device failure as
// cordon-and-drain with last-replica recovery, and the door's
// conservation identities. docs/overload.md is the operator-facing
// companion of this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/sgdrc_policy.h"
#include "fleet/fleet.h"
#include "models/zoo.h"
#include "workload/trace.h"

namespace sgdrc::fleet {
namespace {

using core::best_effort_tenant;
using core::latency_sensitive_tenant;

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
  return [](const gpusim::GpuSpec& spec)
             -> std::unique_ptr<control::Controller> {
    return std::make_unique<core::SgdrcPolicy>(spec);
  };
}

FleetConfig base_config(unsigned devices, TimeNs duration) {
  FleetConfig cfg;
  cfg.spec = zoo().spec;
  cfg.devices = devices;
  cfg.duration = duration;
  cfg.slo_multiplier = 3.0;
  cfg.seed = 0xd002;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 3 * kNsPerUs;
  return cfg;
}

std::vector<FleetTenantSpec> mixed_tenants(unsigned reps) {
  const auto& z = zoo();
  return {
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), reps),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), reps),
      replicated(best_effort_tenant(z.be_i), reps),
  };
}

std::vector<workload::Request> heavy_trace(TimeNs duration) {
  workload::TraceOptions topt;
  topt.services = 2;
  topt.duration = duration;
  topt.per_service_rates = {700.0, 500.0};
  topt.seed = 0x57a3;
  return workload::generate_apollo_like_trace(topt);
}

/// Tenant-level fingerprint (excludes engine event counts, which
/// legitimately differ between the coalescing and barriered dispatch
/// paths even when every request outcome is identical).
// ------------------------------------------------ per-device specs ----

TEST(HeteroFleet, A100SpecAndRelativePerf) {
  const auto a100 = gpusim::a100_sxm4();
  EXPECT_EQ(a100.name, "A100-SXM4-40GB");
  EXPECT_EQ(a100.vram_bytes, 40ull << 30);
  // ChannelSet is 32 bits wide — the HBM stacks must fold within it.
  EXPECT_LE(a100.num_channels, 32u);
  EXPECT_LE(a100.num_tpcs, 64u);  // TpcMask is 64 bits wide

  const auto a2000 = gpusim::rtx_a2000();
  EXPECT_GT(relative_perf(a100, a2000), 1.0);
  EXPECT_LT(relative_perf(a2000, a100), 1.0);
  // Self-relative perf is EXACTLY 1.0 — the homogeneous bit-identity
  // contract (dividing by 1.0 preserves every comparison bit-for-bit).
  EXPECT_EQ(relative_perf(a2000, a2000), 1.0);
  EXPECT_EQ(relative_perf(a100, a100), 1.0);

  const auto factors = device_perf_factors({a2000, a100}, a2000);
  ASSERT_EQ(factors.size(), 2u);
  EXPECT_EQ(factors[0], 1.0);
  EXPECT_GT(factors[1], 1.0);
}

TEST(HeteroFleet, FleetExposesPerDeviceSpecsAndPerf) {
  FleetConfig cfg = base_config(2, 10 * kNsPerMs);
  cfg.device_specs = {zoo().spec, gpusim::a100_sxm4()};
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, mixed_tenants(2), spread, rr, sgdrc_factory());
  EXPECT_EQ(fleet.device_spec(0).name, zoo().spec.name);
  EXPECT_EQ(fleet.device_spec(1).name, "A100-SXM4-40GB");
  EXPECT_EQ(fleet.device_perf(0), 1.0);
  EXPECT_GT(fleet.device_perf(1), 1.0);
}

TEST(HeteroFleet, HomogeneousPerfIsExactlyOne) {
  FleetConfig cfg = base_config(3, 10 * kNsPerMs);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, mixed_tenants(3), spread, rr, sgdrc_factory());
  for (DeviceId d = 0; d < 3; ++d) {
    EXPECT_EQ(fleet.device_perf(d), 1.0);
    EXPECT_EQ(fleet.device_spec(d).name, zoo().spec.name);
  }
}

TEST(HeteroFleet, MismatchedDeviceSpecCountIsRejected) {
  FleetConfig cfg = base_config(3, 10 * kNsPerMs);
  cfg.device_specs = {zoo().spec, gpusim::a100_sxm4()};  // 2 specs, 3 devs
  SpreadPlacement spread;
  RoundRobinRouter rr;
  EXPECT_THROW(
      FleetSim(cfg, mixed_tenants(2), spread, rr, sgdrc_factory()),
      std::runtime_error);
}

// --------------------------------------- perf-aware placement bins ----

TEST(HeteroFleet, QosPlacementLeansOntoTheFastDevice) {
  const auto& z = zoo();
  std::vector<FleetTenantSpec> three_ls{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
  };
  // Homogeneous: 3 equal tenants over 2 devices land 2 + 1.
  const auto flat = QosAwarePlacement{}.place(three_ls, 2);
  // A 3x device 1: it should absorb 2 of the 3 (its normalized load
  // stays below device 0's after one placement).
  const auto hetero =
      QosAwarePlacement{{1.0, 3.0}}.place(three_ls, 2);
  unsigned flat_on_1 = 0, hetero_on_1 = 0;
  for (const auto& reps : flat) flat_on_1 += (reps[0] == 1);
  for (const auto& reps : hetero) hetero_on_1 += (reps[0] == 1);
  EXPECT_EQ(flat_on_1, 1u);
  EXPECT_EQ(hetero_on_1, 2u);
}

TEST(HeteroFleet, QuotaPlacementRespectsPerDeviceBins) {
  const auto& z = zoo();
  FleetTenantSpec big = replicated(
      latency_sensitive_tenant(z.ls_a, z.iso_a), 1);
  big.spec.vgpu.guaranteed_tpcs = 8;
  // Device 0 has a 4-TPC bin, device 1 a 16-TPC bin: only the big bin
  // can hold an 8-TPC reservation.
  const auto placed =
      QuotaAwarePlacement{std::vector<DeviceShape>{{4, 0}, {16, 0}}}
          .place({big}, 2);
  ASSERT_EQ(placed.size(), 1u);
  ASSERT_EQ(placed[0].size(), 1u);
  EXPECT_EQ(placed[0][0], 1u);
}

// ------------------------------------------------- the front door ----

FleetConfig overload_config(TimeNs duration) {
  FleetConfig cfg = base_config(2, duration);
  cfg.front_door.enabled = true;
  cfg.front_door.admit_rate = 300.0;
  cfg.front_door.admit_burst = 4.0;
  cfg.front_door.be_pause_depth = 4;
  cfg.front_door.shed_depth = 8;
  cfg.front_door.max_retries = 2;
  return cfg;
}

TEST(FrontDoor, DisabledDoorKeepsEveryCounterZero) {
  FleetConfig cfg = base_config(2, 40 * kNsPerMs);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, mixed_tenants(2), spread, rr, sgdrc_factory());
  EXPECT_EQ(fleet.front_door(), nullptr);
  const auto m = fleet.run(heavy_trace(40 * kNsPerMs));
  EXPECT_EQ(m.front_door.arrived, 0u);
  EXPECT_EQ(m.front_door.admitted, 0u);
}

TEST(FrontDoor, NoOpDoorMatchesDisabledDoorOutcomeForOutcome) {
  // A door with every lever off (no bucket, no depths, no retries)
  // observes but never intervenes: request outcomes must be identical
  // to the door-less fleet, though the engine takes the barriered
  // (non-coalescing) dispatch path underneath.
  const TimeNs duration = 40 * kNsPerMs;
  const auto trace = heavy_trace(duration);
  SpreadPlacement spread;

  RoundRobinRouter rr1;
  FleetSim off(base_config(2, duration), mixed_tenants(2), spread, rr1,
               sgdrc_factory());
  const auto m_off = off.run(trace);

  FleetConfig cfg = base_config(2, duration);
  cfg.front_door.enabled = true;  // all levers at their zero defaults
  RoundRobinRouter rr2;
  FleetSim on(cfg, mixed_tenants(2), spread, rr2, sgdrc_factory());
  ASSERT_NE(on.front_door(), nullptr);
  const auto m_on = on.run(trace);

  EXPECT_EQ(run_digest(m_off, /*tenants_only=*/true),
            run_digest(m_on, /*tenants_only=*/true));
  // The observing door still keeps books.
  EXPECT_GT(m_on.front_door.arrived, 0u);
  EXPECT_EQ(m_on.front_door.arrived, m_on.front_door.admitted);
  EXPECT_EQ(m_on.front_door.rejected, 0u);
  EXPECT_EQ(m_on.front_door.shed, 0u);
}

TEST(FrontDoor, TokenBucketRejectsAndRetriesConserveRequests) {
  const TimeNs duration = 60 * kNsPerMs;
  FleetConfig cfg = overload_config(duration);
  cfg.front_door.admit_rate = 150.0;  // well under the offered ~1200/s
  SpreadPlacement spread;
  QosLoadAwareRouter router;
  FleetSim fleet(cfg, mixed_tenants(2), spread, router, sgdrc_factory());
  const auto m = fleet.run(heavy_trace(duration));
  const auto& fd = m.front_door;
  EXPECT_GT(fd.arrived, 0u);
  EXPECT_GT(fd.rejected, 0u);
  EXPECT_GT(fd.retries, 0u);
  EXPECT_GT(fd.dropped, 0u);
  // Door-level conservation: every first-attempt arrival terminates as
  // admitted or dropped, or sits in a scheduled retry at the horizon.
  EXPECT_EQ(fd.arrived, fd.admitted + fd.dropped + fd.pending_retries);
  // Device-level: every admitted request reached a device unless its
  // dispatch hop crossed the horizon.
  uint64_t device_arrivals = 0;
  for (const auto& t : m.tenants) {
    if (t.qos == QosClass::kLatencySensitive) device_arrivals += t.arrived;
  }
  EXPECT_EQ(fd.admitted, device_arrivals + fd.expired);
}

TEST(FrontDoor, RetryBackoffLandsInLatencySamples) {
  // A request rejected at the door and admitted on retry waited out its
  // backoff; that wait belongs to the client-visible latency. With a
  // ~1 ms isolated model and a 5 ms backoff floor, retried requests are
  // unmistakable in the tail.
  const TimeNs duration = 60 * kNsPerMs;
  FleetConfig cfg = overload_config(duration);
  cfg.front_door.admit_rate = 150.0;
  SpreadPlacement spread;
  QosLoadAwareRouter router;
  FleetSim fleet(cfg, mixed_tenants(2), spread, router, sgdrc_factory());
  const auto m = fleet.run(heavy_trace(duration));
  ASSERT_GT(m.front_door.retries, 0u);
  TimeNs max_lat = 0;
  for (const auto& t : m.tenants) {
    for (const auto s : t.latency.raw()) {
      max_lat = std::max(max_lat, static_cast<TimeNs>(s));
    }
  }
  EXPECT_GT(max_lat, FrontDoor::kRetryBackoff);
}

TEST(FrontDoor, OverloadEngagesTheBePauseLever) {
  // Under a sustained overload the door's first lever — pausing BE —
  // must fire (depth 4) before the LS shed depth (8) would even be a
  // question, and the pause bookkeeping must stay inside the run.
  const TimeNs duration = 60 * kNsPerMs;
  SpreadPlacement spread;
  QosLoadAwareRouter router;
  FleetSim doored(overload_config(duration), mixed_tenants(2), spread,
                  router, sgdrc_factory());
  const auto m = doored.run(heavy_trace(duration));
  const auto& fd = m.front_door;
  EXPECT_GT(fd.be_pause_events, 0u);
  EXPECT_GT(fd.be_paused_ns, 0u);
  EXPECT_LE(fd.be_paused_ns, duration);
  // With a disarmed lever (depth 0) the door never pauses.
  QosLoadAwareRouter rr2;
  FleetConfig no_pause = overload_config(duration);
  no_pause.front_door.be_pause_depth = 0;
  FleetSim free_fleet(no_pause, mixed_tenants(2), spread, rr2,
                      sgdrc_factory());
  EXPECT_EQ(free_fleet.run(heavy_trace(duration)).front_door.be_pause_events,
            0u);
}

TEST(FrontDoor, BePauseStopsBestEffortSampling) {
  // The lever itself, isolated from door dynamics: a BE-only fleet with
  // a scripted pause over the middle half of the run must sample
  // measurably less than its never-paused twin (no LS traffic, so
  // nothing else competes for the devices).
  const TimeNs duration = 80 * kNsPerMs;
  const auto& z = zoo();
  const auto run_be = [&](bool pause) {
    FleetConfig cfg = base_config(2, duration);
    std::vector<FleetTenantSpec> tenants{
        replicated(best_effort_tenant(z.be_i), 2)};
    SpreadPlacement spread;
    RoundRobinRouter rr;
    FleetSim fleet(cfg, tenants, spread, rr, sgdrc_factory());
    fleet.begin();
    if (pause) {
      fleet.at(duration / 4, [&fleet] { fleet.set_be_paused(true); });
      fleet.at((3 * duration) / 4, [&fleet] { fleet.set_be_paused(false); });
    }
    fleet.run_until(duration);
    return fleet.finish().be_throughput();
  };
  EXPECT_LT(run_be(true), run_be(false));
}

TEST(FrontDoor, PriorityTenantShedsLast) {
  const TimeNs duration = 60 * kNsPerMs;
  FleetConfig cfg = overload_config(duration);
  cfg.front_door.admit_rate = 0.0;  // shed only, no bucket
  cfg.front_door.shed_depth = 6;
  auto tenants = mixed_tenants(2);
  tenants[0].spec.vgpu.priority = 2;  // service 0 is the premium tier
  SpreadPlacement spread;
  QosLoadAwareRouter router;
  FleetSim fleet(cfg, tenants, spread, router, sgdrc_factory());
  const auto m = fleet.run(heavy_trace(duration));
  const auto& fd = m.front_door;
  ASSERT_GE(fd.shed_by_service.size(), 2u);
  EXPECT_GT(fd.shed_by_service[1], 0u);
  const auto frac = [&](size_t s) {
    return static_cast<double>(fd.shed_by_service[s]) /
           static_cast<double>(fd.arrived_by_service[s]);
  };
  EXPECT_LT(frac(0), frac(1));
}

TEST(FrontDoor, RerunsAreBitIdentical) {
  const TimeNs duration = 60 * kNsPerMs;
  const auto run_once = [&] {
    SpreadPlacement spread;
    QosLoadAwareRouter router;
    FleetSim fleet(overload_config(duration), mixed_tenants(2), spread,
                   router, sgdrc_factory());
    return run_digest(fleet.run(heavy_trace(duration)));
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------- device failure ----

TEST(DeviceFailure, CordonsDrainsAndRecoversStrandedTenants) {
  const TimeNs duration = 60 * kNsPerMs;
  const auto& z = zoo();
  FleetConfig cfg = base_config(2, duration);
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 1),
      replicated(best_effort_tenant(z.be_i), 2),
  };
  SpreadPlacement spread;
  LeastOutstandingRouter router;
  FleetSim fleet(cfg, tenants, spread, router, sgdrc_factory());
  ASSERT_EQ(fleet.replicas_of(0).size(), 1u);
  const DeviceId home = fleet.replicas_of(0)[0].device;

  fleet.begin();
  for (const auto& r : heavy_trace(duration)) {
    if (r.service != 0 || r.arrival >= duration) continue;
    fleet.at(r.arrival, [&fleet, r] { fleet.inject(0, r.arrival); });
  }
  fleet.at(duration / 3, [&fleet, home] { fleet.fail_device(home); });
  fleet.run_until(duration);
  const auto m = fleet.finish();

  EXPECT_TRUE(fleet.device_failed(home));
  // The stranded LS tenant was rescheduled onto the survivor, so its
  // traffic stayed routable through the failure.
  ASSERT_EQ(fleet.replicas_of(0).size(), 1u);
  EXPECT_NE(fleet.replicas_of(0)[0].device, home);
  EXPECT_GT(m.tenants[0].served, 0u);
  // Conservation across the cordon: everything arrived was served or is
  // still queued on the replacement replica.
  uint64_t outstanding = 0;
  for (const auto& rep : fleet.replicas_of(0)) {
    outstanding += fleet.outstanding(rep);
  }
  EXPECT_EQ(m.tenants[0].arrived, m.tenants[0].served + outstanding);
}

TEST(DeviceFailure, FailedDeviceRejectsNewReplicas) {
  FleetConfig cfg = base_config(2, 20 * kNsPerMs);
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, mixed_tenants(1), spread, rr, sgdrc_factory());
  fleet.fail_device(1);
  EXPECT_TRUE(fleet.device_failed(1));
  EXPECT_FALSE(fleet.device_failed(0));
  EXPECT_THROW(fleet.add_replica(0, 1), std::runtime_error);
  fleet.fail_device(1);  // idempotent
  EXPECT_TRUE(fleet.device_failed(1));
}

}  // namespace
}  // namespace sgdrc::fleet
