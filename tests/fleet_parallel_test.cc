// The determinism contract of the sharded fleet engine
// (docs/determinism.md): FleetOptions::parallel changes wall-clock
// only. Every run here executes the same fleet serially and on a
// thread pool — across device counts, thread counts, blind and
// state-reading routers, and mid-run control actions — and compares
// the results bit-for-bit, down to the raw latency samples.
#include <gtest/gtest.h>

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
  return [](const gpusim::GpuSpec& spec)
             -> std::unique_ptr<control::Controller> {
    return std::make_unique<core::SgdrcPolicy>(spec);
  };
}

/// Exact textual fingerprint of a whole fleet run: event count, router
/// decisions, and per-tenant counters down to every raw latency sample.
std::vector<FleetTenantSpec> mixed_tenants(unsigned devices) {
  const auto& z = zoo();
  const unsigned reps = std::min(devices, 3u);
  return {
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), reps),
      replicated(latency_sensitive_tenant(z.ls_b, z.iso_b), reps),
      replicated(best_effort_tenant(z.be_i), reps),
  };
}

FleetConfig base_config(unsigned devices, TimeNs duration) {
  FleetConfig cfg;
  cfg.spec = zoo().spec;
  cfg.devices = devices;
  cfg.duration = duration;
  cfg.slo_multiplier = 3.0;
  cfg.seed = 0xf1ee7;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 3 * kNsPerUs;
  return cfg;
}

std::vector<workload::Request> shared_trace(TimeNs duration) {
  workload::TraceOptions topt;
  topt.services = 2;
  topt.duration = duration;
  topt.per_service_rates = {500.0, 350.0};
  topt.seed = 0x7ace;
  return workload::generate_apollo_like_trace(topt);
}

std::string run_digest(unsigned devices, bool parallel, unsigned threads,
                       Router& router, TimeNs duration) {
  FleetConfig cfg = base_config(devices, duration);
  cfg.engine.parallel = parallel;
  cfg.engine.threads = threads;
  SpreadPlacement spread;
  FleetSim fleet(cfg, mixed_tenants(devices), spread, router,
                 sgdrc_factory());
  EXPECT_EQ(fleet.parallel(), parallel && devices > 1);
  const FleetMetrics m = fleet.run(shared_trace(duration));
  // Guard against a vacuous comparison of two empty runs.
  uint64_t served = 0;
  for (const auto& t : m.tenants) served += t.served;
  EXPECT_GT(served, 0u);
  EXPECT_GT(m.events, 0u);
  return run_digest(m);
}

// ------------------------------------------------- bit-identity grid ----

TEST(FleetParallel, BitIdenticalAcrossDeviceAndThreadCounts) {
  const TimeNs duration = 60 * kNsPerMs;
  for (const unsigned devices : {1u, 4u, 8u, 64u}) {
    RoundRobinRouter serial_router;
    const std::string serial =
        run_digest(devices, false, 0, serial_router, duration);
    for (const unsigned threads : {2u, 5u}) {
      RoundRobinRouter parallel_router;
      EXPECT_EQ(serial,
                run_digest(devices, true, threads, parallel_router, duration))
          << "parallel diverged at " << devices << " devices, " << threads
          << " threads";
    }
  }
}

TEST(FleetParallel, BitIdenticalWithStateReadingRouter) {
  // Least-outstanding routes by live device state, forcing the engine
  // onto the per-dispatch barrier path (no coalescing) — the parallel
  // barrier must still reproduce the serial read exactly.
  const TimeNs duration = 60 * kNsPerMs;
  for (const unsigned devices : {4u, 8u}) {
    LeastOutstandingRouter serial_router;
    const std::string serial =
        run_digest(devices, false, 0, serial_router, duration);
    for (const unsigned threads : {2u, 5u}) {
      LeastOutstandingRouter parallel_router;
      EXPECT_EQ(serial,
                run_digest(devices, true, threads, parallel_router, duration))
          << "parallel diverged at " << devices << " devices, " << threads
          << " threads";
    }
  }
}

// --------------------------------------- control actions and churn ----

/// A scripted run through the external-driver API: mid-run replica
/// churn, an SLO tighten, and same-instant injections — every control
/// tier of the engine, serial vs parallel.
std::string run_scripted(bool parallel, unsigned threads) {
  const auto& z = zoo();
  const TimeNs duration = 80 * kNsPerMs;
  FleetConfig cfg = base_config(4, duration);
  cfg.engine.parallel = parallel;
  cfg.engine.threads = threads;
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls_a, z.iso_a), 2),
      replicated(best_effort_tenant(z.be_i), 2),
  };
  SpreadPlacement spread;
  LeastOutstandingRouter router;
  FleetSim fleet(cfg, tenants, spread, router, sgdrc_factory());

  const auto trace = shared_trace(duration);
  fleet.begin();
  for (const auto& r : trace) {
    if (r.service != 0 || r.arrival >= duration) continue;
    fleet.at(r.arrival, [&fleet, r] { fleet.inject(0, r.arrival); });
  }
  fleet.at(20 * kNsPerMs, [&fleet] { fleet.add_replica(0, 2); });
  fleet.at(20 * kNsPerMs, [&fleet] { fleet.set_slo_factor(0.9); });
  fleet.at(50 * kNsPerMs, [&fleet] { fleet.remove_replica(0, 0); });
  fleet.run_until(duration);
  return run_digest(fleet.finish());
}

TEST(FleetParallel, BitIdenticalUnderScriptedChurn) {
  const std::string serial = run_scripted(false, 0);
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, run_scripted(true, threads))
        << "scripted churn diverged at " << threads << " threads";
  }
}

// ------------------------------- overload front door, retry storms ----

/// A fleet driven past capacity through the front door: a tight
/// admission bucket plus queue-depth shedding produce rejections,
/// retries (with jittered backoff), BE pauses, and drops — every
/// front-door code path — while the QoS router reads live device state.
/// Optionally heterogeneous, so perf-normalized routing and per-device
/// specs are under the same serial-vs-parallel microscope.
std::string run_overload(bool parallel, unsigned threads, bool hetero) {
  const TimeNs duration = 60 * kNsPerMs;
  FleetConfig cfg = base_config(4, duration);
  cfg.engine.parallel = parallel;
  cfg.engine.threads = threads;
  if (hetero) {
    cfg.device_specs = {zoo().spec, gpusim::a100_sxm4(), zoo().spec,
                        gpusim::a100_sxm4()};
  }
  cfg.front_door.enabled = true;
  cfg.front_door.admit_rate = 400.0;
  cfg.front_door.admit_burst = 4.0;
  cfg.front_door.be_pause_depth = 4;
  cfg.front_door.shed_depth = 8;
  cfg.front_door.max_retries = 2;
  SpreadPlacement spread;
  QosLoadAwareRouter router;
  FleetSim fleet(cfg, mixed_tenants(4), spread, router, sgdrc_factory());
  EXPECT_EQ(fleet.parallel(), parallel);
  const FleetMetrics m = fleet.run(shared_trace(duration));
  const auto& fd = m.front_door;
  // The storm must actually storm, or the digest compares idle doors.
  EXPECT_GT(fd.rejected, 0u);
  EXPECT_GT(fd.retries, 0u);
  return run_digest(m);  // the full digest covers the door's books
}

TEST(FleetParallel, BitIdenticalThroughRetryStorm) {
  const std::string serial = run_overload(false, 0, false);
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, run_overload(true, threads, false))
        << "retry storm diverged at " << threads << " threads";
  }
}

TEST(FleetParallel, BitIdenticalThroughRetryStormOnHeteroFleet) {
  const std::string serial = run_overload(false, 0, true);
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, run_overload(true, threads, true))
        << "hetero retry storm diverged at " << threads << " threads";
  }
}


// ------------------------------------------------- DAG-model fleets ----

/// Wide-model fleets: inception DAG tenants expose multi-kernel
/// frontiers on every device, so each shard multi-launches kernels of a
/// single request. The sharded engine must replay that bit-identically
/// at any thread count.
struct DagZoo {
  models::ModelDesc ls = models::inception_ls(true);
  models::ModelDesc be = models::inception_be(true);
  TimeNs iso = 0;

  DagZoo() {
    core::OfflineProfiler prof(zoo().spec);
    prof.profile(ls);
    prof.profile(be);
    iso = prof.isolated_latency(ls);
  }
};

const DagZoo& dag_zoo() {
  static const DagZoo z;
  return z;
}

std::string run_dag_digest(bool parallel, unsigned threads) {
  const TimeNs duration = 60 * kNsPerMs;
  FleetConfig cfg = base_config(4, duration);
  cfg.engine.parallel = parallel;
  cfg.engine.threads = threads;
  const auto& z = dag_zoo();
  std::vector<FleetTenantSpec> tenants{
      replicated(latency_sensitive_tenant(z.ls, z.iso), 3),
      replicated(best_effort_tenant(z.be), 3),
  };
  SpreadPlacement spread;
  LeastOutstandingRouter router;
  FleetSim fleet(cfg, tenants, spread, router, sgdrc_factory());
  workload::TraceOptions topt;
  topt.services = 1;
  topt.duration = duration;
  topt.per_service_rates = {400.0};
  topt.seed = 0xdaf7;
  const FleetMetrics m =
      fleet.run(workload::generate_apollo_like_trace(topt));
  uint64_t served = 0;
  for (const auto& t : m.tenants) served += t.served;
  EXPECT_GT(served, 0u);
  return run_digest(m);
}

TEST(FleetParallel, BitIdenticalWithDagModelFrontiers) {
  const std::string serial = run_dag_digest(false, 0);
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, run_dag_digest(true, threads))
        << "DAG fleet diverged at " << threads << " threads";
  }
}

// ------------------------------------------------------- defaults ----

TEST(FleetParallel, SerialIsTheDefaultAndSingleDeviceStaysSerial) {
  EXPECT_FALSE(FleetOptions{}.parallel);
  // One device has nothing to parallelise; the pool is never built.
  FleetConfig cfg = base_config(1, 10 * kNsPerMs);
  cfg.engine.parallel = true;
  SpreadPlacement spread;
  RoundRobinRouter rr;
  FleetSim fleet(cfg, mixed_tenants(1), spread, rr, sgdrc_factory());
  EXPECT_FALSE(fleet.parallel());
}

}  // namespace
}  // namespace sgdrc::fleet
