// Tests for the dynamic-scenario engine: trace compilation (phase
// boundaries, arrival/departure windows), runtime tenant churn in
// ServingSim and FleetSim, bit-identical determinism of scripted runs,
// and autoscaler convergence on a flash crowd.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "core/profiler.h"
#include "core/sgdrc_policy.h"
#include "models/zoo.h"
#include "workload/scenario.h"

namespace sgdrc::workload {
namespace {

using core::best_effort_tenant;
using core::latency_sensitive_tenant;
using fleet::replicated;

// Shared profiled models (profiling dominates test time; do it once).
struct Zoo {
  gpusim::GpuSpec spec = gpusim::test_gpu();
  models::ModelDesc ls_a = models::make_model('A');
  models::ModelDesc ls_b = models::make_model('B');
  models::ModelDesc be_i = models::make_model('I');
  models::ModelDesc be_j = models::make_model('J');
  TimeNs iso_a = 0, iso_b = 0;

  Zoo() {
    core::OfflineProfiler prof(spec);
    for (auto* m : {&ls_a, &ls_b, &be_i, &be_j}) prof.profile(*m);
    iso_a = prof.isolated_latency(ls_a);
    iso_b = prof.isolated_latency(ls_b);
  }
};

const Zoo& zoo() {
  static const Zoo z;
  return z;
}

fleet::ControllerFactory sgdrc_factory() {
  return [](const gpusim::GpuSpec& spec) -> std::unique_ptr<control::Controller> {
    return std::make_unique<core::SgdrcPolicy>(spec);
  };
}

ScenarioEngineConfig engine_config() {
  ScenarioEngineConfig cfg;
  cfg.spec = zoo().spec;
  cfg.slo_multiplier = 4.0;
  cfg.seed = 0x5ce0;
  return cfg;
}

size_t count_in(const std::vector<Request>& t, unsigned service,
                TimeNs from, TimeNs to) {
  return static_cast<size_t>(std::count_if(
      t.begin(), t.end(), [&](const Request& r) {
        return r.service == service && r.arrival >= from && r.arrival < to;
      }));
}

// ------------------------------------------------- trace compilation ----

TEST(ScenarioTrace, PhaseBoundaryRateSwitching) {
  const auto& z = zoo();
  Scenario sc("step", "", 1 * kNsPerSec);
  sc.rate(0, 500 * kNsPerMs, 3.0);
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 400.0, 1}};
  const auto t = build_scenario_trace(sc, initial, engine_config());
  const double before = static_cast<double>(
      count_in(t, 0, 0, 500 * kNsPerMs));
  const double after = static_cast<double>(
      count_in(t, 0, 500 * kNsPerMs, 1 * kNsPerSec));
  // Same window length, 3x the rate after the boundary.
  EXPECT_GT(after / before, 2.2);
  EXPECT_LT(after / before, 4.0);
}

TEST(ScenarioTrace, AllServicesMultiplierAppliesToEveryService) {
  const auto& z = zoo();
  Scenario sc("dip", "", 1 * kNsPerSec);
  sc.rate(Scenario::kAllServices, 500 * kNsPerMs, 0.0);  // traffic stops
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 300.0, 1},
      {latency_sensitive_tenant(z.ls_b, z.iso_b), 300.0, 1}};
  const auto t = build_scenario_trace(sc, initial, engine_config());
  EXPECT_GT(count_in(t, 0, 0, 500 * kNsPerMs), 0u);
  EXPECT_GT(count_in(t, 1, 0, 500 * kNsPerMs), 0u);
  EXPECT_EQ(count_in(t, 0, 500 * kNsPerMs, 1 * kNsPerSec), 0u);
  EXPECT_EQ(count_in(t, 1, 500 * kNsPerMs, 1 * kNsPerSec), 0u);
}

TEST(ScenarioTrace, ArrivalAndDepartureBoundTheServiceWindow) {
  const auto& z = zoo();
  Scenario sc("churn", "", 1 * kNsPerSec);
  sc.arrive(300 * kNsPerMs,
            {latency_sensitive_tenant(z.ls_b, z.iso_b), 300.0, 1});
  sc.depart(700 * kNsPerMs, 2);  // the arrival (initial list has 2)
  sc.depart(600 * kNsPerMs, 0);  // initial LS service
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 300.0, 1},
      {best_effort_tenant(z.be_i), 0.0, 1}};
  const auto t = build_scenario_trace(sc, initial, engine_config());
  // Service 0 (initial LS) stops at its departure.
  EXPECT_GT(count_in(t, 0, 0, 600 * kNsPerMs), 0u);
  EXPECT_EQ(count_in(t, 0, 600 * kNsPerMs, 1 * kNsPerSec), 0u);
  // Service 1 (the arrival) exists only inside [arrive, depart).
  EXPECT_EQ(count_in(t, 1, 0, 300 * kNsPerMs), 0u);
  EXPECT_GT(count_in(t, 1, 300 * kNsPerMs, 700 * kNsPerMs), 0u);
  EXPECT_EQ(count_in(t, 1, 700 * kNsPerMs, 1 * kNsPerSec), 0u);
}

TEST(ScenarioTrace, PerServiceOverlayComposesWithAllServicesBaseline) {
  const auto& z = zoo();
  Scenario sc("compose", "", 1 * kNsPerSec);
  sc.rate(Scenario::kAllServices, 0, 0.5)   // baseline dip for everyone
      .rate(0, 500 * kNsPerMs, 3.0);        // overlay crowd on service 0
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 400.0, 1}};
  const auto t = build_scenario_trace(sc, initial, engine_config());
  const double before = static_cast<double>(
      count_in(t, 0, 0, 500 * kNsPerMs));
  const double after = static_cast<double>(
      count_in(t, 0, 500 * kNsPerMs, 1 * kNsPerSec));
  // The overlay multiplies the baseline (0.5 -> 1.5), it does not
  // replace it: the second half runs at 3x the first.
  EXPECT_GT(after / before, 2.2);
  EXPECT_LT(after / before, 4.0);
}

// Regression: the builders and the compiler checked rates only with
// `>= 0.0` or not at all, so an infinite multiplier or base rate reached
// the trace generator and made it allocate without bound, and a negative
// base rate silently dropped the service's traffic.
TEST(Scenario, RejectsNonFiniteRates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto& z = zoo();
  Scenario sc("bad-rates", "", 1 * kNsPerSec);
  EXPECT_THROW(sc.rate(0, 0, kInf), ConfigError);
  EXPECT_THROW(sc.rate(Scenario::kAllServices, 0, kNaN), ConfigError);
  EXPECT_THROW(sc.rate(0, 0, -1.0), ConfigError);
  EXPECT_THROW(sc.diurnal(0.5, kInf, 4), ConfigError);
  EXPECT_THROW(sc.diurnal(kNaN, 1.0, 4), ConfigError);
  EXPECT_TRUE(sc.rate_steps().empty());
  EXPECT_THROW(
      sc.arrive(0, {latency_sensitive_tenant(z.ls_a, z.iso_a), kInf, 1}),
      ConfigError);
  EXPECT_TRUE(sc.arrivals().empty());

  // Initial tenants are checked where the trace is compiled.
  for (const double bad : {kInf, kNaN, -100.0}) {
    const std::vector<ScenarioTenant> initial{
        {latency_sensitive_tenant(z.ls_a, z.iso_a), bad, 1}};
    EXPECT_THROW(build_scenario_trace(sc, initial, engine_config()),
                 ConfigError)
        << bad;
  }
  // The engine's trace knobs reach the generator's checks.
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 100.0, 1}};
  ScenarioEngineConfig cfg = engine_config();
  cfg.frame_interval = 0;
  EXPECT_THROW(build_scenario_trace(sc, initial, cfg), ConfigError);
  EXPECT_FALSE(build_scenario_trace(sc, initial, engine_config()).empty());
}

TEST(Scenario, RejectsNonFiniteSloFactors) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Scenario sc("bad-slo", "", 1 * kNsPerSec);
  EXPECT_THROW(sc.slo_factor(0, kInf), ConfigError);
  EXPECT_THROW(sc.slo_factor(0, kNaN), ConfigError);
  EXPECT_THROW(sc.slo_factor(0, 0.0), ConfigError);
  EXPECT_TRUE(sc.slo_changes().empty());
  sc.slo_factor(0, 0.5);
  EXPECT_EQ(sc.slo_changes().size(), 1u);
}

TEST(ScenarioTrace, SameSeedIsBitIdentical) {
  const auto& z = zoo();
  Scenario sc("det", "", 500 * kNsPerMs);
  sc.diurnal(0.5, 1.5, 4);
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 400.0, 1}};
  const auto a = build_scenario_trace(sc, initial, engine_config());
  const auto b = build_scenario_trace(sc, initial, engine_config());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].service, b[i].service);
  }
}

// ------------------------------------------ ServingSim runtime churn ----

core::ServingConfig sim_config(TimeNs duration) {
  core::ServingConfig cfg;
  cfg.spec = zoo().spec;
  cfg.duration = duration;
  cfg.slo_multiplier = 4.0;
  return cfg;
}

TEST(RuntimeChurn, AddedBeTenantStartsMakingProgress) {
  const auto& z = zoo();
  EventQueue q;
  core::SgdrcPolicy policy(z.spec);
  core::ServingSim sim(q, sim_config(200 * kNsPerMs),
                       {latency_sensitive_tenant(z.ls_a, z.iso_a)}, policy);
  sim.begin();
  q.run_until(50 * kNsPerMs);
  const auto t = sim.add_tenant(best_effort_tenant(z.be_i));
  EXPECT_EQ(t, 1u);
  EXPECT_TRUE(sim.tenant_active(t));
  q.run_until(200 * kNsPerMs);
  const auto m = sim.finish();
  ASSERT_EQ(m.tenants.size(), 2u);
  EXPECT_GT(m.tenants[t].kernels_done, 0u);
}

TEST(RuntimeChurn, RemovedBeTenantHaltsAndRotationContinues) {
  const auto& z = zoo();
  auto run = [&](bool remove) {
    EventQueue q;
    core::SgdrcPolicy policy(z.spec);
    core::ServingSim sim(q, sim_config(200 * kNsPerMs),
                         {best_effort_tenant(z.be_i),
                          best_effort_tenant(z.be_j)},
                         policy);
    sim.begin();
    q.run_until(50 * kNsPerMs);
    if (remove) sim.remove_tenant(0);
    q.run_until(200 * kNsPerMs);
    return sim.finish();
  };
  const auto kept = run(false);
  const auto removed = run(true);
  // The removed tenant stops early; its sibling inherits the whole GPU
  // and does strictly better than under rotation.
  EXPECT_GT(removed.tenants[0].kernels_done, 0u);
  EXPECT_LT(removed.tenants[0].kernels_done, kept.tenants[0].kernels_done);
  EXPECT_GT(removed.tenants[1].kernels_done, kept.tenants[1].kernels_done);
}

TEST(RuntimeChurn, RemovedLsTenantDrainsItsBacklog) {
  const auto& z = zoo();
  EventQueue q;
  core::SgdrcPolicy policy(z.spec);
  core::ServingConfig cfg = sim_config(400 * kNsPerMs);
  cfg.ls_instances = 1;
  core::ServingSim sim(q, cfg, {latency_sensitive_tenant(z.ls_a, z.iso_a)},
                       policy);
  sim.begin();
  // 8 near-simultaneous requests against a 1-instance pool: most queue.
  q.schedule_at(kNsPerMs, [&] {
    for (int i = 0; i < 8; ++i) sim.inject(0, kNsPerMs);
  });
  q.schedule_at(2 * kNsPerMs, [&] { sim.remove_tenant(0); });
  q.run_until(400 * kNsPerMs);
  const auto m = sim.finish();
  EXPECT_FALSE(sim.tenant_active(0));
  // Every admitted request completed and was recorded (drain), even
  // though the tenant was removed while its backlog was deep.
  EXPECT_EQ(m.tenants[0].arrived, 8u);
  EXPECT_EQ(m.tenants[0].served, 8u);
}

TEST(RuntimeChurn, SloCanBeRetunedAtRuntime) {
  const auto& z = zoo();
  EventQueue q;
  core::SgdrcPolicy policy(z.spec);
  core::ServingSim sim(q, sim_config(100 * kNsPerMs),
                       {latency_sensitive_tenant(z.ls_a, z.iso_a)}, policy);
  const TimeNs before = sim.slo_of(0);
  EXPECT_EQ(before, static_cast<TimeNs>(4.0 * static_cast<double>(z.iso_a)));
  sim.set_slo(0, before / 2);
  EXPECT_EQ(sim.slo_of(0), before / 2);
}

// --------------------------------------------- scripted runs (fleet) ----

std::vector<ScenarioTenant> fleet_mix() {
  const auto& z = zoo();
  return {{latency_sensitive_tenant(z.ls_a, z.iso_a), 400.0, 2},
          {latency_sensitive_tenant(z.ls_b, z.iso_b), 300.0, 1},
          {best_effort_tenant(z.be_i), 0.0, 2}};
}

Scenario churn_scenario(TimeNs d) {
  const auto& z = zoo();
  Scenario sc("churn", "", d);
  sc.devices(2)
      .rate(0, d / 4, 2.0)
      .arrive(d / 3, {latency_sensitive_tenant(z.ls_b, z.iso_b), 250.0, 1})
      .depart(d / 2, 1)
      .slo_factor((3 * d) / 4, 0.7);
  return sc;
}

TEST(ScenarioRun, MidRunChurnIsDeterministic) {
  const Scenario sc = churn_scenario(300 * kNsPerMs);
  auto once = [&] {
    fleet::QosAwarePlacement placement;
    fleet::LeastOutstandingRouter router;
    return run_scenario(sc, fleet_mix(), engine_config(), placement,
                        router, sgdrc_factory());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_GT(a.requests, 0u);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(fleet::run_digest(a.metrics), fleet::run_digest(b.metrics));
}

TEST(ScenarioRun, DepartedTenantStopsServingAndArrivalIsServed) {
  const TimeNs d = 300 * kNsPerMs;
  const Scenario sc = churn_scenario(d);
  fleet::QosAwarePlacement placement;
  fleet::LeastOutstandingRouter router;
  const auto out = run_scenario(sc, fleet_mix(), engine_config(),
                                placement, router, sgdrc_factory());
  // Tenant list: 3 initial + 1 arrival.
  ASSERT_EQ(out.metrics.tenants.size(), 4u);
  const auto& departed = out.metrics.tenants[1];
  const auto& arrived = out.metrics.tenants[3];
  EXPECT_GT(departed.served, 0u);
  EXPECT_EQ(departed.served, departed.arrived);  // the drain completed
  EXPECT_GT(arrived.served, 0u);
  // The scripted SLO tighten reached the devices: the merged SLO is the
  // tightened one for a tenant that survived to the end.
  const auto& survivor = out.metrics.tenants[0];
  EXPECT_EQ(survivor.slo,
            static_cast<TimeNs>(
                0.7 * static_cast<double>(4.0 *
                                          static_cast<double>(zoo().iso_a))));
}

TEST(ScenarioRun, AutoscalerConvergesOnFlashCrowd) {
  const auto& z = zoo();
  const TimeNs d = 400 * kNsPerMs;
  Scenario sc("flash", "", d);
  fleet::AutoscalerOptions aso;
  aso.interval = 5 * kNsPerMs;
  sc.devices(2)
      .rate(0, d / 4, 8.0)   // the crowd arrives
      .rate(0, d / 2, 0.25)  // and leaves
      .autoscale(aso);
  // Light base load (the single replica idles below the up-watermark)
  // so the only thing that can trigger scaling is the scripted crowd.
  const std::vector<ScenarioTenant> initial{
      {latency_sensitive_tenant(z.ls_a, z.iso_a), 120.0, 1},
      {best_effort_tenant(z.be_i), 0.0, 1}};
  fleet::QosAwarePlacement placement;
  fleet::LeastOutstandingRouter router;
  const auto out = run_scenario(sc, initial, engine_config(), placement,
                                router, sgdrc_factory());
  ASSERT_FALSE(out.scaling.empty());
  // The spike forced a scale-up to a second replica...
  const auto up = std::find_if(
      out.scaling.begin(), out.scaling.end(),
      [](const auto& s) { return s.scale_up && s.tenant == 0; });
  ASSERT_NE(up, out.scaling.end());
  EXPECT_GE(up->at, d / 4);
  EXPECT_EQ(up->replicas_after, 2u);
  // ...and the loop converged back to one replica after the crowd left.
  const auto& last = out.scaling.back();
  EXPECT_FALSE(last.scale_up);
  EXPECT_EQ(last.replicas_after, 1u);
  EXPECT_GT(last.at, up->at);
}

TEST(ScenarioCatalog, ShipsTheTwelveStockScenarios) {
  const auto& z = zoo();
  ScenarioCatalogOptions opt;
  opt.duration = 500 * kNsPerMs;
  opt.devices = 2;
  opt.initial_tenants = 3;
  opt.make_ls_arrival = [&](unsigned) {
    return ScenarioTenant{latency_sensitive_tenant(z.ls_b, z.iso_b), 200.0,
                          1};
  };
  opt.make_be_arrival = [&](unsigned) {
    return ScenarioTenant{best_effort_tenant(z.be_i), 0.0, 1};
  };
  opt.hetero_specs = {z.spec, gpusim::a100_sxm4()};
  opt.front_door.enabled = true;
  opt.front_door.be_pause_depth = 8;
  opt.front_door.shed_depth = 16;
  opt.admission_door.enabled = true;
  opt.admission_door.admit_rate = 100.0;
  const auto catalog = scenario_catalog(opt);
  ASSERT_EQ(catalog.size(), kStockScenarioCount);
  ASSERT_EQ(catalog.size(), 12u);
  EXPECT_EQ(catalog[0].name(), "steady");
  EXPECT_EQ(catalog[1].name(), "diurnal");
  EXPECT_EQ(catalog[2].name(), "flash-crowd");
  EXPECT_TRUE(catalog[2].autoscaled());
  EXPECT_EQ(catalog[3].name(), "tenant-churn");
  EXPECT_EQ(catalog[3].arrivals().size(), 2u);
  EXPECT_EQ(catalog[3].departures().size(), 2u);
  EXPECT_EQ(catalog[4].name(), "be-backfill-surge");
  EXPECT_EQ(catalog[5].name(), "slo-tighten");
  EXPECT_EQ(catalog[5].slo_changes().size(), 1u);
  EXPECT_EQ(catalog[6].name(), "batching");
  EXPECT_TRUE(catalog[6].ls_batch_policy().enabled());
  EXPECT_EQ(catalog[6].ls_batch_policy().max_batch, 8u);
  EXPECT_EQ(catalog[7].name(), "model-zoo");
  EXPECT_EQ(catalog[7].arrivals().size(), 4u);
  EXPECT_EQ(catalog[7].departures().size(), 2u);
  // No model_zoo_memory in the options: the scenario ships without a
  // memory override (and run_scenario then uses the engine default).
  EXPECT_FALSE(catalog[7].memory_options().enabled);
  EXPECT_EQ(catalog[8].name(), "hetero-diurnal");
  EXPECT_EQ(catalog[8].device_specs().size(), 2u);
  EXPECT_EQ(catalog[8].device_count(), 2u);
  EXPECT_EQ(catalog[8].device_specs()[1].name, "A100-SXM4-40GB");
  EXPECT_EQ(catalog[9].name(), "flash-overload");
  EXPECT_EQ(catalog[9].device_specs().size(), 2u);
  EXPECT_TRUE(catalog[9].front_door_config().enabled);
  EXPECT_EQ(catalog[9].front_door_config().shed_depth, 16u);
  ASSERT_EQ(catalog[9].priorities().size(), 1u);
  EXPECT_EQ(catalog[9].priorities()[0].tenant, 0u);
  EXPECT_EQ(catalog[9].priorities()[0].priority, 2);
  EXPECT_EQ(catalog[10].name(), "retry-storm");
  EXPECT_TRUE(catalog[10].front_door_config().enabled);
  EXPECT_EQ(catalog[10].front_door_config().admit_rate, 100.0);
  EXPECT_EQ(catalog[11].name(), "device-failure");
  EXPECT_TRUE(catalog[11].autoscaled());
  EXPECT_EQ(catalog[11].device_count(), opt.devices + 1);
  ASSERT_EQ(catalog[11].device_failures().size(), 1u);
  EXPECT_EQ(catalog[11].device_failures()[0].device, 1u);
  for (const auto& sc : catalog) {
    EXPECT_EQ(sc.duration(), opt.duration);
    EXPECT_FALSE(sc.description().empty());
  }
}

TEST(ScenarioCatalog, OverloadScenariosDegradeGracefullyWithoutOptions) {
  // An empty options struct must still mint all 12 scenarios: the
  // hetero pair runs homogeneous and the overload pair runs with the
  // door disabled (degrading by queueing), not crash or disappear.
  ScenarioCatalogOptions opt;
  opt.duration = 200 * kNsPerMs;
  const auto catalog = scenario_catalog(opt);
  ASSERT_EQ(catalog.size(), kStockScenarioCount);
  EXPECT_TRUE(catalog[8].device_specs().empty());
  EXPECT_FALSE(catalog[9].front_door_config().enabled);
  EXPECT_FALSE(catalog[10].front_door_config().enabled);
  EXPECT_FALSE(catalog[11].front_door_config().enabled);
}

TEST(ScenarioRun, ScriptedQuotaChangeIsAppliedAndRespected) {
  // set_quota grants tenant 0 a hard 2-TPC reservation mid-run; the
  // fleet propagates it to every replica and the plan-emitting SGDRC
  // controller never violates the carved regions.
  const TimeNs d = 200 * kNsPerMs;
  Scenario sc("quota-grant", "tenant 0 gains a hard TPC quota mid-run", d);
  sc.devices(2).set_quota(d / 4, 0, {.guaranteed_tpcs = 2});
  ASSERT_EQ(sc.quota_changes().size(), 1u);
  EXPECT_EQ(sc.quota_changes()[0].tenant, 0u);
  fleet::QosAwarePlacement placement;
  fleet::LeastOutstandingRouter router;
  const auto out = run_scenario(sc, fleet_mix(), engine_config(), placement,
                                router, sgdrc_factory());
  EXPECT_GT(out.metrics.tenants[0].served, 0u);
  EXPECT_EQ(out.metrics.guarantee_violations(), 0u);
}

TEST(ScenarioRun, QuotaChangeForUnknownTenantIsRejectedUpFront) {
  const TimeNs d = 100 * kNsPerMs;
  Scenario sc("bad-quota", "", d);
  sc.devices(2).set_quota(d / 2, 99, {.guaranteed_tpcs = 1});
  fleet::QosAwarePlacement placement;
  fleet::LeastOutstandingRouter router;
  EXPECT_THROW(run_scenario(sc, fleet_mix(), engine_config(), placement,
                            router, sgdrc_factory()),
               ConfigError);
}

}  // namespace
}  // namespace sgdrc::workload
