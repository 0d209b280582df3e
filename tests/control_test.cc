// Control-plane tests: the declarative ResourcePlan/Controller API, the
// enforcer inside ServingSim (explicit allocations, guaranteed-region
// validation, guarantee-blind controllers counted rather than
// rejected), vGPU quota wiring (regions, set_vgpu, overcommit), and —
// the redesign's anchor — golden digests pinning the SGDRC controllers
// to the historic imperative implementation's runs bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/baseline_policies.h"
#include "baselines/registry.h"
#include "control/controller.h"
#include "core/harness.h"
#include "core/sgdrc_policy.h"
#include "fleet/fleet.h"
#include "models/zoo.h"
#include "test_support.h"

namespace sgdrc::core {
namespace {

using control::Allocation;
using control::ResourcePlan;
using control::SimView;
using control::VgpuSpec;
using gpusim::ChannelSet;
using gpusim::TpcMask;
using tests::FnController;
using tests::idle_controller;
using tests::tiny_be_model;
using tests::two_be_builder;

HarnessOptions fig17_like_options(double load_scale, BeMode be_mode) {
  HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.ls_letters = "ABC";
  o.be_letters = "IJ";
  o.utilization = 1.45;
  o.load_scale = load_scale;
  o.burstiness = 0.35;
  o.duration = 120 * kNsPerMs;
  o.be_mode = be_mode;
  o.seed = 0xf17;
  return o;
}

/// The shared-queue fleet config: LS kernels get packed onto every TPC,
/// and the next plan's occupancy snapshot must read each one back from
/// RunningInfo as LS occupancy, or routing diverges.
fleet::FleetMetrics run_fleet_config(const std::string& system) {
  HarnessOptions o = fig17_like_options(1.0, BeMode::kRoundRobin);
  o.utilization = 0.8;
  const ServingHarness h(o);
  workload::TraceOptions topt;
  topt.services = static_cast<unsigned>(h.ls_count());
  topt.duration = o.duration;
  topt.burstiness = o.burstiness;
  topt.seed = o.seed + 2;
  for (size_t i = 0; i < h.ls_count(); ++i) {
    topt.per_service_rates.push_back(h.rate_for(i) * 2.0);
  }
  const auto trace = workload::generate_apollo_like_trace(topt);

  fleet::FleetConfig cfg;
  cfg.spec = o.spec;
  cfg.devices = 2;
  cfg.duration = o.duration;
  cfg.slo_multiplier = 4.0;
  cfg.seed = 0xf1ee7;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 3 * kNsPerUs;
  std::vector<fleet::FleetTenantSpec> tenants;
  for (size_t i = 0; i < h.ls_count(); ++i) {
    tenants.push_back(fleet::replicated(
        latency_sensitive_tenant(h.ls_model_spt(i), h.isolated_latency(i)),
        2));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    tenants.push_back(
        fleet::replicated(best_effort_tenant(h.be_model_spt(i)), 2));
  }
  fleet::QosAwarePlacement placement;
  fleet::QosLoadAwareRouter router;
  fleet::FleetSim sim(cfg, std::move(tenants), placement, router,
                      baselines::system(system).make);
  return sim.run(trace);
}

// ------------------------------------------------------------------
// Golden digests (workload::run_digest, fleet::run_digest) of the SGDRC
// controllers on four configs, recorded while the plan path was still
// checked against a verbatim copy of the historic imperative
// implementation: a faithful controller keeps reproducing every counter
// and every latency sample.
// ------------------------------------------------------------------
std::string run_harness_config(const std::string& system, double load,
                               BeMode be_mode) {
  const ServingHarness h(fig17_like_options(load, be_mode));
  const auto controller = baselines::make_system(system, h.options().spec);
  return workload::run_digest(h.run(*controller, true));
}

TEST(PlanEquivalence, SgdrcPlanPathMatchesLegacyImperativeBitForBit) {
  EXPECT_EQ(run_harness_config("SGDRC", 1.0, BeMode::kRoundRobin),
            "b3f36bd3defc30c2");
  EXPECT_EQ(run_harness_config("SGDRC", 0.5, BeMode::kRoundRobin),
            "02c4249126f0a978");
}

TEST(PlanEquivalence, SgdrcPlanPathMatchesLegacyUnderConcurrentBe) {
  EXPECT_EQ(run_harness_config("SGDRC", 1.0, BeMode::kConcurrent),
            "b2564c1e089103d7");
}

TEST(PlanEquivalence, SgdrcPlanPathMatchesLegacyInASharedQueueFleet) {
  EXPECT_EQ(fleet::run_digest(run_fleet_config("SGDRC")), "2e46a27abe5c9697");
}

TEST(PlanEquivalence, StaticPlanPathMatchesLegacyImperativeBitForBit) {
  const std::string system = "SGDRC (Static)";
  EXPECT_EQ(run_harness_config(system, 1.0, BeMode::kRoundRobin),
            "7df652ad9c2eea6d");
  EXPECT_EQ(run_harness_config(system, 0.5, BeMode::kRoundRobin),
            "7825974bb2e86eb0");
  EXPECT_EQ(run_harness_config(system, 1.0, BeMode::kConcurrent),
            "932091638fb475f1");
  EXPECT_EQ(fleet::run_digest(run_fleet_config(system)), "7235dfdf94a94b53");
}

// ===================================================================
// Plan / enforcer mechanics on a small synthetic setup.
// ===================================================================

TEST(ResourcePlanApi, EmptyAllocationIsRejectedLoudly) {
  // The zero-means-all footgun is gone: a plan with a default-initialised
  // Allocation must fail, pointing at Allocation::all().
  FnController c([&](const SimView& view) {
    ResourcePlan p;
    for (const auto& job : view.waiting_jobs(QosClass::kBestEffort)) {
      p.launch(job.id, Allocation{});  // forgot the masks
    }
    return p;
  });
  auto sim = two_be_builder().build(c);
  EXPECT_THROW(sim->run({}), ConfigError);
}

TEST(ResourcePlanApi, AllocationAllBehavesLikeLegacyMonopolisation) {
  // Allocation::all() reaches the executor as the whole device: the
  // running kernel reports every TPC and channel of the 4-TPC test GPU.
  FnController c([&](const SimView& view) {
    ResourcePlan p;
    if (view.inflight(QosClass::kBestEffort) == 0) {
      const auto waiting = view.waiting_jobs(QosClass::kBestEffort);
      if (!waiting.empty()) p.launch(waiting.front().id, Allocation::all());
    }
    return p;
  });
  auto sim = two_be_builder().build(c);
  sim->begin();  // the first plan launches a batch kernel at t = 0
  const auto infos = sim->exec().running_infos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].tpc_mask, gpusim::full_tpc_mask(4));
  EXPECT_EQ(infos[0].channels, gpusim::all_channels(4));
  const auto m = sim->finish();
  EXPECT_EQ(m.guarantee_violations, 0u);
}

TEST(ResourcePlanApi, OutOfDeviceMasksAreRejected) {
  // TPC 63 does not exist on the 4-TPC test GPU. Out-of-device bits are
  // legal only as the all() sentinel itself, so a device-covering mask
  // plus one stray bit is a controller bug too, not a spelling of "all".
  for (const TpcMask tpcs :
       {gpusim::tpc_bit(63), gpusim::full_tpc_mask(4) | gpusim::tpc_bit(63)}) {
    FnController c([&](const SimView& view) {
      ResourcePlan p;
      const auto waiting = view.waiting_jobs(QosClass::kBestEffort);
      if (!waiting.empty()) {
        p.launch(waiting.front().id, Allocation{tpcs, ~ChannelSet{0}});
      }
      return p;
    });
    auto sim = two_be_builder().build(c);
    EXPECT_THROW(sim->run({}), ConfigError) << tpcs;
  }
}

TEST(ResourcePlanApi, WakeAtDirectiveReplansLater) {
  size_t plans = 0;
  FnController c([&](const SimView& view) {
    ++plans;
    ResourcePlan p;
    if (view.now() < 1 * kNsPerMs) p.wake_at(view.now() + 100 * kNsPerUs);
    EXPECT_EQ(p.count(control::Directive::Kind::kWakeAt),
              view.now() < 1 * kNsPerMs ? 1u : 0u);
    return p;
  });
  auto sim = two_be_builder().build(c);
  sim->run({});
  EXPECT_GE(plans, 10u);  // ~1ms of 100us self-wakeups
}

// ===================================================================
// vGPU guarantees: regions, enforcement, runtime re-planning.
// ===================================================================

TEST(VgpuQuota, RegionsAreCarvedDisjointLsTopBeBottom) {
  FnController idle = idle_controller();
  auto sim = ServingSimBuilder()
                 .gpu(gpusim::test_gpu())  // 4 TPCs
                 .duration(1 * kNsPerMs)
                 .add_best_effort(tiny_be_model("tiny-x", 'X'))
                 .quota({.guaranteed_tpcs = 1})
                 .add_best_effort(tiny_be_model("tiny-y", 'Y'))
                 .quota({.guaranteed_tpcs = 2})
                 .build(idle);
  const TpcMask x = sim->guaranteed_mask(0);
  const TpcMask y = sim->guaranteed_mask(1);
  EXPECT_EQ(gpusim::tpc_count(x), 1u);
  EXPECT_EQ(gpusim::tpc_count(y), 2u);
  EXPECT_EQ(x & y, 0u);
  EXPECT_EQ(x, gpusim::tpc_bit(0));  // BE regions grow from the bottom
  EXPECT_EQ(sim->guaranteed_union(QosClass::kBestEffort), x | y);
}

TEST(VgpuQuota, OvercommittedGuaranteesAreRejectedAtConstruction) {
  FnController idle = idle_controller();
  EXPECT_THROW(ServingSimBuilder()
                   .gpu(gpusim::test_gpu())  // 4 TPCs
                   .add_best_effort(tiny_be_model("tiny-x", 'X'))
                   .quota({.guaranteed_tpcs = 3})
                   .add_best_effort(tiny_be_model("tiny-y", 'Y'))
                   .quota({.guaranteed_tpcs = 2})
                   .build(idle),
               ConfigError);
  EXPECT_THROW(ServingSimBuilder()
                   .gpu(gpusim::test_gpu())
                   .add_best_effort(tiny_be_model("tiny-x", 'X'))
                   .quota({.channel_share = 0.7})
                   .add_best_effort(tiny_be_model("tiny-y", 'Y'))
                   .quota({.channel_share = 0.6})
                   .build(idle),
               ConfigError);
}

TEST(VgpuQuota, PlanTrespassingOnForeignRegionIsRejected) {
  // Tenant 0 deliberately launches into tenant 1's guaranteed region:
  // the enforcer must refuse the plan.
  FnController c([&](const SimView& view) {
    ResourcePlan p;
    for (const auto& job : view.waiting_jobs(QosClass::kBestEffort)) {
      if (job.tenant == 0) {
        p.launch(job.id, Allocation{view.guaranteed_mask(1), ~ChannelSet{0}});
      }
    }
    return p;
  });
  // The quota rides on the last-added tenant (tiny-y, tenant 1).
  auto sim = two_be_builder().quota({.guaranteed_tpcs = 2}).build(c);
  EXPECT_THROW(sim->run({}), ConfigError);
}

TEST(VgpuQuota, LegacyPoliciesAreCountedNotCrashed) {
  // A guarantee-blind baseline (Multi-streaming launches everything
  // whole-device) runs against guaranteed tenants: it is not
  // guarantee_aware(), so the enforcer applies its trespassing plans —
  // the run completes — and counts every trespass.
  baselines::MultiStreamPolicy ms;
  EXPECT_FALSE(ms.guarantee_aware());
  auto sim = two_be_builder().quota({.guaranteed_tpcs = 2}).build(ms);
  const auto m = sim->run({});
  EXPECT_GT(m.guarantee_violations, 0u);
}

TEST(VgpuQuota, SetVgpuRecarvesAndValidates) {
  FnController idle = idle_controller();
  auto sim = two_be_builder().build(idle);
  EXPECT_EQ(sim->guaranteed_mask(0), 0u);
  sim->set_vgpu(0, {.guaranteed_tpcs = 2});
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(0)), 2u);
  sim->set_vgpu(0, {.guaranteed_tpcs = 1});
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(0)), 1u);
  // Freed head-room is available to the other tenant again.
  sim->set_vgpu(1, {.guaranteed_tpcs = 3});
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(1)), 3u);
  // And overcommit on top of the live set still throws — without
  // touching the tenant's current guarantee (strong exception safety:
  // a rejected re-plan means "old quota still holds").
  EXPECT_THROW(sim->set_vgpu(0, {.guaranteed_tpcs = 2}), ConfigError);
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(0)), 1u);
  EXPECT_EQ(sim->tenant(0).vgpu.guaranteed_tpcs, 1u);
}

TEST(VgpuQuota, RemovalReleasesTheRegion) {
  FnController idle = idle_controller();
  auto sim = two_be_builder().quota({.guaranteed_tpcs = 3}).build(idle);
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(1)), 3u);
  sim->begin();
  sim->remove_tenant(1);
  EXPECT_EQ(sim->guaranteed_mask(1), 0u);
  sim->set_vgpu(0, {.guaranteed_tpcs = 4});  // the whole device again
  EXPECT_EQ(gpusim::tpc_count(sim->guaranteed_mask(0)), 4u);
  sim->finish();
}

TEST(VgpuQuota, GuaranteedLsLaunchesGetTheirMinTpcs) {
  // Two requests of a one-kernel LS model needing 2 TPCs, against a
  // 3-TPC guarantee: the first launch takes the region's top two TPCs,
  // the second the region's last TPC and the idle TPC below it. A region
  // TPC taken from the guarantee must not count again as an idle one, or
  // the second kernel launches on 1 TPC.
  models::ModelDesc model = tiny_be_model("tiny-ls", 'L');
  model.service = models::ServiceClass::kLatencySensitive;
  model.kernels.resize(1);
  model.kernels[0].min_tpcs = 2;
  FnController idle = idle_controller();
  auto sim = ServingSimBuilder()
                 .gpu(gpusim::rtx_a2000())  // 13 TPCs
                 .duration(20 * kNsPerMs)
                 .default_ls_instances(2)
                 .add_latency_sensitive(model, 1 * kNsPerMs)
                 .quota({.guaranteed_tpcs = 3})
                 .build(idle);
  ASSERT_EQ(sim->guaranteed_mask(0), TpcMask{0x1C00});
  sim->begin();
  sim->inject(0, 0);
  sim->inject(0, 0);
  SgdrcPolicy sgdrc(gpusim::rtx_a2000());
  const auto plan = sgdrc.plan(SimView(*sim));
  std::vector<TpcMask> masks;
  for (const auto& d : plan.directives) {
    if (d.kind == control::Directive::Kind::kLaunch) {
      masks.push_back(d.alloc.tpcs);
    }
  }
  ASSERT_EQ(masks.size(), 2u);
  EXPECT_EQ(masks[0], TpcMask{0x1800});
  EXPECT_EQ(masks[1], TpcMask{0x600});
  sim->finish();
}

TEST(VgpuQuota, SgdrcControllerKeepsBeOutOfGuaranteedLsRegion) {
  // An LS tenant with a hard 2-TPC guarantee against a BE batch tenant:
  // SGDRC's tide must never hand those TPCs to BE (zero violations, and
  // every BE running mask stays clear of the region).
  HarnessOptions o = fig17_like_options(1.0, BeMode::kRoundRobin);
  o.ls_letters = "A";
  o.be_letters = "I";
  o.duration = 60 * kNsPerMs;
  const ServingHarness h(o);

  ServingSimBuilder builder;
  builder.gpu(o.spec)
      .duration(o.duration)
      .slo_multiplier(2.0)
      .add_latency_sensitive(h.ls_model_spt(0), h.isolated_latency(0))
      .quota({.guaranteed_tpcs = 4})
      .add_best_effort(h.be_model_spt(0));
  SgdrcPolicy sgdrc(o.spec);
  auto sim = builder.build(sgdrc);
  const TpcMask region = sim->guaranteed_mask(0);
  EXPECT_EQ(gpusim::tpc_count(region), 4u);
  const auto m = sim->run(h.trace());
  EXPECT_EQ(m.guarantee_violations, 0u);
  EXPECT_GT(m.tenants[0].served, 0u);
  EXPECT_GT(m.tenants[1].kernels_done, 0u);  // BE still made progress
}

// ===================================================================
// Builder additions: config()/tenants() round-trip and the fleet-mode
// build(EventQueue&, …) overloads.
// ===================================================================

TEST(BuilderApi, FleetModeOverloadSharesTheExternalQueue) {
  EventQueue queue;
  FnController idle = idle_controller();
  ServingConfig cfg;
  cfg.spec = gpusim::test_gpu();
  cfg.duration = 5 * kNsPerMs;
  auto sim = ServingSimBuilder()
                 .config(cfg)
                 .tenants({best_effort_tenant(tiny_be_model("tiny-x", 'X'))})
                 .build(queue, idle);
  sim->begin();
  queue.schedule_at(1 * kNsPerMs, [] {});
  queue.run_until(cfg.duration);
  EXPECT_EQ(sim->now(), queue.now());
  const auto m = sim->finish();
  EXPECT_EQ(m.tenants.size(), 1u);
}

TEST(BuilderApi, ConfigSeedsEveryField) {
  ServingConfig cfg;
  cfg.spec = gpusim::test_gpu();
  cfg.duration = 7 * kNsPerMs;
  cfg.ls_instances = 2;
  cfg.slo_multiplier = 3.5;
  cfg.be_mode = BeMode::kConcurrent;
  cfg.seed = 0xabc;
  FnController idle = idle_controller();
  auto sim = ServingSimBuilder()
                 .config(cfg)
                 .tenants({best_effort_tenant(tiny_be_model("tiny-x", 'X'))})
                 .build(idle);
  EXPECT_EQ(sim->config().duration, cfg.duration);
  EXPECT_EQ(sim->config().ls_instances, cfg.ls_instances);
  EXPECT_EQ(sim->config().slo_multiplier, cfg.slo_multiplier);
  EXPECT_EQ(sim->config().seed, cfg.seed);
}

}  // namespace
}  // namespace sgdrc::core
