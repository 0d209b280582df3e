// Controller conformance: every system in the shared registry
// (src/baselines/registry.h) runs over the same mini scenario and must
// uphold the substrate invariants, whatever its scheduling strategy:
//
//  * only best-effort kernels are ever evicted (LS requests are
//    inviolable — eviction flags exist only on preemptible kernels);
//  * no launch of in-flight jobs / no phantom jobs (the sim throws, so
//    completing the run is the assertion);
//  * request-count conservation: every arrived request is either served
//    or still in the system when the run ends;
//  * bit-identical reruns at a fixed seed (fresh controller, fresh sim);
//  * the historic output: each run's digest equals a pinned golden.
#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/harness.h"
#include "fleet/fleet.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "models/zoo.h"

namespace sgdrc::core {
namespace {

HarnessOptions mini_options() {
  HarnessOptions o;
  o.spec = gpusim::test_gpu();
  o.ls_letters = "AB";
  o.be_letters = "IJ";
  o.utilization = 0.6;
  o.burstiness = 0.35;
  o.duration = 80 * kNsPerMs;
  o.seed = 0xc0f;
  return o;
}

const ServingHarness& mini_harness() {
  static const ServingHarness h(mini_options());
  return h;
}

/// Build the same sim the harness would, but keep it so post-run state
/// (outstanding requests) stays queryable.
std::unique_ptr<ServingSim> build_mini_sim(const ServingHarness& h,
                                           control::Controller& controller,
                                           bool spt) {
  ServingSimBuilder b;
  b.gpu(h.options().spec)
      .duration(h.options().duration)
      .slo_multiplier(static_cast<double>(h.ls_count() + 1));
  for (size_t i = 0; i < h.ls_count(); ++i) {
    b.add_latency_sensitive(spt ? h.ls_model_spt(i) : h.ls_model(i),
                            h.isolated_latency(i));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    b.add_best_effort(spt ? h.be_model_spt(i) : h.be_model(i));
  }
  return b.build(controller);
}

/// Golden run digests (workload::run_digest, fleet::run_digest) per
/// registry system and scenario, pinned while the Fig. 17 baselines
/// still ran as imperative policies: every controller must keep
/// reproducing those runs bit for bit. A deliberate behaviour change
/// re-pins the moved entries and names them in CHANGES.md.
struct Golden {
  const char* system;
  const char* chain_mini;
  const char* residency_churn;
  const char* front_door_fleet;
  const char* dag;
};

constexpr Golden kGoldens[] = {
    {"Multi-streaming", "7eebb2aa94ae9751", "5f632fc078a13e1a",
     "7c17e9db89138699", "b45f85f7d32cdb0b"},
    {"TGS", "54eab8292c00426a", "0c18953d8b80f6ed",
     "19e2fdc3afeee627", "84130d06cb634c02"},
    {"MPS", "4185f7e6c012c2d7", "58fc4d56b9d24812",
     "8d341c798183ae3e", "8e19ffe0dc2e7a09"},
    {"Orion", "d2ecf3608cc9b0f0", "76e281defe4fc077",
     "99b2419705eb5edb", "8a76e4a85bf4ebed"},
    {"SGDRC (Static)", "fc95ec679c12fea5", "43ce51484108af0d",
     "19b644948d0cc746", "e806b5bd2146b8b4"},
    {"SGDRC", "014339ececa761ef", "e89ab4745911ab8e",
     "dff18167504079a9", "5c42df3b22ab5ecd"},
    {"Temporal (TGS-like)", "d42229738e507df4", "0417b7dde3a29c29",
     "586047ca48af9701", "f1a7cc63978decc6"},
    {"SGDRC (Batch-aware)", "014339ececa761ef", "e89ab4745911ab8e",
     "dff18167504079a9", "5c42df3b22ab5ecd"},
};

const Golden& golden(const std::string& system) {
  for (const auto& g : kGoldens) {
    if (system == g.system) return g;
  }
  throw ConfigError("no golden digests for " + system);
}

class ConformanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ConformanceTest, SharedInvariantsHold) {
  const auto& sys = baselines::system_registry()[GetParam()];
  const ServingHarness& h = mini_harness();

  const auto controller = sys.make(h.options().spec);
  auto sim = build_mini_sim(h, *controller, sys.uses_spt);
  const auto m = sim->run(h.trace());

  uint64_t total_served = 0;
  for (workload::TenantId t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    if (tm.qos == workload::QosClass::kLatencySensitive) {
      // Only BE kernels are ever evicted.
      EXPECT_EQ(tm.evictions, 0u) << sys.name;
      // Conservation: arrived = served + still-in-system at the cut.
      EXPECT_EQ(tm.arrived, tm.served + sim->outstanding(t)) << sys.name;
      total_served += tm.served;
      EXPECT_GE(tm.served, tm.attained) << sys.name;
      EXPECT_EQ(tm.served, tm.latency.count()) << sys.name;
    } else {
      EXPECT_GE(tm.kernels_done,
                tm.batches_completed * tm.kernels_per_batch)
          << sys.name;
    }
  }
  // The mini scenario is busy enough that a conforming scheduler serves
  // work on every system.
  EXPECT_GT(total_served, 0u) << sys.name;
  EXPECT_EQ(workload::run_digest(m), golden(sys.name).chain_mini) << sys.name;

  // Bit-identical rerun: fresh controller, fresh sim, same seed.
  const auto controller2 = sys.make(h.options().spec);
  auto sim2 = build_mini_sim(h, *controller2, sys.uses_spt);
  EXPECT_EQ(workload::run_digest(sim2->run(h.trace())),
            workload::run_digest(m))
      << sys.name;
}

TEST_P(ConformanceTest, InvariantsHoldUnderResidencyChurn) {
  // The same mini scenario with GPU memory modeled and the VRAM squeezed
  // so the registered footprint (LS A+B plus the big BE models I+J) does
  // not fit at once: weights load, evict, and page while every system
  // schedules. The substrate invariants — conservation, LS inviolability,
  // bit-identical reruns — must survive the churn on every controller.
  const auto& sys = baselines::system_registry()[GetParam()];
  const ServingHarness& h = mini_harness();

  memory::MemoryOptions mem;
  mem.enabled = true;
  mem.vram_bytes_override = 256ull << 20;
  mem.oversubscribe = true;

  const auto build = [&](control::Controller& controller) {
    ServingSimBuilder b;
    b.gpu(h.options().spec)
        .duration(h.options().duration)
        .slo_multiplier(static_cast<double>(h.ls_count() + 1))
        .memory(mem);
    for (size_t i = 0; i < h.ls_count(); ++i) {
      b.add_latency_sensitive(sys.uses_spt ? h.ls_model_spt(i)
                                           : h.ls_model(i),
                              h.isolated_latency(i));
    }
    for (size_t i = 0; i < h.be_count(); ++i) {
      b.add_best_effort(sys.uses_spt ? h.be_model_spt(i) : h.be_model(i));
    }
    return b.build(controller);
  };

  const auto controller = sys.make(h.options().spec);
  auto sim = build(*controller);
  ASSERT_TRUE(sim->memory_modeled()) << sys.name;
  const auto m = sim->run(h.trace());

  uint64_t total_served = 0, total_loads = 0;
  for (workload::TenantId t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    total_loads += tm.weight_loads;
    if (tm.qos != workload::QosClass::kLatencySensitive) continue;
    EXPECT_EQ(tm.evictions, 0u) << sys.name;
    EXPECT_EQ(tm.arrived, tm.served + sim->outstanding(t)) << sys.name;
    EXPECT_EQ(tm.served, tm.latency.count()) << sys.name;
    // Cold-start-gated requests are a subset of all served requests.
    EXPECT_LE(tm.cold_latency.count(), tm.latency.count()) << sys.name;
    total_served += tm.served;
  }
  EXPECT_GT(total_served, 0u) << sys.name;
  // The squeeze is real: somebody had to load weights.
  EXPECT_GT(total_loads, 0u) << sys.name;
  EXPECT_EQ(workload::run_digest(m), golden(sys.name).residency_churn)
      << sys.name;

  const auto controller2 = sys.make(h.options().spec);
  auto sim2 = build(*controller2);
  EXPECT_EQ(workload::run_digest(sim2->run(h.trace())),
            workload::run_digest(m))
      << sys.name;
}

TEST_P(ConformanceTest, FrontDoorConservesRequestsUnderOverload) {
  // A 2-device fleet driven through an armed front door with a bucket
  // tight enough to reject, depths low enough to shed, and a retry
  // budget that produces drops — on every registered system. Whatever
  // the controller does on-device, the door's books must balance:
  //
  //   * door level: every first-attempt arrival terminates as admitted
  //     or dropped, or sits in a scheduled retry at the horizon
  //     (arrived == admitted + dropped + pending_retries);
  //   * device level: every admitted request reaches a device unless
  //     its dispatch hop crossed the horizon (admitted == Σ LS device
  //     arrivals + expired);
  //   * tenant level: arrived == served + still-outstanding at the cut,
  //     exactly as in the single-device conformance above.
  const auto& sys = baselines::system_registry()[GetParam()];
  const ServingHarness& h = mini_harness();

  fleet::FleetConfig cfg;
  cfg.spec = h.options().spec;
  cfg.devices = 2;
  cfg.duration = h.options().duration;
  cfg.slo_multiplier = static_cast<double>(h.ls_count() + 1);
  cfg.seed = 0xd00f;
  cfg.dispatch_latency = 2 * kNsPerUs;
  cfg.dispatch_jitter = 3 * kNsPerUs;
  cfg.front_door.enabled = true;
  cfg.front_door.admit_rate = 150.0;
  cfg.front_door.admit_burst = 4.0;
  cfg.front_door.be_pause_depth = 4;
  cfg.front_door.shed_depth = 8;
  cfg.front_door.max_retries = 2;

  std::vector<fleet::FleetTenantSpec> tenants;
  for (size_t i = 0; i < h.ls_count(); ++i) {
    tenants.push_back(fleet::replicated(
        latency_sensitive_tenant(
            sys.uses_spt ? h.ls_model_spt(i) : h.ls_model(i),
            h.isolated_latency(i)),
        2));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    tenants.push_back(fleet::replicated(
        best_effort_tenant(sys.uses_spt ? h.be_model_spt(i)
                                        : h.be_model(i)),
        2));
  }
  fleet::SpreadPlacement spread;
  fleet::QosLoadAwareRouter router;
  fleet::FleetSim fleet(cfg, tenants, spread, router, sys.make);
  const auto m = fleet.run(h.trace());
  const auto& fd = m.front_door;

  // The door must actually have worked for the books to mean anything.
  EXPECT_GT(fd.arrived, 0u) << sys.name;
  EXPECT_GT(fd.rejected, 0u) << sys.name;
  EXPECT_EQ(fd.arrived, fd.admitted + fd.dropped + fd.pending_retries)
      << sys.name;

  uint64_t device_arrivals = 0;
  for (size_t t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    if (tm.qos != workload::QosClass::kLatencySensitive) continue;
    device_arrivals += tm.arrived;
    uint64_t outstanding = 0;
    for (const auto& rep : fleet.replicas_of(static_cast<unsigned>(t))) {
      outstanding += fleet.outstanding(rep);
    }
    EXPECT_EQ(tm.arrived, tm.served + outstanding) << sys.name;
  }
  EXPECT_EQ(fd.admitted, device_arrivals + fd.expired) << sys.name;
  EXPECT_EQ(fleet::run_digest(m), golden(sys.name).front_door_fleet)
      << sys.name;
}

// ------------------------------------------------ DAG-model scenario ----

/// Shared DAG fixture: the inception recipes profiled on the test GPU,
/// their SPT variants, and a single-service trace sized off the DAG
/// model's serialized isolated latency.
struct DagSetup {
  models::ModelDesc ls, be, ls_spt, be_spt;
  TimeNs iso = 0;
  std::vector<workload::Request> trace;

  DagSetup() {
    const OfflineProfiler prof(mini_options().spec);
    ls = models::inception_ls(true);
    be = models::inception_be(true);
    prof.profile(ls);
    prof.profile(be);
    ls_spt = ServingHarness::transform_for_spt(ls, prof);
    be_spt = ServingHarness::transform_for_spt(be, prof);
    iso = prof.isolated_latency(ls);
    workload::TraceOptions topt;
    topt.services = 1;
    topt.duration = mini_options().duration;
    topt.burstiness = 0.35;
    topt.seed = 0xda6c;
    topt.per_service_rates = {0.5 / to_sec(iso)};
    trace = workload::generate_apollo_like_trace(topt);
  }
};

const DagSetup& dag_setup() {
  static const DagSetup s;
  return s;
}

TEST_P(ConformanceTest, SharedInvariantsHoldOnDagModels) {
  // The same substrate invariants over a DAG model: every system sees
  // multi-entry waiting views and multi-launch jobs (the inception
  // frontier) and must still conserve requests, never evict LS work,
  // and replay bit-identically.
  const auto& sys = baselines::system_registry()[GetParam()];
  const auto& d = dag_setup();
  const gpusim::GpuSpec spec = mini_options().spec;

  const auto build = [&](control::Controller& controller) {
    return ServingSimBuilder()
        .gpu(spec)
        .duration(mini_options().duration)
        .slo_multiplier(4.0)
        .best_effort_mode(BeMode::kConcurrent)
        .add_latency_sensitive(sys.uses_spt ? d.ls_spt : d.ls, d.iso)
        .add_best_effort(sys.uses_spt ? d.be_spt : d.be)
        .build(controller);
  };

  const auto controller = sys.make(spec);
  auto sim = build(*controller);
  const auto m = sim->run(d.trace);

  uint64_t total_served = 0;
  for (workload::TenantId t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    if (tm.qos == workload::QosClass::kLatencySensitive) {
      EXPECT_EQ(tm.evictions, 0u) << sys.name;
      EXPECT_EQ(tm.arrived, tm.served + sim->outstanding(t)) << sys.name;
      EXPECT_EQ(tm.served, tm.latency.count()) << sys.name;
      total_served += tm.served;
    } else {
      EXPECT_GE(tm.kernels_done,
                tm.batches_completed * tm.kernels_per_batch)
          << sys.name;
    }
  }
  EXPECT_GT(total_served, 0u) << sys.name;
  EXPECT_EQ(workload::run_digest(m), golden(sys.name).dag) << sys.name;

  const auto controller2 = sys.make(spec);
  auto sim2 = build(*controller2);
  EXPECT_EQ(workload::run_digest(sim2->run(d.trace)),
            workload::run_digest(m))
      << sys.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ConformanceTest,
    ::testing::Range<size_t>(0, baselines::system_registry().size()),
    // Not `info`: the INSTANTIATE_TEST_SUITE_P expansion has its own
    // `info` parameter, and the shadow trips -Wshadow builds.
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      std::string name = baselines::system_registry()[param_info.param].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sgdrc::core
