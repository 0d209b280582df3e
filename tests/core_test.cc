// Tests for the SGDRC core: offline profiler, serving engine mechanics,
// the SGDRC policy (tidal masking + bimodal channels), and qualitative
// end-to-end comparisons against the baselines on a small configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "baselines/baseline_policies.h"
#include "core/harness.h"
#include "core/profiler.h"
#include "core/serving.h"
#include "core/sgdrc_policy.h"
#include "models/zoo.h"
#include "test_support.h"

namespace sgdrc::core {
namespace {

using control::Allocation;
using control::ResourcePlan;
using control::SimView;
using gpusim::GpuSpec;
using tests::FnController;
using tests::launch_all_waiting;
using tests::tiny_be_model;
using tests::two_be_builder;

GpuSpec small_spec() { return gpusim::test_gpu(); }

// ----------------------------------------------------------- Profiler ----

TEST(Profiler, MinTpcsWithinRange) {
  OfflineProfiler prof(small_spec());
  auto m = models::mobilenet_v3();
  prof.profile(m);
  for (const auto& k : m.kernels) {
    EXPECT_GE(k.min_tpcs, 1u) << k.name;
    EXPECT_LE(k.min_tpcs, small_spec().num_tpcs) << k.name;
  }
}

TEST(Profiler, MemoryBoundClassification) {
  OfflineProfiler prof(small_spec());
  // A pure-compute kernel must not be memory-bound; a streaming kernel is.
  gpusim::KernelDesc comp;
  comp.name = "gemm";
  comp.flops = 4'000'000'000ull;
  comp.bytes = 1024;
  comp.blocks = 1u << 16;
  comp.max_useful_tpcs = 64;
  EXPECT_FALSE(prof.is_memory_bound(comp));

  gpusim::KernelDesc mem;
  mem.name = "copy";
  mem.flops = 1000;
  mem.bytes = 400'000'000ull;
  mem.blocks = 1u << 16;
  mem.max_useful_tpcs = 64;
  EXPECT_TRUE(prof.is_memory_bound(mem));
}

TEST(Profiler, TensorsInheritMemoryBoundness) {
  OfflineProfiler prof(small_spec());
  auto m = models::densenet161();
  prof.profile(m);
  bool any_mb_kernel = false, any_mb_tensor = false;
  for (const auto& k : m.kernels) any_mb_kernel |= k.memory_bound;
  for (const auto& t : m.tensors) any_mb_tensor |= t.memory_bound;
  EXPECT_TRUE(any_mb_kernel);
  EXPECT_TRUE(any_mb_tensor);
  // Every access of a memory-bound kernel touches a memory-bound tensor.
  for (const auto& k : m.kernels) {
    if (!k.memory_bound) continue;
    for (const auto& a : k.accesses) {
      EXPECT_TRUE(m.tensors[a.tensor].memory_bound);
    }
  }
}

TEST(Profiler, MinTpcsSmallForMemoryBoundKernels) {
  OfflineProfiler prof(small_spec());
  gpusim::KernelDesc mem;
  mem.name = "stream";
  mem.flops = 50'000'000ull;     // light compute
  mem.bytes = 200'000'000ull;    // heavy traffic
  mem.blocks = 1u << 16;
  mem.max_useful_tpcs = 64;
  const unsigned n = prof.min_tpcs_for(mem);
  EXPECT_LT(n, small_spec().num_tpcs);  // saturates before the full GPU
}

// --------------------------------------------------- Channel partition ----

TEST(SgdrcPolicy, BeChannelPartitionRespectsGroups) {
  const GpuSpec a2000 = gpusim::rtx_a2000();  // 6 channels, pairs
  const auto be = be_channel_partition(a2000, 1.0 / 3.0);
  EXPECT_EQ(gpusim::channel_count(be), 2u);  // one pair
  const GpuSpec p40 = gpusim::tesla_p40();   // 12 channels, quads
  const auto be40 = be_channel_partition(p40, 1.0 / 3.0);
  EXPECT_EQ(gpusim::channel_count(be40), 4u);  // one quad
  // LS and BE partitions are disjoint and cover all channels.
  EXPECT_EQ(be & ~gpusim::all_channels(6), 0u);
}

// -------------------------------------------------- Serving mechanics ----

class ServingTest : public ::testing::Test {
 protected:
  HarnessOptions small_options(double util, double scale) {
    HarnessOptions o;
    o.spec = small_spec();
    o.ls_letters = "AB";
    o.be_letters = "I";
    o.utilization = util;
    o.load_scale = scale;
    o.duration = 300 * kNsPerMs;
    o.seed = 99;
    return o;
  }
};

TEST_F(ServingTest, TemporalServesEverythingEventually) {
  ServingHarness h(small_options(0.3, 1.0));
  baselines::TemporalPolicy policy;
  const auto m = h.run(policy, false);
  const auto ls = m.of_class(QosClass::kLatencySensitive);
  ASSERT_EQ(ls.size(), 2u);
  for (const auto* s : ls) {
    EXPECT_GT(s->served, 0u) << s->name;
    EXPECT_GE(s->attainment(), 0.9) << s->name;  // temporal protects LS
  }
}

TEST_F(ServingTest, MultiStreamKeepsBeAlwaysResident) {
  // Spatial multiplexing co-executes BE continuously (Fig. 1b) — the BE
  // task is in flight essentially the whole run.
  ServingHarness h(small_options(0.3, 1.0));
  baselines::MultiStreamPolicy multi;
  const auto mm = h.run(multi, false);
  EXPECT_GT(static_cast<double>(mm.be_busy_ns) /
                static_cast<double>(mm.duration),
            0.9);
}

TEST_F(ServingTest, TemporalStarvesBeUnderLoad) {
  // Fig. 4a: as LS load rises, temporal multiplexing's BE throughput
  // collapses while LS attainment stays high.
  ServingHarness light(small_options(0.15, 1.0));
  ServingHarness heavy(small_options(0.6, 1.0));
  baselines::TemporalPolicy p1, p2;
  const auto ml = light.run(p1, false);
  const auto mh = heavy.run(p2, false);
  EXPECT_LT(mh.be_throughput(), ml.be_throughput());
  EXPECT_GT(mh.mean_attainment(), 0.85);
}

TEST_F(ServingTest, SgdrcMeetsSloAndBeatsStaticBe) {
  ServingHarness h(small_options(0.35, 1.0));
  SgdrcPolicy sgdrc(h.options().spec);
  SgdrcStaticPolicy static_(h.options().spec);
  const auto ms = h.run(sgdrc, true);
  const auto mst = h.run(static_, true);
  EXPECT_GE(ms.mean_attainment(), 0.90);
  EXPECT_GT(ms.be_throughput(), mst.be_throughput());
  EXPECT_GT(ms.mean_attainment(), mst.mean_attainment());
}

TEST_F(ServingTest, SgdrcBeatsMultiStreamOnAttainment) {
  ServingHarness h(small_options(0.45, 1.0));
  SgdrcPolicy sgdrc(h.options().spec);
  baselines::MultiStreamPolicy multi;
  const auto ms = h.run(sgdrc, true);
  const auto mm = h.run(multi, false);
  EXPECT_GT(ms.mean_attainment(), mm.mean_attainment());
}

TEST_F(ServingTest, SgdrcEvictsBeUnderLoad) {
  ServingHarness h(small_options(0.45, 1.0));
  SgdrcPolicy sgdrc(h.options().spec);
  const auto m = h.run(sgdrc, true);
  uint64_t evictions = 0;
  for (const auto* b : m.of_class(QosClass::kBestEffort)) {
    evictions += b->evictions;
  }
  EXPECT_GT(evictions, 0u);  // the tide came in at least once
}

TEST_F(ServingTest, DynamicSgdrcBeatsStaticOnBeThroughputAtLightLoad) {
  // §9.3: "Compared with SGDRC (Static), SGDRC achieves higher BE job
  // throughput, which is more evident in the light workload scenario" —
  // the dynamic policy lets BE monopolise the GPU between bursts.
  ServingHarness h(small_options(0.35, 0.5));
  SgdrcPolicy dynamic(h.options().spec);
  SgdrcStaticPolicy static_(h.options().spec);
  const auto md = h.run(dynamic, true);
  const auto ms = h.run(static_, true);
  EXPECT_GT(md.be_throughput(), ms.be_throughput());
}

TEST_F(ServingTest, OrionConstraintCountersPopulate) {
  ServingHarness h(small_options(0.45, 1.0));
  baselines::OrionPolicy orion;
  const auto m = h.run(orion, false);
  EXPECT_GT(orion.admitted(), 0u);
  EXPECT_GT(orion.rejected_sm() + orion.rejected_runtime() +
                orion.rejected_resource(),
            0u);
  EXPECT_GT(m.be_throughput(), 0.0);
}

TEST_F(ServingTest, OrionBeThroughputDeclinesWithLsLoad) {
  // Fig. 5a's shape: BE throughput collapses as LS load rises. (On this
  // 4-TPC toy GPU the SLO is very tight, so no attainment floor here —
  // the P40/A2000 bench covers the attainment side.)
  ServingHarness light(small_options(0.15, 1.0));
  ServingHarness heavy(small_options(0.6, 1.0));
  baselines::OrionPolicy p1, p2;
  const auto ml = light.run(p1, false);
  const auto mh = heavy.run(p2, false);
  EXPECT_LT(mh.be_throughput(), ml.be_throughput() / 2);
}

TEST_F(ServingTest, MetricsAccounting) {
  ServingHarness h(small_options(0.3, 1.0));
  baselines::MultiStreamPolicy policy;
  const auto m = h.run(policy, false);
  for (const auto* s : m.of_class(QosClass::kLatencySensitive)) {
    EXPECT_LE(s->attained, s->served);
    EXPECT_LE(s->served, s->arrived);
    EXPECT_GT(s->slo, s->isolated_p99);
  }
  EXPECT_GT(m.overall_throughput(), 0.0);
  EXPECT_EQ(m.duration, 300 * kNsPerMs);
}

TEST_F(ServingTest, TgsPaysContextSwitches) {
  ServingHarness h(small_options(0.35, 1.0));
  baselines::TgsPolicy tgs;
  baselines::TemporalPolicy temporal;
  const auto mt = h.run(tgs, false);
  const auto mtemp = h.run(temporal, false);
  // TGS's dwell + switch cost inflate LS latency beyond plain temporal.
  double tgs_p99 = 0, temp_p99 = 0;
  for (const auto* s : mt.of_class(QosClass::kLatencySensitive)) {
    tgs_p99 += s->p99_ms();
  }
  for (const auto* s : mtemp.of_class(QosClass::kLatencySensitive)) {
    temp_p99 += s->p99_ms();
  }
  EXPECT_GT(tgs_p99, temp_p99);
}

// ----------------------------------------------------- Tenant API ----

TEST(TenantApi, ScheduleIsIdempotentAndLaunchedJobsLeaveTheWaitingSet) {
  // Plans are recomputed after every state change; a correct substrate
  // must (a) not re-offer a job whose kernel it just launched and (b)
  // reject a plan that launches an in-flight job again.
  size_t launches = 0;
  FnController c([&](const SimView& view) {
    const ResourcePlan p = launch_all_waiting(view);
    launches += p.size();
    return p;
  });
  EventQueue queue;
  auto sim = two_be_builder().build(queue, c);
  sim->begin();  // the first plan launches the resident batch loop
  const SimView view(*sim);
  const auto be = view.jobs(QosClass::kBestEffort);
  ASSERT_EQ(be.size(), 1u);
  EXPECT_TRUE(be[0].in_flight);
  EXPECT_TRUE(view.waiting_jobs(QosClass::kBestEffort).empty());
  EXPECT_THROW(sim->apply(ResourcePlan().launch(be[0].id, Allocation::all())),
               ConfigError);
  queue.run_until(sim->config().duration);
  const auto m = sim->finish();
  EXPECT_GT(launches, 1u);
  uint64_t done = 0;
  for (const auto* b : m.of_class(QosClass::kBestEffort)) {
    done += b->kernels_done;
  }
  EXPECT_GT(done, 0u);
}

TEST(TenantApi, EvictRestartsTheSameKernelFromScratch) {
  // §7.1 reset semantics: an evicted kernel loses all progress and the
  // job's frontier returns it to the ready set — the next launch runs
  // the same kernel.
  const gpusim::KernelDesc* evicted = nullptr;
  bool rechecked = false;
  FnController c([&](const SimView& view) {
    ResourcePlan p;
    const auto waiting = view.waiting_jobs(QosClass::kBestEffort);
    if (waiting.empty()) return p;
    const auto& job = waiting.front();
    if (evicted == nullptr) {
      // Launch a kernel and preempt that very kernel in the same plan.
      evicted = job.next_kernel;
      p.launch(job.id, Allocation::all()).evict(job.id);
      return p;
    }
    if (!rechecked) {
      // After the eviction landed, the job offers the SAME kernel.
      EXPECT_EQ(job.next_kernel, evicted);
      rechecked = true;
    }
    p.launch(job.id, Allocation::all());
    return p;
  });
  auto sim = ServingSimBuilder()
                 .gpu(small_spec())
                 .duration(20 * kNsPerMs)
                 .add_best_effort(tiny_be_model("tiny-e", 'E'))
                 .build(c);
  const auto m = sim->run({});
  EXPECT_TRUE(rechecked);
  const auto bes = m.of_class(QosClass::kBestEffort);
  ASSERT_EQ(bes.size(), 1u);
  EXPECT_EQ(bes[0]->evictions, 1u);
  // The evicted kernel contributed no progress (restart, not resume).
  EXPECT_GT(bes[0]->kernels_done, 0u);
}

TEST(TenantApi, ViewsAreConsistentAcrossAccessors) {
  FnController c([&](const SimView& view) {
    const auto all = view.jobs();
    const auto ls = view.jobs(QosClass::kLatencySensitive);
    const auto be = view.jobs(QosClass::kBestEffort);
    EXPECT_EQ(all.size(), ls.size() + be.size());
    size_t inflight_ls = 0, inflight_be = 0;
    for (const auto& v : all) {
      // find_job agrees field-for-field with the enumeration view.
      const auto f = view.find_job(v.id);
      EXPECT_TRUE(f.has_value());
      if (!f) continue;
      EXPECT_EQ(f->tenant, v.tenant);
      EXPECT_EQ(f->qos, v.qos);
      EXPECT_EQ(f->in_flight, v.in_flight);
      EXPECT_EQ(f->next_kernel, v.next_kernel);
      // in-flight ⇔ no next kernel.
      EXPECT_EQ(v.next_kernel == nullptr, v.in_flight);
      (v.qos == QosClass::kLatencySensitive ? inflight_ls : inflight_be) +=
          v.in_flight;
      // The view's tenant really is of the view's class.
      EXPECT_EQ(view.tenant(v.tenant).qos, v.qos);
    }
    EXPECT_EQ(view.inflight(QosClass::kLatencySensitive), inflight_ls);
    EXPECT_EQ(view.inflight(QosClass::kBestEffort), inflight_be);
    // Waiting views are exactly the not-in-flight visible jobs.
    for (const auto qos :
         {QosClass::kLatencySensitive, QosClass::kBestEffort}) {
      size_t waiting_expected = 0;
      for (const auto& v : view.jobs(qos)) waiting_expected += !v.in_flight;
      EXPECT_EQ(view.waiting_jobs(qos).size(), waiting_expected);
    }
    // Keep the sim busy so views change between invocations.
    return launch_all_waiting(view);
  });
  HarnessOptions o;
  o.spec = small_spec();
  o.ls_letters = "AB";
  o.be_letters = "IJ";
  o.utilization = 0.3;
  o.duration = 100 * kNsPerMs;
  o.seed = 7;
  ServingHarness h(o);
  const auto m = h.run(c, false);
  EXPECT_GT(m.overall_throughput(), 0.0);
}

TEST(TenantApi, RoundRobinExposesOneBeJobConcurrentExposesAll) {
  bool saw_two_concurrent = false;
  FnController rr_controller([&](const SimView& view) {
    EXPECT_LE(view.jobs(QosClass::kBestEffort).size(), 1u);
    return launch_all_waiting(view);
  });
  auto rr = two_be_builder().build(rr_controller);
  const auto m_rr = rr->run({});

  FnController conc_controller([&](const SimView& view) {
    if (view.jobs(QosClass::kBestEffort).size() == 2) {
      saw_two_concurrent = true;
    }
    return launch_all_waiting(view);
  });
  auto conc = two_be_builder()
                  .best_effort_mode(BeMode::kConcurrent)
                  .build(conc_controller);
  const auto m_conc = conc->run({});

  EXPECT_TRUE(saw_two_concurrent);
  // Concurrent mode: both tenants progress simultaneously; two kernels
  // can be in flight, so BE busy time accrues for both.
  const auto bes = m_conc.of_class(QosClass::kBestEffort);
  ASSERT_EQ(bes.size(), 2u);
  for (const auto* b : bes) {
    EXPECT_GT(b->kernels_done, 0u) << b->name;
    EXPECT_GT(b->batches_completed, 0u) << b->name;
  }
  // Round-robin also serves both tenants over time (the rotation), just
  // never at once.
  const auto bes_rr = m_rr.of_class(QosClass::kBestEffort);
  ASSERT_EQ(bes_rr.size(), 2u);
  for (const auto* b : bes_rr) {
    EXPECT_GT(b->batches_completed, 0u) << b->name;
  }
}

TEST(TenantApi, LaunchOnNonResidentBeJobIsRejected) {
  // In round-robin mode only the resident BE tenant is schedulable; a
  // plan naming the other tenant's (stale) JobId must be refused, not
  // silently run.
  FnController c([](const SimView& view) {
    EXPECT_EQ(view.jobs(QosClass::kBestEffort).size(), 1u);
    return launch_all_waiting(view);
  });
  EventQueue queue;
  auto sim = two_be_builder().build(queue, c);
  sim->begin();
  // The two BE batch loops get the first two JobIds at construction;
  // exactly one of them is resident right now — the other is rejected.
  const auto be = SimView(*sim).jobs(QosClass::kBestEffort);
  ASSERT_EQ(be.size(), 1u);
  const JobId hidden = be.front().id == 1 ? 2 : 1;
  EXPECT_THROW(sim->apply(ResourcePlan().launch(hidden, Allocation::all())),
               ConfigError);
  queue.run_until(sim->config().duration);
  const auto m = sim->finish();
  // Both tenants took turns through the rotation.
  for (const auto* b : m.of_class(QosClass::kBestEffort)) {
    EXPECT_GT(b->kernels_done, 0u) << b->name;
  }
}

TEST(TenantApi, PerTenantInstanceOverrides) {
  // A tenant-specific instance pool caps that tenant's concurrent jobs
  // independently of the config default.
  OfflineProfiler prof(small_spec());
  auto ls = models::make_model('A');
  prof.profile(ls);
  const TimeNs iso = prof.isolated_latency(ls);

  size_t max_jobs = 0;
  FnController c([&](const SimView& view) {
    max_jobs = std::max(max_jobs,
                        view.jobs(QosClass::kLatencySensitive).size());
    return launch_all_waiting(view);
  });
  auto sim = ServingSimBuilder()
                 .gpu(small_spec())
                 .duration(50 * kNsPerMs)
                 .default_ls_instances(4)
                 .add_latency_sensitive(ls, iso, /*instances=*/1)
                 .build(c);
  // A burst of simultaneous arrivals; with instances=1 they serialize.
  std::vector<workload::Request> burst;
  for (int i = 0; i < 6; ++i) burst.push_back({1000, 0});
  const auto m = sim->run(burst);
  EXPECT_EQ(max_jobs, 1u);  // never more than one admitted job
  const auto lsm = m.of_class(QosClass::kLatencySensitive);
  ASSERT_EQ(lsm.size(), 1u);
  EXPECT_EQ(lsm[0]->arrived, 6u);
  EXPECT_EQ(lsm[0]->served, 6u);
}

// ------------------------------------------------ tenant validation ----
// A model the frontier cannot run (no kernels, or a kernel_deps list
// that is not one strictly ascending list of earlier kernels per kernel)
// would crash or stall the run, so registration rejects it — at
// construction and mid-run — with a ConfigError naming the problem.

void expect_rejected(const TenantSpec& bad, const std::string& why) {
  FnController idle = tests::idle_controller();
  const auto check = [&](const std::function<void()>& register_bad) {
    try {
      register_bad();
      ADD_FAILURE() << "accepted a malformed model (" << why << ")";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  check([&] {
    ServingSimBuilder().gpu(small_spec()).add_tenant(bad).build(idle);
  });
  auto sim = ServingSimBuilder().gpu(small_spec()).build(idle);
  check([&] { sim->add_tenant(bad); });
  EXPECT_EQ(sim->tenant_count(), 0u);  // the rejected tenant left no trace
}

/// tiny_be_model's three kernels with hand-built dependency lists.
TenantSpec be_with_deps(std::vector<std::vector<int>> deps) {
  auto m = tiny_be_model("hand-dag", 'H');
  m.kernel_deps = std::move(deps);
  return best_effort_tenant(std::move(m));
}

TEST(TenantValidation, ModelWithoutKernelsIsRejected) {
  models::ModelDesc empty;
  empty.name = "empty";
  expect_rejected(latency_sensitive_tenant(empty, kNsPerMs),
                  "at least one kernel");
  expect_rejected(best_effort_tenant(empty), "at least one kernel");
}

TEST(TenantValidation, ForwardEdgeIsRejected) {
  expect_rejected(be_with_deps({{}, {2}, {0}}), "earlier kernel");
}

TEST(TenantValidation, OutOfRangeEdgeIsRejected) {
  expect_rejected(be_with_deps({{}, {0}, {7}}), "earlier kernel");
}

TEST(TenantValidation, UnsortedDependencyListIsRejected) {
  expect_rejected(be_with_deps({{}, {0}, {1, 0}}), "strictly ascending");
}

TEST(TenantValidation, DuplicateEdgeIsRejected) {
  expect_rejected(be_with_deps({{}, {0}, {0, 0}}), "strictly ascending");
}

TEST(TenantValidation, ShortDependencyListsAreRejected) {
  expect_rejected(be_with_deps({{}, {0}}), "one list per kernel");
}

// Regression: a tenant that served zero requests used to report 100%
// attainment (and pulled class means toward a vacuous 1.0).
TEST(Metrics, ZeroServedTenantReportsNoDataNotPerfectAttainment) {
  workload::TenantMetrics idle;
  idle.qos = QosClass::kLatencySensitive;
  EXPECT_TRUE(std::isnan(idle.attainment()));
  EXPECT_FALSE(idle.has_latency_data());

  workload::TenantMetrics busy;
  busy.qos = QosClass::kLatencySensitive;
  busy.served = 4;
  busy.attained = 3;
  EXPECT_DOUBLE_EQ(busy.attainment(), 0.75);

  // The idle tenant must not drag the class mean toward 1.0 (the old
  // behaviour averaged {1.0, 0.75} = 0.875 here).
  EXPECT_DOUBLE_EQ(workload::mean_attainment({idle, busy}), 0.75);
  // No data anywhere is NaN, not a vacuous pass.
  EXPECT_TRUE(std::isnan(workload::mean_attainment({idle})));
}


// ------------------------------------------------------- DAG frontier ----

/// A wide synthetic DAG: a stem fans out to three independent branches
/// that join — the frontier holds three co-schedulable kernels after the
/// stem retires.
models::ModelDesc wide_dag_model(const std::string& name, char letter,
                                 models::ServiceClass service) {
  models::ModelDesc m;
  m.name = name;
  m.letter = letter;
  m.service = service;
  m.batch = service == models::ServiceClass::kBestEffort ? 4 : 1;
  for (int i = 0; i < 5; ++i) {
    gpusim::KernelDesc k;
    k.name = name + ".k" + std::to_string(i);
    k.flops = 4'000'000;
    k.bytes = 200'000;
    k.blocks = 64;
    k.max_useful_tpcs = 4;
    k.preemptible = service == models::ServiceClass::kBestEffort;
    k.memory_bound = i == 2;  // one memory-bound branch
    k.min_tpcs = 1;
    m.kernels.push_back(std::move(k));
  }
  m.kernel_deps = {{}, {0}, {0}, {0}, {1, 2, 3}};
  return m;
}

TEST(DagFrontier, CoSchedulesIndependentKernels) {
  // "Launch every waiting entry" must put all three branches in flight
  // at once — one request finally uses more than one kernel's worth of
  // the GPU.
  FnController c(launch_all_waiting);
  EventQueue queue;
  const TimeNs duration = 20 * kNsPerMs;
  auto sim = ServingSimBuilder()
                 .gpu(small_spec())
                 .duration(duration)
                 .add_best_effort(wide_dag_model(
                     "wide", 'W', models::ServiceClass::kBestEffort))
                 .build(queue, c);
  sim->begin();  // the stem launches; nothing else is ready yet
  const SimView view(*sim);
  const auto be = view.jobs(QosClass::kBestEffort);
  ASSERT_EQ(be.size(), 1u);
  ASSERT_TRUE(be[0].in_flight);
  // A drained frontier rejects further launches (nothing ready).
  EXPECT_THROW(sim->apply(ResourcePlan().launch(be[0].id, Allocation::all())),
               ConfigError);
  size_t max_inflight = 0;
  while (queue.peek_next_time().value_or(duration + 1) <= duration) {
    queue.run_next();
    max_inflight = std::max(max_inflight, view.inflight(QosClass::kBestEffort));
  }
  const auto m = sim->finish();
  EXPECT_GE(max_inflight, 3u);
  EXPECT_GT(m.of_class(QosClass::kBestEffort)[0]->batches_completed, 0u);
}

TEST(DagFrontier, EvictReturnsEvictedKernelsToReady) {
  // §7.1 restart-from-scratch over a frontier: evicting the job pulls
  // every in-flight branch back, and each lands in the ready set again.
  bool evict_issued = false;
  size_t max_ready_after = 0;
  FnController c([&](const SimView& view) {
    ResourcePlan p;
    const auto waiting = view.waiting_jobs(QosClass::kBestEffort);
    if (evict_issued) {
      // Stop launching; watch the evictions land back in the ready set.
      max_ready_after = std::max(max_ready_after, waiting.size());
      return p;
    }
    for (const auto& w : waiting) p.launch(w.id, Allocation::all());
    if (waiting.size() >= 3) {
      // The three branches: launch them all, then pull them all back.
      p.evict(waiting.front().id);
      evict_issued = true;
    }
    return p;
  });
  auto sim = ServingSimBuilder()
                 .gpu(small_spec())
                 .duration(5 * kNsPerMs)
                 .add_best_effort(wide_dag_model(
                     "wide", 'W', models::ServiceClass::kBestEffort))
                 .build(c);
  const auto m = sim->run({});
  EXPECT_TRUE(evict_issued);
  EXPECT_EQ(m.tenants[0].evictions, 3u);
  EXPECT_GE(max_ready_after, 3u);
}

std::string run_wide_model_once() {
  workload::TraceOptions topt;
  topt.services = 1;
  topt.duration = 50 * kNsPerMs;
  topt.per_service_rates = {1500.0};
  topt.burstiness = 0.35;
  topt.seed = 0xd16;
  const auto trace = workload::generate_apollo_like_trace(topt);
  SgdrcPolicy controller(small_spec());
  auto sim = ServingSimBuilder()
                 .gpu(small_spec())
                 .duration(topt.duration)
                 .slo_multiplier(4.0)
                 .add_latency_sensitive(
                     wide_dag_model("wide-ls", 'V',
                                    models::ServiceClass::kLatencySensitive),
                     50 * kNsPerUs)
                 .add_best_effort(wide_dag_model(
                     "wide-be", 'W', models::ServiceClass::kBestEffort))
                 .build(controller);
  const auto m = sim->run(trace);
  EXPECT_GT(m.tenants[0].served, 0u);
  return workload::run_digest(m);
}

TEST(DagFrontier, RerunsAreBitIdentical) {
  // The ready order is kernel-index ascending by construction, never
  // completion-order dependent — two fresh runs must agree down to the
  // last latency sample.
  EXPECT_EQ(run_wide_model_once(), run_wide_model_once());
}

}  // namespace
}  // namespace sgdrc::core
