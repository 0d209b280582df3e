// Dynamic request batching: the batch-size latency model
// (models/batching.h), the assembly queue inside ServingSim (timeout
// fires partial batches, the cap is respected, churned tenants drain,
// per-request latency includes assembly wait, an unbatched tenant is a
// batch of one on the same path), occupancy visibility to controllers,
// router-facing queue depth, and bit-identical reruns with batching
// enabled.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/registry.h"
#include "control/batch_aware.h"
#include "core/harness.h"
#include "core/serving.h"
#include "core/sgdrc_policy.h"
#include "models/batching.h"
#include "test_support.h"

namespace sgdrc::core {
namespace {

using control::Allocation;
using control::ResourcePlan;
using control::SimView;
using tests::FnController;
using workload::BatchPolicy;
using workload::Request;
using workload::batch_up_to;

gpusim::GpuSpec spec() { return gpusim::test_gpu(); }

/// Greedy plan: launch the next kernel of every idle job on the whole
/// device.
ResourcePlan greedy_plan(const SimView& view) {
  ResourcePlan p;
  for (const auto qos :
       {QosClass::kLatencySensitive, QosClass::kBestEffort}) {
    for (const auto& job : view.jobs(qos)) {
      if (!job.in_flight) p.launch(job.id, Allocation::all());
    }
  }
  return p;
}

FnController greedy() { return FnController(greedy_plan); }

/// A small synthetic LS model with one weight tensor, so batching has
/// both launch overhead and weight traffic to amortise.
models::ModelDesc tiny_ls_model() {
  models::ModelDesc m;
  m.name = "tiny-ls";
  m.letter = 'T';
  m.service = models::ServiceClass::kLatencySensitive;
  models::TensorDesc w;
  w.name = "w0";
  w.bytes = 60'000;
  w.kind = models::TensorKind::kWeight;
  w.consumed_by = {0};
  m.tensors.push_back(std::move(w));
  for (int i = 0; i < 2; ++i) {
    gpusim::KernelDesc k;
    k.name = "ls.k" + std::to_string(i);
    k.flops = 2'000'000;
    k.bytes = 100'000;
    k.blocks = 32;
    k.max_useful_tpcs = 4;
    k.min_tpcs = 2;
    m.kernels.push_back(std::move(k));
  }
  return m;
}

constexpr TimeNs kIso = 200 * kNsPerUs;

ServingSimBuilder batched_builder(BatchPolicy policy,
                                  TimeNs duration = 50 * kNsPerMs) {
  return ServingSimBuilder()
      .gpu(spec())
      .duration(duration)
      .default_ls_instances(2)
      .add_latency_sensitive(tiny_ls_model(), kIso)
      .batching(policy);
}

// ------------------------------------------------ batch latency model ----

TEST(BatchModel, SublinearScalingFromComputeMemoryFootprint) {
  const auto base = tiny_ls_model();
  const auto b4 = models::batched_variant(base, 4);
  ASSERT_EQ(b4.kernels.size(), base.kernels.size());
  // Compute scales linearly with the batch...
  EXPECT_EQ(b4.kernels[0].flops, 4 * base.kernels[0].flops);
  // ...but kernel 0's weight bytes are read once per batch, so its
  // traffic grows sublinearly; kernel 1 has no weights and scales x4.
  EXPECT_EQ(models::kernel_weight_bytes(base, 0), 60'000u);
  EXPECT_EQ(b4.kernels[0].bytes, 60'000u + 4 * (100'000u - 60'000u));
  EXPECT_EQ(b4.kernels[1].bytes, 4 * base.kernels[1].bytes);
  // The grid grows with the batch and the latency-optimal width ~sqrt(B).
  EXPECT_EQ(b4.kernels[0].blocks, 4 * base.kernels[0].blocks);
  EXPECT_DOUBLE_EQ(b4.kernels[0].max_useful_tpcs,
                   4.0 * base.kernels[0].max_useful_tpcs);
  EXPECT_EQ(b4.kernels[0].min_tpcs, 4u);  // ceil(2 * sqrt(4))
  // Activation tensors carry B samples; weights stay single-copy.
  EXPECT_EQ(b4.tensors[0].bytes, base.tensors[0].bytes);
  EXPECT_EQ(b4.batch, 4u);
}

TEST(BatchModel, BatchOfOneIsIdentity) {
  const auto base = tiny_ls_model();
  const auto b1 = models::batched_variant(base, 1);
  EXPECT_EQ(b1.kernels[0].flops, base.kernels[0].flops);
  EXPECT_EQ(b1.kernels[0].bytes, base.kernels[0].bytes);
  EXPECT_EQ(b1.kernels[0].min_tpcs, base.kernels[0].min_tpcs);
  EXPECT_EQ(b1.batch, base.batch);
}

// ------------------------------------------------------ assembly queue ----

TEST(Batching, AssemblyTimeoutFiresAPartialBatch) {
  const TimeNs timeout = 2 * kNsPerMs;
  FnController controller = greedy();
  auto sim = batched_builder(batch_up_to(8, timeout)).build(controller);
  // Three requests land well inside one assembly window — far fewer than
  // max_batch — and must still launch, as ONE batch, once the oldest has
  // waited out the timeout.
  const auto m = sim->run({{1000, 0}, {2000, 0}, {3000, 0}});
  const auto& t = m.tenants[0];
  EXPECT_EQ(t.served, 3u);
  ASSERT_EQ(t.batch_sizes.count(), 1u);  // one partial batch, not three
  EXPECT_DOUBLE_EQ(t.batch_sizes.raw()[0], 3.0);
  // Every latency includes the assembly wait: the first request waited
  // the full timeout before its batch even launched.
  EXPECT_GE(t.latency.raw()[0], static_cast<double>(timeout));
}

TEST(Batching, BatchSizeCapIsRespected) {
  FnController controller = greedy();
  auto sim = batched_builder(batch_up_to(4, 5 * kNsPerMs)).build(controller);
  // A dense burst: 19 near-simultaneous requests must cut into batches
  // of at most 4, full batches launching immediately (no timeout wait).
  std::vector<Request> burst;
  for (unsigned i = 0; i < 19; ++i) burst.push_back({1000 + i, 0});
  const auto m = sim->run(burst);
  const auto& t = m.tenants[0];
  EXPECT_EQ(t.served, 19u);
  ASSERT_GE(t.batch_sizes.count(), 5u);  // 4+4+4+4+3
  double largest = 0.0;
  for (const double s : t.batch_sizes.raw()) {
    EXPECT_LE(s, 4.0);
    largest = std::max(largest, s);
  }
  EXPECT_DOUBLE_EQ(largest, 4.0);  // the cap is reached, not undershot
}

TEST(Batching, ZeroTimeoutNeverWaits) {
  FnController controller = greedy();
  auto sim = batched_builder(batch_up_to(8, 0)).build(controller);
  const auto m = sim->run({{1000, 0}, {500 * kNsPerUs, 0}});
  const auto& t = m.tenants[0];
  EXPECT_EQ(t.served, 2u);
  ASSERT_EQ(t.batch_sizes.count(), 2u);  // batches of one: no assembly wait
  EXPECT_DOUBLE_EQ(t.batch_sizes.raw()[0], 1.0);
}

TEST(Batching, ChurnedTenantsPendingBatchDrains) {
  const TimeNs timeout = 30 * kNsPerMs;  // would outlive the run if waited
  EventQueue queue;  // external-driver mode: the test owns the clock
  FnController controller = greedy();
  auto sim = batched_builder(batch_up_to(8, timeout)).build(queue, controller);
  sim->begin();
  // Two requests enter the assembly queue; the timer is far away.
  sim->inject(0, 0);
  sim->inject(0, 0);
  EXPECT_EQ(sim->batch_queue_depth(0), 2u);
  // The tenant churns out: the half-assembled batch must launch NOW and
  // drain, not wait out a timer nothing will renew.
  sim->remove_tenant(0);
  EXPECT_EQ(sim->batch_queue_depth(0), 0u);  // assembly flushed to a job
  // A straggler routed before the removal (fleet dispatch hop) lands
  // after it: no companions are coming, so it must launch immediately as
  // a batch of one instead of waiting out the 30 ms assembly timer.
  sim->inject(0, 0);
  EXPECT_EQ(sim->batch_queue_depth(0), 0u);
  queue.run_all();
  EXPECT_EQ(sim->outstanding(0), 0u);  // fully drained
  const auto m = sim->finish();
  EXPECT_EQ(m.tenants[0].served, 3u);
  ASSERT_EQ(m.tenants[0].batch_sizes.count(), 2u);
  EXPECT_DOUBLE_EQ(m.tenants[0].batch_sizes.raw()[0], 2.0);
  EXPECT_DOUBLE_EQ(m.tenants[0].batch_sizes.raw()[1], 1.0);
}

TEST(Batching, OutstandingCountsRequestsNotInstanceSlots) {
  // With instances=2 and max_batch=4, 10 buffered requests must all be
  // visible to routers through outstanding(), wherever they sit
  // (assembly, closed-but-waiting batches, admitted jobs).
  FnController idle = tests::idle_controller();  // everything queues
  auto sim = batched_builder(batch_up_to(4, 10 * kNsPerMs)).build(idle);
  sim->begin();
  for (int i = 0; i < 10; ++i) sim->inject(0, 0);
  EXPECT_EQ(sim->outstanding(0), 10u);
  // 4+4 closed (2 admitted jobs hold the 2 instances), 2 assembling.
  EXPECT_EQ(sim->batch_queue_depth(0), 2u);
  EXPECT_TRUE(sim->batching_enabled(0));
  (void)sim->finish();
}

TEST(Batching, UnbatchedTenantIsABatchOfOne) {
  // max_batch 1 closes a batch of one per request on the batching path;
  // its assembly timeout never arms and it records no batch sizes, so
  // the default policy, {1, 0} and {1, 5 ms} run identically on a
  // fig17-like config (three LS services and two BE tasks, SGDRC).
  HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.ls_letters = "ABC";
  o.be_letters = "IJ";
  o.utilization = 1.45;
  o.burstiness = 0.35;
  o.duration = 60 * kNsPerMs;
  o.seed = 0xf17;
  const ServingHarness h(o);
  const auto digest = [&](BatchPolicy policy) {
    ServingSimBuilder b;
    b.gpu(o.spec).duration(o.duration).default_ls_instances(o.ls_instances);
    for (size_t i = 0; i < h.ls_count(); ++i) {
      b.add_latency_sensitive(h.ls_model_spt(i), h.isolated_latency(i))
          .batching(policy);
    }
    for (size_t i = 0; i < h.be_count(); ++i) {
      b.add_best_effort(h.be_model_spt(i));
    }
    SgdrcPolicy controller(o.spec);
    const auto m = b.build(controller)->run(h.trace());
    for (const auto* t : m.of_class(QosClass::kLatencySensitive)) {
      EXPECT_GT(t->served, 0u) << t->name;
      EXPECT_EQ(t->batch_sizes.count(), 0u) << t->name;
    }
    return workload::run_digest(m);
  };
  const std::string plain = digest(BatchPolicy{});
  EXPECT_EQ(digest(batch_up_to(1, 0)), plain);
  EXPECT_EQ(digest(batch_up_to(1, 5 * kNsPerMs)), plain);

  // Router-facing counts: with two instances and nothing launching, five
  // requests are two admitted batches of one plus three waiting ones.
  FnController idle = tests::idle_controller();
  auto sim = batched_builder(BatchPolicy{}).build(idle);
  sim->begin();
  for (int i = 0; i < 5; ++i) sim->inject(0, 0);
  EXPECT_FALSE(sim->batching_enabled(0));
  EXPECT_EQ(sim->outstanding(0), 5u);
  EXPECT_EQ(sim->batch_queue_depth(0), 3u);
  EXPECT_EQ(sim->batch_occupancy(0), 0.0);
  (void)sim->finish();
}

// ------------------------------------------- controller-facing signals ----

TEST(Batching, OccupancyIsVisibleToTheController) {
  double seen_occupancy = 0.0;
  size_t seen_depth = 0;
  FnController controller([&](const SimView& view) {
    seen_occupancy = std::max(seen_occupancy, view.batch_occupancy(0));
    seen_depth = std::max(seen_depth, view.batch_queue_depth(0));
    return greedy_plan(view);
  });
  auto sim = batched_builder(batch_up_to(4, 1 * kNsPerMs)).build(controller);
  std::vector<Request> burst;
  for (unsigned i = 0; i < 12; ++i) burst.push_back({1000 + i * 100, 0});
  const auto m = sim->run(burst);
  EXPECT_EQ(m.tenants[0].served, 12u);
  EXPECT_GE(seen_occupancy, 2.0);  // real multi-request batches launched
  EXPECT_GE(seen_depth, 1u);
}

TEST(Batching, BatchAwareControllerWidensThenNarrowsTheReserve) {
  control::BatchAwareSgdrc controller(spec());
  EventQueue queue;  // external-driver mode: observe the floor mid-run
  auto sim = batched_builder(batch_up_to(8, 1 * kNsPerMs), 100 * kNsPerMs)
                 .build(queue, controller);
  sim->begin();
  EXPECT_EQ(controller.current_floor(), 0u);  // nothing batched yet
  // A dense burst: batches assemble and launch while more keep arriving.
  for (unsigned i = 0; i < 24; ++i) {
    queue.run_until(1000 + i * 200);
    sim->inject(0, queue.now());
  }
  // Mid-burst (batches admitted / queued, kernels in flight): observed
  // occupancy >= kMinOccupancy, so the reserve floor widened to roughly
  // base min_tpcs * sqrt(occupancy) (never the whole device).
  EXPECT_GT(controller.current_floor(), 0u);
  EXPECT_LT(controller.current_floor(), spec().num_tpcs);

  // Drain completely: with no queued or in-flight batch work left, the
  // wrapper narrows the floor back to 0 — plain SGDRC exactly.
  queue.run_all();
  EXPECT_EQ(sim->outstanding(0), 0u);
  EXPECT_EQ(controller.current_floor(), 0u);
  const auto m = sim->finish();
  EXPECT_EQ(m.tenants[0].served, 24u);
}

TEST(Batching, OccupancyWindowFollowsTheWorkload) {
  // The occupancy signal must track *recent* batches, not the lifetime
  // mean: a surge of full batches followed by singleton traffic decays
  // back toward 1, so the controller narrows instead of holding the
  // surge-era reservation forever.
  FnController controller = greedy();
  auto sim =
      batched_builder(batch_up_to(4, 500 * kNsPerUs), 200 * kNsPerMs)
          .build(controller);
  std::vector<Request> trace;
  for (unsigned i = 0; i < 32; ++i) trace.push_back({1000 + i, 0});  // surge
  for (unsigned i = 0; i < 40; ++i) {  // then well-spaced singletons
    trace.push_back({20 * kNsPerMs + i * 3 * kNsPerMs, 0});
  }
  const auto m = sim->run(trace);
  EXPECT_EQ(m.tenants[0].served, 72u);
  // 40 singleton batches flushed the 16-entry window: the lifetime mean
  // is well above 1, the windowed signal is back at 1.
  EXPECT_DOUBLE_EQ(sim->batch_occupancy(0), 1.0);
  EXPECT_GT(m.tenants[0].batch_sizes.mean(), 1.2);
}

// ----------------------------------------------------------- determinism ----

TEST(Batching, RerunsAreBitIdenticalWithBatchingEnabled) {
  const auto run_once = [] {
    auto controller = baselines::make_system("SGDRC (Batch-aware)", spec());
    auto sim =
        batched_builder(batch_up_to(4, 1 * kNsPerMs), 40 * kNsPerMs)
            .seed(0xba7c)
            .build(*controller);
    std::vector<Request> trace;
    for (unsigned i = 0; i < 30; ++i) {
      trace.push_back({1000 + i * 777'777 % (30 * kNsPerMs), 0});
    }
    std::sort(trace.begin(), trace.end(),
              [](const Request& a, const Request& b) {
                return a.arrival < b.arrival;
              });
    return sim->run(trace);
  };
  const auto a = run_once();
  EXPECT_GT(a.tenants[0].batch_sizes.count(), 0u);
  EXPECT_EQ(workload::run_digest(a), workload::run_digest(run_once()));
}

}  // namespace
}  // namespace sgdrc::core
