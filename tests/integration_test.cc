// Cross-module integration tests: the full SGDRC story on one small GPU —
// reverse-engineer the hash with timing probes, feed the *learned* lookup
// table (never the oracle) into the driver's colored pool, and verify that
// tenants end up channel-isolated through the real translate() path.
// Plus end-to-end serving determinism and workload-generator properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "baselines/baseline_policies.h"
#include "coloring/translate.h"
#include "core/harness.h"
#include "core/sgdrc_policy.h"
#include "driver/uvm_pool.h"
#include "gpusim/device.h"
#include "reveng/lut.h"
#include "reveng/pipeline.h"
#include "workload/trace.h"

namespace sgdrc {
namespace {

using gpusim::GpuDevice;
using gpusim::kPartitionBytes;

TEST(FullStack, LearnedLutDrivesChannelIsolation) {
  // 1. Crack the hash from timing probes only.
  GpuDevice dev(gpusim::test_gpu(), 0x1269);
  reveng::PipelineOptions popt;
  popt.samples = 5000;
  popt.hidden = {64, 32};
  popt.epochs = 50;
  reveng::HashCracker cracker(dev, popt);
  const auto report = cracker.run();
  ASSERT_GT(report.holdout_accuracy, 0.95);

  // 2. Build a LUT with the DNN and align its discovered ids to two
  //    disjoint color sets (the runtime only needs consistency).
  const uint64_t pool_bytes = 16ull << 20;
  // Frames come from anywhere in VRAM, so cover the whole space.
  const auto lut =
      cracker.build_lut(0, dev.spec().vram_bytes);

  // 3. Drive the UVM pool with the learned labeler.
  driver::UvmPoolOptions uopt;
  uopt.pool_bytes = pool_bytes;
  uopt.granularity_kib = 2;
  uopt.channel_of = [&lut](gpusim::PhysAddr pa) {
    return lut.channel_of(pa);
  };
  driver::UvmMemoryPool pool(dev, uopt);

  // 4. Two tenants on complementary discovered-channel sets.
  const gpusim::ChannelSet set_a = gpusim::channel_bit(0) |
                                   gpusim::channel_bit(1);
  const gpusim::ChannelSet set_b =
      gpusim::all_channels(dev.spec().num_channels) & ~set_a;
  auto buf_a = pool.allocate(1ull << 20, set_a);
  auto buf_b = pool.allocate(1ull << 20, set_b);

  // 5. Isolation through the *silicon* truth: the sets of true channels
  //    the two tenants touch must be disjoint (whatever the discovered
  //    numbering is).
  std::set<unsigned> true_a, true_b;
  for (uint64_t off = 0; off < 1ull << 20; off += kPartitionBytes) {
    true_a.insert(dev.oracle().channel_of(
        dev.pa_of(coloring::colored_va(buf_a, off))));
    true_b.insert(dev.oracle().channel_of(
        dev.pa_of(coloring::colored_va(buf_b, off))));
  }
  for (const unsigned c : true_a) {
    EXPECT_EQ(true_b.count(c), 0u) << "channel " << c << " shared";
  }
  pool.release(buf_a);
  pool.release(buf_b);
}

TEST(FullStack, ServingIsDeterministic) {
  auto run_once = [] {
    core::HarnessOptions o;
    o.spec = gpusim::test_gpu();
    o.ls_letters = "AB";
    o.be_letters = "I";
    o.utilization = 0.4;
    o.duration = 200 * kNsPerMs;
    o.seed = 77;
    core::ServingHarness h(o);
    core::SgdrcPolicy p(o.spec);
    return h.run(p, true);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.ls_goodput(), b.ls_goodput());
  EXPECT_EQ(a.be_throughput(), b.be_throughput());
  const auto ls_a = a.of_class(workload::QosClass::kLatencySensitive);
  const auto ls_b = b.of_class(workload::QosClass::kLatencySensitive);
  ASSERT_EQ(ls_a.size(), ls_b.size());
  for (size_t i = 0; i < ls_a.size(); ++i) {
    EXPECT_EQ(ls_a[i]->served, ls_b[i]->served);
    EXPECT_DOUBLE_EQ(ls_a[i]->p99_ms(), ls_b[i]->p99_ms());
  }
}

TEST(FullStack, SptModelsCarryTheOverheadIntoServing) {
  // The same policy over transformed vs plain models: transformed runs
  // pay the §9.1.2 overhead, so LS goodput can only go down (slightly).
  core::HarnessOptions o;
  o.spec = gpusim::test_gpu();
  o.ls_letters = "A";
  o.be_letters = "I";
  o.utilization = 0.3;
  o.duration = 200 * kNsPerMs;
  o.seed = 5;
  core::ServingHarness h(o);
  core::SgdrcStaticPolicy p1(o.spec), p2(o.spec);
  const auto plain = h.run(p1, false);
  const auto spt = h.run(p2, true);
  EXPECT_LE(spt.ls_goodput(), plain.ls_goodput() + 1.0);
}

// ------------------------------------------------------------- Trace ----

TEST(Trace, ScaleHalvesTheLoad) {
  workload::TraceOptions t;
  t.services = 4;
  t.duration = 4 * kNsPerSec;
  t.per_service_rates.assign(4, 100.0);
  t.seed = 9;
  t.scale = 1.0;
  const auto heavy = workload::generate_apollo_like_trace(t);
  t.scale = 0.5;
  const auto light = workload::generate_apollo_like_trace(t);
  EXPECT_NEAR(static_cast<double>(light.size()),
              static_cast<double>(heavy.size()) / 2.0,
              static_cast<double>(heavy.size()) * 0.15);
}

TEST(Trace, MeanRateMatchesRequest) {
  workload::TraceOptions t;
  t.services = 2;
  t.duration = 10 * kNsPerSec;
  t.per_service_rates.assign(2, 150.0);
  t.seed = 10;
  const auto trace = workload::generate_apollo_like_trace(t);
  EXPECT_NEAR(static_cast<double>(trace.size()), 2 * 150 * 10, 300);
}

TEST(Trace, SortedAndWithinWindow) {
  workload::TraceOptions t;
  t.services = 3;
  t.duration = 1 * kNsPerSec;
  t.per_service_rates.assign(3, 200.0);
  t.seed = 11;
  const auto trace = workload::generate_apollo_like_trace(t);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
  for (const auto& r : trace) {
    EXPECT_LT(r.arrival, t.duration);
    EXPECT_LT(r.service, 3u);
  }
}

TEST(Trace, PerServiceRatesOverrideTheDefault) {
  workload::TraceOptions t;
  t.services = 2;
  t.duration = 10 * kNsPerSec;
  t.per_service_rates = {400.0, 50.0};
  t.seed = 12;
  const auto trace = workload::generate_apollo_like_trace(t);
  size_t s0 = 0, s1 = 0;
  for (const auto& r : trace) (r.service == 0 ? s0 : s1)++;
  EXPECT_GT(s0, 6 * s1);
}

TEST(Trace, BurstinessConcentratesArrivals) {
  // With high burstiness, many more requests land within 2ms of a frame
  // tick than with pure Poisson arrivals.
  auto frame_fraction = [](double burstiness) {
    workload::TraceOptions t;
    t.services = 1;
    t.duration = 10 * kNsPerSec;
    t.per_service_rates = {300.0};
    t.burstiness = burstiness;
    t.seed = 13;
    const auto trace = workload::generate_apollo_like_trace(t);
    // Phase-of-frame histogram (1 ms bins): bursty traces concentrate in
    // a few bins around the (per-service random) frame phase.
    std::vector<size_t> bins(t.frame_interval / kNsPerMs, 0);
    for (const auto& r : trace) {
      ++bins[(r.arrival % t.frame_interval) / kNsPerMs];
    }
    const size_t peak = *std::max_element(bins.begin(), bins.end());
    return static_cast<double>(peak) / static_cast<double>(trace.size());
  };
  EXPECT_GT(frame_fraction(0.9), frame_fraction(0.05) + 0.2);
}

// ----------------------------------------------------- Policy details ----

TEST(SgdrcPolicyDetail, ChannelPartitionsCoverAndDisjoint) {
  for (const auto& spec : {gpusim::tesla_p40(), gpusim::rtx_a2000(),
                           gpusim::test_gpu()}) {
    core::SgdrcPolicy p(spec);
    EXPECT_EQ(p.be_channels() & p.ls_channels(), 0u) << spec.name;
    EXPECT_EQ(p.be_channels() | p.ls_channels(),
              gpusim::all_channels(spec.num_channels))
        << spec.name;
    // Whole groups only (colorable at the group granularity, Tab. 4).
    EXPECT_EQ(gpusim::channel_count(p.be_channels()) %
                  spec.channel_group_size,
              0u)
        << spec.name;
  }
}

TEST(SgdrcPolicyDetail, MonopolisationWithoutLsLoad) {
  // With no LS requests at all, SGDRC's BE task must run the GPU flat out
  // — same throughput as plain multi-streaming within a small margin.
  core::HarnessOptions o;
  o.spec = gpusim::test_gpu();
  o.ls_letters = "A";
  o.be_letters = "I";
  o.utilization = 0.4;
  o.duration = 300 * kNsPerMs;
  o.seed = 21;
  core::ServingHarness h(o);

  // An "empty" trace: run() only replays requests from the harness trace;
  // we emulate zero LS load by scaling the utilisation to ~nothing.
  core::HarnessOptions o2 = o;
  o2.utilization = 0.001;
  core::ServingHarness quiet(o2);
  core::SgdrcPolicy sgdrc(o.spec);
  baselines::MultiStreamPolicy multi;
  const auto ms = quiet.run(sgdrc, true);
  const auto mm = quiet.run(multi, false);
  EXPECT_GT(ms.be_throughput(), 0.85 * mm.be_throughput());
}

}  // namespace
}  // namespace sgdrc
