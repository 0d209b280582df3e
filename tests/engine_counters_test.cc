// Engine work counters (EventQueue pushes, events fired and tombstones
// popped; GpuExecutor rate recomputes and runtime evaluations) pinned
// exactly on two fixed single-device cells: SGDRC, and Multi-streaming,
// where every kernel shares every TPC and channel. The counters depend
// only on the simulated event stream, never on the host, so a change to
// any of them is an algorithmic change to explain, not noise.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baselines/registry.h"
#include "common/event_queue.h"
#include "core/harness.h"
#include "core/serving.h"
#include "workload/metrics.h"

namespace sgdrc {
namespace {

struct Counters {
  std::string digest;
  uint64_t fired, pushes, tombstones_popped;
  uint64_t launches, completions, evictions, recomputes, runtime_evals;
};

/// The Fig. 17 heavy mix on an A2000 (three LS services, two rotating BE
/// tenants), shortened to 60 ms, run under `system` as
/// ServingHarness::run(_, true) runs it but on a queue the test owns.
Counters run_cell(const std::string& system) {
  core::HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.ls_letters = "ABC";
  o.be_letters = "IJ";
  o.utilization = 1.45;
  o.burstiness = 0.35;
  o.duration = 60 * kNsPerMs;
  o.seed = 0xf17;
  const core::ServingHarness h(o);
  core::ServingSimBuilder b;
  b.gpu(o.spec)
      .executor_params(o.exec_params)
      .default_ls_instances(o.ls_instances)
      .duration(o.duration)
      .best_effort_mode(o.be_mode)
      .slo_multiplier(4.0);  // three LS services + one rotating BE slot
  for (size_t i = 0; i < h.ls_count(); ++i) {
    b.add_latency_sensitive(h.ls_model_spt(i), h.isolated_latency(i));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    b.add_best_effort(h.be_model_spt(i));
  }
  const auto controller = baselines::make_system(system, o.spec);
  EventQueue q;
  const auto sim = b.build(q, *controller);
  const workload::ServingMetrics m = sim->run(h.trace());
  const gpusim::GpuExecutor& exec = sim->exec();
  return {workload::run_digest(m), q.fired(),          q.pushes(),
          q.tombstones_popped(),   exec.launches(),    exec.completions(),
          exec.evictions(),        exec.recomputes(),  exec.runtime_evals()};
}

TEST(EngineCounters, PinnedOnOneCell) {
  const Counters c = run_cell("SGDRC");
  EXPECT_EQ(c.digest, "04b6cea493a7dc0d");
  EXPECT_EQ(c.fired, 5756u);
  EXPECT_EQ(c.pushes, 5822u);
  EXPECT_EQ(c.tombstones_popped, 65u);
  EXPECT_EQ(c.launches, 5662u);
  EXPECT_EQ(c.completions, 5610u);
  EXPECT_EQ(c.evictions, 40u);
  // One recompute per completion or eviction, whatever its callback
  // launched, plus one per launch made outside a callback (26 here). A
  // recompute per change made 11312 (109812 runtime evaluations) on this
  // cell, and 11444 pushes leaving 5687 tombstones.
  EXPECT_EQ(c.recomputes, 5676u);
  EXPECT_EQ(c.runtime_evals, 57851u);
}

TEST(EngineCounters, PinnedOnFullOverlapCell) {
  // Multi-streaming grants every kernel the whole device, so each change
  // touches every TPC and channel and every co-runner's rate.
  const Counters c = run_cell("Multi-streaming");
  EXPECT_EQ(c.digest, "551373373e089742");
  EXPECT_EQ(c.fired, 5222u);
  EXPECT_EQ(c.pushes, 5251u);
  EXPECT_EQ(c.tombstones_popped, 28u);
  EXPECT_EQ(c.launches, 5129u);
  EXPECT_EQ(c.completions, 5116u);
  EXPECT_EQ(c.evictions, 0u);
  // 5116 completions plus 29 launches made outside a callback; about 12
  // kernels run per recompute.
  EXPECT_EQ(c.recomputes, 5145u);
  EXPECT_EQ(c.runtime_evals, 62766u);
}

}  // namespace
}  // namespace sgdrc
