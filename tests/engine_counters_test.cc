// Engine work counters (EventQueue pushes, events fired and tombstones
// popped; GpuExecutor rate recomputes and runtime evaluations) pinned
// exactly on one fixed single-device SGDRC cell. The counters depend
// only on the simulated event stream, never on the host, so a change to
// any of them is an algorithmic change to explain, not noise.
#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/registry.h"
#include "common/event_queue.h"
#include "core/harness.h"
#include "core/serving.h"
#include "workload/metrics.h"

namespace sgdrc {
namespace {

TEST(EngineCounters, PinnedOnOneCell) {
  // The Fig. 17 heavy mix on an A2000 (three LS services, two rotating BE
  // tenants), shortened to 60 ms, run as ServingHarness::run(_, true)
  // runs it but on a queue the test owns.
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
  const auto controller = baselines::make_system("SGDRC", o.spec);
  EventQueue q;
  const auto sim = b.build(q, *controller);
  const workload::ServingMetrics m = sim->run(h.trace());
  const gpusim::GpuExecutor& exec = sim->exec();

  EXPECT_EQ(workload::run_digest(m), "04b6cea493a7dc0d");
  EXPECT_EQ(q.fired(), 5756u);
  EXPECT_EQ(q.pushes(), 5822u);
  EXPECT_EQ(q.tombstones_popped(), 65u);
  EXPECT_EQ(exec.launches(), 5662u);
  EXPECT_EQ(exec.completions(), 5610u);
  EXPECT_EQ(exec.evictions(), 40u);
  // One recompute per completion or eviction, whatever its callback
  // launched, plus one per launch made outside a callback (26 here). A
  // recompute per change made 11312 (109812 runtime evaluations) on this
  // cell, and 11444 pushes leaving 5687 tombstones.
  EXPECT_EQ(exec.recomputes(), 5676u);
  EXPECT_EQ(exec.runtime_evals(), 57851u);
}

}  // namespace
}  // namespace sgdrc
