// Engine work counters (EventQueue pushes, events fired and tombstones
// popped; GpuExecutor rate recomputes and runtime evaluations) pinned
// exactly on three fixed single-device cells: SGDRC, Multi-streaming,
// where every kernel shares every TPC and channel, and SGDRC on a
// 256 MiB device that evicts and reloads weights, where the memory
// counters and the page table's size are pinned too. The counters depend
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
  // Memory cells only: summed over tenants, and the VPNs the device's
  // page table covers at the end of the run.
  uint64_t weight_loads = 0, weight_evictions = 0, paged_requests = 0;
  uint64_t table_vpns = 0;
};

/// The Fig. 17 heavy mix on an A2000 (three LS services, two rotating BE
/// tenants), shortened to 60 ms, run under `system` as
/// ServingHarness::run(_, true) runs it but on a queue the test owns,
/// with `mem` as the device's memory options.
Counters run_cell(const std::string& system,
                  const memory::MemoryOptions& mem = {}) {
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
      .slo_multiplier(4.0)  // three LS services + one rotating BE slot
      .memory(mem);
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
  Counters c{workload::run_digest(m), q.fired(),          q.pushes(),
             q.tombstones_popped(),   exec.launches(),    exec.completions(),
             exec.evictions(),        exec.recomputes(),  exec.runtime_evals()};
  for (const auto& t : m.tenants) {
    c.weight_loads += t.weight_loads;
    c.weight_evictions += t.weight_evictions;
    c.paged_requests += t.paged_requests;
  }
  if (sim->memory()) c.table_vpns = sim->memory()->page_table().table_vpns();
  return c;
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

TEST(EngineCounters, PinnedOnMemoryCell) {
  // scenario-catalog's model-zoo memory: 256 MiB, oversubscribed. The
  // two BE models (218.5 and 108.6 MiB) cannot both stay resident, so
  // the rotation evicts and reloads their weights; no replica pages
  // within the 60 ms.
  memory::MemoryOptions mem;
  mem.enabled = true;
  mem.vram_bytes_override = 256ull << 20;
  mem.oversubscribe = true;
  const Counters c = run_cell("SGDRC", mem);
  EXPECT_EQ(c.digest, "7c1c26967e839875");
  EXPECT_EQ(c.fired, 5790u);
  EXPECT_EQ(c.launches, 5692u);
  EXPECT_EQ(c.weight_loads, 4u);
  EXPECT_EQ(c.weight_evictions, 5u);
  EXPECT_EQ(c.paged_requests, 0u);
  // Every replica reserves one VA range at registration and each reload
  // maps into it, so the table covers VA page 0 plus the five models'
  // 350.3 MiB of weights (89,678 pages) and no more, however often the
  // weights reload.
  EXPECT_EQ(c.table_vpns, 89679u);
}

}  // namespace
}  // namespace sgdrc
