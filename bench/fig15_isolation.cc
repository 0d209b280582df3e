// Fig. 15 — evaluation of VRAM channel isolation on both GPUs:
//  (a) CDF of LS kernels' runtime speedup after applying channel
//      isolation, co-executing with memory-intensive BE kernels (SMs
//      evenly partitioned via smctrl in both groups). Paper: +28.7%
//      mean on the P40, +47.5% on the A2000.
//  (b) CDF of extra registers used by the transformed kernels. Paper:
//      ~80% need none, >90% fewer than 5.
#include <cstdio>
#include <functional>
#include <string>

#include "coloring/transformer.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/sgdrc_policy.h"
#include "gpusim/executor.h"
#include "models/zoo.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;

namespace {

// A memory-intensive BE kernel (high DRAM throughput, §9.1.1).
KernelDesc be_thrasher(const GpuSpec& spec) {
  KernelDesc k;
  k.name = "be.memhog";
  k.flops = 1000;
  k.bytes = static_cast<uint64_t>(spec.vram_gbps * 1e6 * 50.0);
  k.blocks = 8192;
  k.max_useful_tpcs = 64;
  k.preemptible = true;
  return k;
}

// Runtime of `victim` co-executing with the thrasher, SMs split evenly;
// `isolate` applies the (1-ChBE)/ChBE channel partition of §6.
TimeNs corun_runtime(const GpuSpec& spec, const KernelDesc& victim,
                     bool isolate) {
  EventQueue q;
  GpuExecutor exec(spec, q);
  const KernelDesc hog = be_thrasher(spec);
  const unsigned half = spec.num_tpcs / 2;
  const ChannelSet all_ch = all_channels(spec.num_channels);
  const ChannelSet be_ch =
      isolate ? core::be_channel_partition(spec, 1.0 / 3.0) : all_ch;
  const ChannelSet ls_ch = isolate ? (all_ch & ~be_ch) : all_ch;

  // Closed-loop thrasher on the lower half.
  std::function<void()> relaunch = [&]() {
    exec.launch({&hog, {tpc_range(0, spec.num_tpcs - half), be_ch}},
                [&](GpuExecutor::LaunchId, TimeNs) { relaunch(); });
  };
  relaunch();

  TimeNs start = 0, done = 0;
  Samples lat;
  std::function<void()> run_victim = [&]() {
    if (lat.count() >= 30) return;
    start = q.now();
    exec.launch({&victim, {tpc_range(spec.num_tpcs - half, half), ls_ch}},
                [&](GpuExecutor::LaunchId, TimeNs t) {
                  lat.add(static_cast<double>(t - start));
                  done = t;
                  run_victim();
                });
  };
  run_victim();
  q.run_until(4 * kNsPerSec);
  return static_cast<TimeNs>(lat.p99());
}

void isolation_speedups(const GpuSpec& spec) {
  Samples speedup;
  for (const char c : std::string("ABCDEFGH")) {
    const auto m = models::make_model(c);
    for (const auto& k : m.kernels) {
      const TimeNs with = corun_runtime(spec, k, true);
      const TimeNs without = corun_runtime(spec, k, false);
      speedup.add(static_cast<double>(without) /
                      static_cast<double>(with) -
                  1.0);
    }
  }
  std::printf("  %s: mean speedup %+.1f%%, max %+.1f%%\n", spec.name.c_str(),
              100.0 * speedup.mean(), 100.0 * speedup.max());
  TextTable t({"percentile", "speedup"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    t.add_row({TextTable::num(p, 0) + "%",
               TextTable::pct(speedup.percentile(p))});
  }
  t.print();
}

void register_cdf(const GpuSpec& spec) {
  EventQueue q;
  GpuExecutor exec(spec, q);
  Samples regs;
  for (const char c : std::string("ABCDEFGHIJK")) {
    const auto m = models::make_model(c);
    for (const auto& k : m.kernels) {
      const TimeNs iso =
          exec.solo_runtime(k, spec.num_tpcs, spec.num_channels, false);
      regs.add(coloring::transform_kernel(k, iso).extra_registers);
    }
  }
  std::printf("  %s: %.1f%% zero extra, %.1f%% fewer than 5, max %.0f\n",
              spec.name.c_str(), 100.0 * regs.fraction_at_most(0.0).value(),
              100.0 * regs.fraction_at_most(4.0).value(), regs.max());
}

}  // namespace

int main() {
  std::printf(
      "Fig. 15a — LS kernel p99 speedup from VRAM channel isolation\n"
      "(co-executed with memory-intensive BE kernels, even SM split)\n\n");
  for (const auto& spec : {gpusim::tesla_p40(), gpusim::rtx_a2000()}) {
    isolation_speedups(spec);
  }
  std::printf(
      "\nPaper: isolation reduces p99 by 28.7%% (P40) / 47.5%% (A2000) on\n"
      "average, up to 135%% / 106%%.\n");

  std::printf("\nFig. 15b — extra registers from the SPT transform\n\n");
  for (const auto& spec : {gpusim::tesla_p40(), gpusim::rtx_a2000()}) {
    register_cdf(spec);
  }
  std::printf(
      "\nPaper: 80.4%% / 80.0%% of kernels need no extra register; 93.8%% /\n"
      "91.2%% use fewer than 5; outliers are tiny (<0.01 ms) kernels.\n");
  return 0;
}
