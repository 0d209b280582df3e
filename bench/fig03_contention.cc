// Fig. 3 — resource contention in GPU sharing (RTX A2000 testbed).
//  (a) intra-SM conflicts: victim matmul vs compute / compute+L1
//      interference tasks sharing the same SMs;
//  (b) inter-SM conflicts: victim matmul vs VRAM-thrashing tasks on
//      disjoint SMs (shared channels).
// The victim's p99 latency grows with interferer count in both cases.
#include <cstdio>
#include <functional>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/table.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;

namespace {

KernelDesc matmul_victim() {
  KernelDesc k;
  k.name = "victim.matmul";
  k.flops = 400'000'000;  // ~0.65ms on 1 TPC of the A2000
  k.bytes = 6'000'000;
  k.blocks = 1024;
  k.max_useful_tpcs = 2.0;
  return k;
}

KernelDesc compute_interferer(bool with_l1) {
  KernelDesc k;
  k.name = with_l1 ? "interf.comp+l1c" : "interf.comp";
  k.flops = 4'000'000'000ull;
  // The L1-cache interference task also streams data, amplifying the
  // intra-SM pressure (§2.2's "L1C" series).
  k.bytes = with_l1 ? 400'000'000ull : 4'000'000ull;
  k.blocks = 4096;
  k.max_useful_tpcs = 64;
  return k;
}

KernelDesc vram_interferer() {
  KernelDesc k;
  k.name = "interf.vram";
  k.flops = 1000;
  k.bytes = 2'000'000'000ull;  // continuously read/write VRAM (L2 misses)
  k.blocks = 4096;
  k.max_useful_tpcs = 64;
  return k;
}

// p99 of the victim across repeated executions with n interferers.
double victim_p99_ms(const GpuSpec& spec, const KernelDesc& victim,
                     const KernelDesc& interferer, unsigned n,
                     bool share_sms) {
  EventQueue q;
  GpuExecutor exec(spec, q);
  // Interferers run "forever" (relaunched on completion). The relaunch
  // closures outlive the whole simulation.
  std::vector<std::function<void()>> relaunchers(n);
  for (unsigned i = 0; i < n; ++i) {
    const TpcMask mask =
        share_sms ? tpc_range(0, 2)  // same SMs as the victim
                  : tpc_range(2 + 2 * (i % 5), 2);
    relaunchers[i] = [&exec, &interferer, mask, &relaunchers, i]() {
      exec.launch({&interferer, Allocation::on_tpcs(mask)},
                  [&relaunchers, i](GpuExecutor::LaunchId, TimeNs) {
                    relaunchers[i]();
                  });
    };
    relaunchers[i]();
  }
  Samples lat;
  TimeNs start = 0;
  std::function<void()> run_victim = [&]() {
    if (lat.count() >= 50) return;
    start = q.now();
    exec.launch({&victim, Allocation::on_tpcs(tpc_range(0, 2))},
                [&](GpuExecutor::LaunchId, TimeNs t) {
                  lat.add(to_ms(t - start));
                  run_victim();
                });
  };
  run_victim();
  q.run_until(2 * kNsPerSec);
  return lat.empty() ? 0.0 : lat.p99();
}

}  // namespace

int main() {
  const GpuSpec spec = rtx_a2000();
  const KernelDesc victim = matmul_victim();

  std::printf("Fig. 3a — intra-SM conflicts (victim p99, ms; RTX A2000)\n\n");
  {
    TextTable t({"# interference tasks", "Comp.", "Comp. + L1C"});
    const KernelDesc comp = compute_interferer(false);
    const KernelDesc l1c = compute_interferer(true);
    for (unsigned n = 0; n <= 4; ++n) {
      t.add_row({std::to_string(n),
                 TextTable::num(victim_p99_ms(spec, victim, comp, n, true), 3),
                 TextTable::num(victim_p99_ms(spec, victim, l1c, n, true), 3)});
    }
    t.print();
  }

  std::printf(
      "\nFig. 3b — inter-SM conflicts (disjoint SMs, shared channels)\n\n");
  {
    TextTable t({"# interference tasks", "victim p99 (ms)"});
    const KernelDesc vram = vram_interferer();
    for (unsigned n = 0; n <= 4; ++n) {
      t.add_row({std::to_string(n), TextTable::num(victim_p99_ms(
                                        spec, victim, vram, n, false), 3)});
    }
    t.print();
  }
  std::printf(
      "\nShape check: p99 grows monotonically with interferer count; the\n"
      "L1C variant exceeds pure compute; VRAM interferers degrade the\n"
      "victim without sharing a single SM (the conflict coloring removes).\n");
  return 0;
}
