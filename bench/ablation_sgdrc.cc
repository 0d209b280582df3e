// Ablations of SGDRC's tunables (SgdrcOptions), one table each, on the
// RTX A2000 under heavy load:
//  * ChBE sweep — the BE channel share trades LS tail latency against BE
//    throughput (§6 fixes 1/3);
//  * sliding-window length — SM reservation depth (§7.1);
//  * reserve-decay interval — how fast the SM reservation ebbs once LS
//    demand falls (the tide's inertia).
#include <cstdio>

#include "common/table.h"
#include "core/harness.h"
#include "core/sgdrc_policy.h"

using namespace sgdrc;
using namespace sgdrc::core;

int main() {
  HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.utilization = 1.45;
  o.load_scale = 0.75;
  o.burstiness = 0.35;
  o.duration = 1 * kNsPerSec;
  o.seed = 0xab1a;
  const ServingHarness h(o);

  std::printf("Ablation 1 — ChBE (BE channel share), RTX A2000\n\n");
  {
    TextTable t({"ChBE", "SLO att.", "BE samples/s", "overall/s"});
    for (const double ch : {1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0, 2.0 / 3.0}) {
      SgdrcOptions opt;
      opt.ch_be = ch;
      SgdrcPolicy p(o.spec, opt);
      const auto m = h.run(p, true);
      t.add_row({TextTable::num(ch, 2), TextTable::pct(m.mean_attainment()),
                 TextTable::num(m.be_throughput(), 1),
                 TextTable::num(m.overall_throughput(), 0)});
    }
    t.print();
  }

  std::printf("\nAblation 2 — sliding-window length (§7.1)\n\n");
  {
    TextTable t({"window", "SLO att.", "BE samples/s", "evictions"});
    for (const size_t w : {1ul, 4ul, 8ul, 16ul}) {
      SgdrcOptions opt;
      opt.sliding_window = w;
      SgdrcPolicy p(o.spec, opt);
      const auto m = h.run(p, true);
      uint64_t ev = 0;
      for (const auto* b : m.of_class(workload::QosClass::kBestEffort)) {
        ev += b->evictions;
      }
      t.add_row({std::to_string(w), TextTable::pct(m.mean_attainment()),
                 TextTable::num(m.be_throughput(), 1), std::to_string(ev)});
    }
    t.print();
  }

  std::printf("\nAblation 3 — reserve decay (tide inertia)\n\n");
  {
    TextTable t({"decay interval", "SLO att.", "BE samples/s"});
    for (const TimeNs d : {20 * kNsPerUs, 100 * kNsPerUs, 500 * kNsPerUs,
                           2000 * kNsPerUs}) {
      SgdrcOptions opt;
      opt.reserve_decay_interval = d;
      SgdrcPolicy p(o.spec, opt);
      const auto m = h.run(p, true);
      t.add_row({format_time(d), TextTable::pct(m.mean_attainment()),
                 TextTable::num(m.be_throughput(), 1)});
    }
    t.print();
  }
  return 0;
}
