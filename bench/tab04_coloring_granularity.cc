// Tab. 4 / §A.3 — coloring granularities: minimum (channel partition
// size), maximum (# contiguous channels), and the granularity-selection
// rule for 2^N vs non-power-of-two channel allocations.
#include <cstdio>

#include "coloring/rules.h"
#include "common/table.h"
#include "gpusim/gpu_spec.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;

int main() {
  std::printf("Tab. 4 — coloring granularities\n\n");
  TextTable t({"GPU", "Min gran. (KiB)", "Max gran. (KiB)",
               "# contiguous channels", "# channels"});
  for (const GpuSpec& s : {gtx1080(), tesla_p40(), rtx_a2000()}) {
    t.add_row({s.name, std::to_string(s.min_coloring_granularity_kib()),
               std::to_string(s.max_coloring_granularity_kib()),
               std::to_string(s.channel_group_size),
               std::to_string(s.num_channels)});
  }
  t.print();

  std::printf("\n§A.3 rule — granularity for a task owning N channels\n\n");
  TextTable r({"GPU", "N=1", "N=2", "N=3", "N=4", "N=6"});
  for (const GpuSpec& s : {tesla_p40(), rtx_a2000()}) {
    std::vector<std::string> row{s.name};
    for (const unsigned n : {1u, 2u, 3u, 4u, 6u}) {
      if (n > s.num_channels) {
        row.push_back("-");
      } else {
        row.push_back(std::to_string(coloring::granularity_for(s, n)) +
                      " KiB");
      }
    }
    r.add_row(row);
  }
  r.print();
  std::printf(
      "\nRule check: 2^N channels -> min(2^N, max) KiB; non-power-of-two\n"
      "allocations can only be colored at 1 KiB.\n");
  return 0;
}
