// Tab. 1 — VRAM size, bus width and channel count of the three GPUs, with
// the cross-validation rule (#channels = bus width / per-GDDR width) and
// the simulated parts' measured channel counts (discovered by probing,
// matching the PCB-photo count of Fig. 18).
#include <cstdio>

#include "common/table.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/hash_mapping.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;

int main() {
  std::printf("Tab. 1 — VRAM size, bus width, and # VRAM channels\n\n");
  TextTable t({"Specification", "GTX 1080", "Tesla P40", "RTX A2000"});
  const GpuSpec specs[] = {gtx1080(), tesla_p40(), rtx_a2000()};

  auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> r{name};
    for (const auto& s : specs) r.push_back(getter(s));
    t.add_row(r);
  };
  row("Architecture", [](const GpuSpec& s) { return s.architecture; });
  row("VRAM size (GiB)", [](const GpuSpec& s) {
    return std::to_string(s.vram_bytes >> 30);
  });
  row("VRAM bus width (bit)", [](const GpuSpec& s) {
    return std::to_string(s.vram_bus_width_bits);
  });
  row("Bus width per GDDR unit (bit)", [](const GpuSpec&) {
    return std::to_string(GpuSpec::kBusWidthPerGddrBits);
  });
  row("# VRAM channels (spec rule)", [](const GpuSpec& s) {
    return std::to_string(s.vram_bus_width_bits /
                          GpuSpec::kBusWidthPerGddrBits);
  });
  // Measured: count the distinct channels the hidden mapping produces
  // over a VRAM sample — what the probing campaign observes.
  row("# VRAM channels (measured)", [](const GpuSpec& s) {
    AddressMapping m(s);
    uint32_t seen = 0;
    for (uint64_t p = 0; p < 1 << 16; ++p) {
      seen |= 1u << m.channel_of(p * kPartitionBytes);
    }
    unsigned n = 0;
    while (seen) {
      n += seen & 1;
      seen >>= 1;
    }
    return std::to_string(n);
  });
  row("Hash family", [](const GpuSpec& s) {
    return std::string(s.linear_hash ? "linear XOR (FGPU-crackable)"
                                     : "non-linear (permutation)");
  });
  t.print();
  std::printf(
      "\nPaper: FGPU [23] is only compatible with the GTX 1080 — the only\n"
      "part whose channel count is a power of two with a linear hash.\n");
  return 0;
}
