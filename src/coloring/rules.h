// Coloring-granularity rules (§A.3 / Tab. 4):
//   1. minimum granularity = channel-partition size (1 KiB);
//   2. maximum granularity = (max # contiguous VRAM channels) KiB;
//   3. allocating 2^N channels → granularity min(2^N, maximum) KiB;
//   4. allocating a non-power-of-two channel count → granularity 1 KiB.
// Rules 1 and 2 are GpuSpec::min_/max_coloring_granularity_kib().
#pragma once

#include "common/bitops.h"
#include "common/error.h"
#include "gpusim/gpu_spec.h"

namespace sgdrc::coloring {

/// Granularity for a task that will own `channels` VRAM channels.
inline unsigned granularity_for(const gpusim::GpuSpec& spec,
                                unsigned channels) {
  SGDRC_REQUIRE(channels >= 1 && channels <= spec.num_channels,
                "channel allocation out of range");
  if (!is_pow2(channels)) return spec.min_coloring_granularity_kib();
  return std::min(channels, spec.max_coloring_granularity_kib());
}

}  // namespace sgdrc::coloring
