// Low-level resource-set types shared by the driver, the executor and the
// schedulers: VRAM channel sets (cache coloring), TPC masks (TMD-style
// SM masking), and the Allocation that grants one kernel both.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/error.h"

namespace sgdrc::gpusim {

// ---------------------------------------------------------------------
// Channel sets: bit i set = VRAM channel i.
// ---------------------------------------------------------------------
using ChannelSet = uint32_t;

constexpr ChannelSet channel_bit(unsigned ch) { return 1u << ch; }
constexpr bool subset_of(ChannelSet a, ChannelSet b) { return (a & ~b) == 0; }
constexpr unsigned channel_count(ChannelSet s) {
  return static_cast<unsigned>(std::popcount(s));
}
inline ChannelSet all_channels(unsigned num_channels) {
  SGDRC_REQUIRE(num_channels > 0 && num_channels <= 32,
                "channel count out of range");
  // A full-width shift is UB; the 32-channel mask is all ones.
  if (num_channels >= 32) return ~ChannelSet{0};
  return (ChannelSet{1} << num_channels) - 1;
}
inline std::string channel_set_to_string(ChannelSet s) {
  std::string out = "{";
  bool first = true;
  for (unsigned c = 0; c < 32; ++c) {
    if (s & channel_bit(c)) {
      if (!first) out += ",";
      out += static_cast<char>('A' + c);
      first = false;
    }
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// TPC masks: bit i set = kernel may be scheduled on TPC i.
// ---------------------------------------------------------------------
using TpcMask = uint64_t;

constexpr TpcMask tpc_bit(unsigned tpc) { return TpcMask{1} << tpc; }
constexpr unsigned tpc_count(TpcMask m) {
  return static_cast<unsigned>(std::popcount(m));
}
inline TpcMask full_tpc_mask(unsigned num_tpcs) {
  SGDRC_REQUIRE(num_tpcs > 0 && num_tpcs <= 64, "TPC count out of range");
  // A full-width shift is UB; the 64-TPC mask is all ones.
  if (num_tpcs >= 64) return ~TpcMask{0};
  return (TpcMask{1} << num_tpcs) - 1;
}
/// Mask of `count` TPCs starting at `first`.
inline TpcMask tpc_range(unsigned first, unsigned count) {
  SGDRC_REQUIRE(first + count <= 64, "TPC range out of bounds");
  if (count == 0) return 0;
  const TpcMask ones =
      count >= 64 ? ~TpcMask{0} : (TpcMask{1} << count) - 1;
  return ones << first;
}
/// The `n` highest set bits of `from`, or all of them when `from` has
/// fewer. LS partitions and LS guarantee regions are carved from the top
/// of the mask (SGDRC's tidal convention, Fig. 13).
constexpr TpcMask highest_tpcs(TpcMask from, unsigned n) {
  TpcMask out = 0;
  for (; n > 0 && from != 0; --n) {
    const TpcMask top = TpcMask{1} << (63 - std::countl_zero(from));
    out |= top;
    from &= ~top;
  }
  return out;
}
/// The `n` lowest set bits of `from`, or all of them when `from` has
/// fewer. BE slices and BE guarantee regions are carved from the bottom.
constexpr TpcMask lowest_tpcs(TpcMask from, unsigned n) {
  TpcMask out = 0;
  for (; n > 0 && from != 0; --n) {
    const TpcMask low = from & ~(from - 1);
    out |= low;
    from &= ~low;
  }
  return out;
}

// ---------------------------------------------------------------------
// Allocation: the explicit grant for one kernel launch, a TPC mask and a
// channel set, from a controller's plan all the way into the executor.
// There is no zero-means-"all" convention (the classic footgun: a
// forgotten mask silently monopolised the GPU). An empty field is an
// error; the sentinel all-ones masks of Allocation::all() mean "every
// TPC / channel the device has" without the caller knowing the device
// size. GpuExecutor::resolve() expands the sentinel to device masks and
// rejects empty or out-of-device grants.
// ---------------------------------------------------------------------
struct Allocation {
  TpcMask tpcs = 0;        // 0 is invalid — use all()
  ChannelSet channels = 0; // 0 is invalid — use all()

  /// The whole device (monopolisation), device-size agnostic.
  static constexpr Allocation all() {
    return {~TpcMask{0}, ~ChannelSet{0}};
  }
  /// A TPC slice with every channel (compute-bound colocation).
  static constexpr Allocation on_tpcs(TpcMask m) {
    return {m, ~ChannelSet{0}};
  }
  static constexpr Allocation on(TpcMask m, ChannelSet c) { return {m, c}; }
  constexpr bool empty() const { return tpcs == 0 || channels == 0; }
};

}  // namespace sgdrc::gpusim
