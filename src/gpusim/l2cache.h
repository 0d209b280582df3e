// Set-associative L2 cache sliced per VRAM channel, with the "black-box
// cache policy" noise the paper measured (§3.2): a small fraction of fills
// is silently bypassed, which later reads observe as unexplained misses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gpusim/address.h"
#include "gpusim/hash_mapping.h"

namespace sgdrc::gpusim {

class L2Cache {
 public:
  L2Cache(const AddressMapping& mapping, double noise_rate,
          uint64_t noise_seed)
      : mapping_(mapping), noise_rate_(noise_rate), noise_rng_(noise_seed) {
    const size_t entries = static_cast<size_t>(mapping.num_channels()) *
                           mapping.l2_sets() * AddressMapping::kL2Ways;
    tags_.assign(entries, kInvalid);
    stamps_.assign(entries, 0);
    epochs_.assign(entries, 0);
  }

  /// Look up (and on miss, fill) the line holding `pa`.
  /// Returns true on hit. Fill may be skipped by the noise process.
  bool read(PhysAddr pa) {
    const unsigned ch = mapping_.channel_of(pa);
    const unsigned set = mapping_.l2_set_of(pa);
    const uint64_t tag = mapping_.l2_tag_of(pa);
    const size_t base = (static_cast<size_t>(ch) * mapping_.l2_sets() + set) *
                        AddressMapping::kL2Ways;
    ++tick_;
    size_t victim = base;
    uint64_t oldest = ~uint64_t{0};
    for (size_t w = 0; w < AddressMapping::kL2Ways; ++w) {
      const size_t i = base + w;
      const bool valid = epochs_[i] == epoch_;
      if (valid && tags_[i] == tag) {
        stamps_[i] = tick_;
        return true;
      }
      const uint64_t age = valid ? stamps_[i] : 0;  // invalid ways first
      if (age < oldest) {
        oldest = age;
        victim = i;
      }
    }
    if (noise_rate_ > 0.0 && noise_rng_.bernoulli(noise_rate_)) {
      return false;  // black-box policy decided not to allocate
    }
    tags_[victim] = tag;
    stamps_[victim] = tick_;
    epochs_[victim] = epoch_;
    return false;
  }

  /// True if the line holding `pa` is currently resident (no state change).
  bool probe(PhysAddr pa) const {
    const unsigned ch = mapping_.channel_of(pa);
    const unsigned set = mapping_.l2_set_of(pa);
    const uint64_t tag = mapping_.l2_tag_of(pa);
    const size_t base = (static_cast<size_t>(ch) * mapping_.l2_sets() + set) *
                        AddressMapping::kL2Ways;
    for (size_t w = 0; w < AddressMapping::kL2Ways; ++w) {
      if (epochs_[base + w] == epoch_ && tags_[base + w] == tag) return true;
    }
    return false;
  }

  /// O(1) full invalidation via epoch bump (reverse engineering issues
  /// millions of these; see reveng::ConflictProber for the equivalence
  /// argument with p-chase refresh on real hardware).
  void flush() { ++epoch_; }

 private:
  static constexpr uint64_t kInvalid = ~uint64_t{0};

  const AddressMapping& mapping_;
  double noise_rate_;
  Rng noise_rng_;
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> stamps_;
  std::vector<uint32_t> epochs_;
  uint32_t epoch_ = 1;
  uint64_t tick_ = 0;
};

}  // namespace sgdrc::gpusim
