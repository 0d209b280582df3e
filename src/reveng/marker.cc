#include "reveng/marker.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/error.h"
#include "gpusim/address.h"

namespace sgdrc::reveng {

using gpusim::kCachelineBytes;
using gpusim::kPartitionBytes;
using gpusim::PhysAddr;

ChannelMarker::ChannelMarker(ProbeArena& arena, ConflictProber& prober,
                             uint64_t seed)
    : arena_(arena), prober_(prober), rng_(seed) {}

void ChannelMarker::build(unsigned num_channels) {
  SGDRC_REQUIRE(num_channels >= 2, "need at least two channels");
  SGDRC_REQUIRE(fill_sets_.empty(), "marker already built");

  // Partitions harvested per channel fill set. The fill set must cover
  // the channel's L2 slice with slack: 2× coverage, i.e. slice lines /
  // lines-per-partition × 2.
  const uint64_t slice_lines =
      arena_.device().spec().l2_slice_bytes() / kCachelineBytes;
  const size_t fill_partitions = static_cast<size_t>(
      2 * slice_lines / (kPartitionBytes / kCachelineBytes));

  const uint64_t arena_parts = arena_.bytes() >> gpusim::kPartitionBits;
  uint64_t seed_cursor = 0;
  for (unsigned c = 0; c < num_channels; ++c) {
    // Find a seed no existing fill set can evict — i.e. a new channel.
    PhysAddr seed_pa = 0;
    for (;; ++seed_cursor) {
      SGDRC_CHECK(seed_cursor < arena_parts,
                  "ran out of candidates while seeding channels");
      const gpusim::VirtAddr va =
          arena_.base() + seed_cursor * kPartitionBytes;
      const PhysAddr pa = arena_.device().pa_of(va);
      bool known = false;
      for (const auto& fill : fill_sets_) {
        if (prober_.fill_evicts(pa, fill)) {
          known = true;
          break;
        }
      }
      if (!known) {
        seed_pa = pa;
        ++seed_cursor;
        break;
      }
    }

    // Harvest same-channel partitions via DRAM bank conflicts (Algo 1/3),
    // then expand every partition into its 8 cachelines.
    std::vector<PhysAddr> partitions =
        prober_.find_dram_conflict_addrs(seed_pa, fill_partitions);
    partitions.push_back(seed_pa);
    SGDRC_CHECK(partitions.size() >= fill_partitions / 2,
                "could not harvest enough conflict addresses; "
                "arena too small or thresholds miscalibrated");
    std::vector<PhysAddr> fill;
    fill.reserve(partitions.size() * (kPartitionBytes / kCachelineBytes));
    for (const PhysAddr part : partitions) {
      for (uint64_t off = 0; off < kPartitionBytes; off += kCachelineBytes) {
        fill.push_back(part + off);
      }
    }
    fill_sets_.push_back(std::move(fill));
  }
}

std::optional<unsigned> ChannelMarker::label_single_trial(PhysAddr addr) {
  SGDRC_REQUIRE(built(), "build() before labelling");
  // Random probe order: a noise-induced false positive then lands on a
  // random channel instead of systematically on channel 0.
  std::vector<unsigned> order(fill_sets_.size());
  std::iota(order.begin(), order.end(), 0u);
  rng_.shuffle(order);
  for (const unsigned c : order) {
    if (prober_.fill_evicts(addr, fill_sets_[c])) return c;
  }
  return std::nullopt;
}

std::optional<unsigned> ChannelMarker::label(PhysAddr addr,
                                             unsigned repeats) {
  SGDRC_REQUIRE(repeats > 0, "label() needs at least one vote");
  std::map<unsigned, unsigned> votes;
  for (unsigned r = 0; r < repeats; ++r) {
    if (const auto c = label_single_trial(addr)) ++votes[*c];
  }
  unsigned best = 0, best_votes = 0;
  for (const auto& [c, v] : votes) {
    if (v > best_votes) {
      best = c;
      best_votes = v;
    }
  }
  if (best_votes * 2 > repeats) return best;  // strict majority
  return std::nullopt;
}

}  // namespace sgdrc::reveng
