// ChannelMarker — Algorithm 3 of the paper, generalised to first
// *discover* the channels and then label arbitrary addresses:
//
//  1. For each yet-unseen channel, pick a seed address no existing fill
//     set can evict, harvest its DRAM-bank-conflict neighbours (all in the
//     same channel, §2.1), and expand them into a line set large enough to
//     refresh that channel's whole L2 slice.
//  2. label(): read Addr', refresh channel i's cachelines, re-time Addr'.
//     A miss means Addr' lives in channel i (Fig. 11 right).
//
// Labels are *discovered* channel ids — a fixed but arbitrary permutation
// of the silicon's internal numbering. That is all cache coloring needs:
// disjoint channel sets, not NVIDIA's private names. Benches align the two
// spaces with a confusion-matrix match before scoring accuracy.
//
// Noise handling (§5.3): one probe can mislabel when the black-box policy
// bypasses the populate fill (~1 % Pascal / ~5 % Ampere). label() probes
// channels in random order and takes a majority over `repeats` trials,
// which is why the marking — unlike FGPU's equation system — tolerates
// cache noise.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "reveng/conflict.h"
#include "reveng/probe_arena.h"

namespace sgdrc::reveng {

class ChannelMarker {
 public:
  /// Majority votes per label() call.
  static constexpr unsigned kMajorityVotes = 3;

  ChannelMarker(ProbeArena& arena, ConflictProber& prober,
                uint64_t seed = 0x3a27);

  /// Discover `num_channels` channels and build their fill sets.
  /// `num_channels` comes from public specs (Tab. 1: bus width / 32).
  void build(unsigned num_channels);

  bool built() const { return !fill_sets_.empty(); }
  unsigned num_channels() const {
    return static_cast<unsigned>(fill_sets_.size());
  }

  /// Label the (discovered) channel of `addr`; nullopt when no channel
  /// wins the majority (rare, noise-dominated probes).
  std::optional<unsigned> label(gpusim::PhysAddr addr,
                                unsigned repeats = kMajorityVotes);

  /// One un-denoised probe — what FGPU-style single-shot sampling sees.
  std::optional<unsigned> label_single_trial(gpusim::PhysAddr addr);

 private:
  ProbeArena& arena_;
  ConflictProber& prober_;
  Rng rng_;
  std::vector<std::vector<gpusim::PhysAddr>> fill_sets_;
};

}  // namespace sgdrc::reveng
