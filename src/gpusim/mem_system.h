// The simulated GPU memory system: UMA crossbar in front of per-channel
// L2 slices and GDDR banks. This is the *only* interface the
// reverse-engineering code is allowed to observe — it returns latencies,
// never channel IDs.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/sim_time.h"
#include "gpusim/dram.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/hash_mapping.h"
#include "gpusim/l2cache.h"

namespace sgdrc::gpusim {

struct ReadResult {
  TimeNs latency = 0;
  bool l2_hit = false;
};

class MemSystem {
 public:
  // Memory-level timing (simulated ns), the same on every modeled part.
  static constexpr TimeNs kL2HitNs = 160;
  // Added on an L2 miss: the bank's row is open, or it needs an activate.
  static constexpr TimeNs kDramRowHitNs = 220;
  static constexpr TimeNs kDramRowMissNs = 330;
  // Extra serialisation of a pair read: kBankConflictNs when both requests
  // hit one bank in different rows, kChannelSerialNs when they share a
  // channel.
  static constexpr TimeNs kBankConflictNs = 260;
  static constexpr TimeNs kChannelSerialNs = 40;

  explicit MemSystem(const GpuSpec& spec, uint64_t noise_seed = 0xce11)
      : mapping_(spec),
        l2_(mapping_, spec.cache_noise_rate, noise_seed),
        dram_(mapping_) {}

  /// Read one word at `pa`. UMA: latency is independent of which SM issues
  /// the read (the crossbar gives every SM the same path to every slice).
  ReadResult read(PhysAddr pa) {
    if (l2_.read(pa)) {
      return {kL2HitNs, true};
    }
    const bool row_hit = dram_.access(pa);
    return {kL2HitNs + (row_hit ? kDramRowHitNs : kDramRowMissNs), false};
  }

  /// Issue two reads back-to-back as a warp would (Algorithm 1's probe).
  /// Requests to different channels proceed in parallel; requests to the
  /// same channel serialise at the memory controller, and same-bank
  /// requests targeting different rows additionally pay precharge+activate.
  /// Both reads update cache/DRAM state.
  TimeNs timed_pair_read(PhysAddr a, PhysAddr b) {
    const unsigned ch_a = mapping_.channel_of(a);
    const unsigned ch_b = mapping_.channel_of(b);
    const bool same_bank = ch_a == ch_b &&
                           mapping_.bank_of(a) == mapping_.bank_of(b);
    const bool diff_row = mapping_.row_of(a) != mapping_.row_of(b);
    const ReadResult ra = read(a);
    const ReadResult rb = read(b);
    if (ch_a != ch_b) {
      return std::max(ra.latency, rb.latency);
    }
    TimeNs lat = std::max(ra.latency, rb.latency) + kChannelSerialNs;
    if (same_bank && diff_row && !ra.l2_hit && !rb.l2_hit) {
      lat += kBankConflictNs;
    }
    return lat;
  }

  void flush_l2() { l2_.flush(); }
  void reset_dram() { dram_.reset(); }

  /// Ground-truth oracle. Reverse-engineering code must not call this;
  /// tests and benches use it to score accuracy.
  const AddressMapping& oracle() const { return mapping_; }

 private:
  AddressMapping mapping_;
  L2Cache l2_;
  Dram dram_;
};

}  // namespace sgdrc::gpusim
