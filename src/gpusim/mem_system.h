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
  explicit MemSystem(const GpuSpec& spec, uint64_t noise_seed = 0xce11)
      : spec_(spec),
        mapping_(spec),
        l2_(mapping_, spec.cache_noise_rate, noise_seed),
        dram_(mapping_) {}

  /// Read one word at `pa`. UMA: latency is independent of which SM issues
  /// the read (the crossbar gives every SM the same path to every slice).
  ReadResult read(PhysAddr pa) {
    if (l2_.read(pa)) {
      return {spec_.l2_hit_ns, true};
    }
    const bool row_hit = dram_.access(pa);
    return {spec_.l2_hit_ns +
                (row_hit ? spec_.dram_row_hit_ns : spec_.dram_row_miss_ns),
            false};
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
    TimeNs lat = std::max(ra.latency, rb.latency) + spec_.channel_serial_ns;
    if (same_bank && diff_row && !ra.l2_hit && !rb.l2_hit) {
      lat += spec_.bank_conflict_ns;
    }
    return lat;
  }

  void flush_l2() { l2_.flush(); }
  void reset_dram() { dram_.reset(); }

  const GpuSpec& spec() const { return spec_; }

  /// Ground-truth oracle. Reverse-engineering code must not call this;
  /// tests and benches use it to score accuracy.
  const AddressMapping& oracle() const { return mapping_; }

  const L2Cache& l2() const { return l2_; }
  const Dram& dram() const { return dram_; }

 private:
  GpuSpec spec_;
  AddressMapping mapping_;
  L2Cache l2_;
  Dram dram_;
};

}  // namespace sgdrc::gpusim
