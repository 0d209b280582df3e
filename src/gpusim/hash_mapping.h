// The simulated GPU's hidden address-mapping "gate circuits".
//
// This models what the paper reverse engineers (§5): every physical address
// maps to a VRAM channel, an L2 set within that channel's slice, and a DRAM
// (bank, row) within that channel — through keyed functions that the rest of
// SGDRC must treat as a black box.
//
// Two channel-hash families are provided, matching §3.2:
//  * linear:  channel = XOR parities of keyed bit masks (GTX 1080 class).
//             FGPU's GF(2) equation solving can crack this one.
//  * permutation: the general non-linear layout the paper discovered —
//             1 KiB channel partitions, channel groups (quads/pairs) whose
//             members occupy consecutive partitions in keyed permutation
//             patterns, patterns uniformly distributed across VRAM
//             (Fig. 8–10). Built from keyed S-boxes + parities, so it is
//             not expressible as XOR folds (FGPU fails) but is learnable
//             from samples (the paper's DNN approach, §5.3).
//
// IMPORTANT: reverse-engineering and SGDRC runtime code never call
// channel_of() directly; they only observe timings through MemSystem.
// Benches use it as the ground-truth oracle when scoring accuracy.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpusim/address.h"
#include "gpusim/gpu_spec.h"

namespace sgdrc::gpusim {

class AddressMapping {
 public:
  /// Ways of each channel's L2 slice, and DRAM banks per channel (the
  /// range of bank_of()); the same on every modeled part.
  static constexpr unsigned kL2Ways = 16;
  static constexpr unsigned kDramBanksPerChannel = 16;

  explicit AddressMapping(const GpuSpec& spec);

  unsigned num_channels() const { return num_channels_; }

  /// VRAM channel of a physical address (ground truth).
  unsigned channel_of(PhysAddr pa) const;

  /// DRAM bank within the address's channel.
  unsigned bank_of(PhysAddr pa) const;

  /// DRAM row identifier (unique per bank history; two addresses in the
  /// same bank conflict iff their rows differ).
  uint64_t row_of(PhysAddr pa) const;

  /// L2 set within the address's channel slice.
  unsigned l2_set_of(PhysAddr pa) const;

  /// L2 tag (cacheline identity).
  uint64_t l2_tag_of(PhysAddr pa) const { return line_of(pa); }

  unsigned l2_sets() const { return l2_sets_; }

  /// Channel-group membership helpers (Tab. 4 structure).
  unsigned group_of_channel(unsigned channel) const {
    return channel / group_size_;
  }

 private:
  unsigned permutation_channel(PhysAddr pa) const;
  unsigned linear_channel(PhysAddr pa) const;

  unsigned num_channels_;
  unsigned group_size_;
  unsigned num_groups_;
  bool linear_;

  // Linear family: one mask per channel-index bit.
  std::vector<uint64_t> linear_masks_;

  // Permutation family.
  unsigned slot_bits_;           // log2(slots per superblock)
  unsigned intra_bits_;          // log2(group_size)
  std::array<uint64_t, 3> sb_parity_masks_{};  // over superblock index bits
  std::vector<uint8_t> sbox_group_;            // [eff<<2|region] -> group
  std::vector<uint8_t> sbox_perm_;             // [eff<<2|region] -> perm idx
  std::vector<std::vector<uint8_t>> perms_;    // S_{group_size} table

  // DRAM mapping.
  std::array<uint8_t, 256> bank_sbox_{};

  // L2 slice geometry + keyed set fold.
  unsigned l2_sets_;
  uint64_t l2_set_key_;
};

}  // namespace sgdrc::gpusim
