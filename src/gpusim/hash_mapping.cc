#include "gpusim/hash_mapping.h"

#include <algorithm>
#include <numeric>

#include "common/bitops.h"
#include "common/error.h"
#include "common/rng.h"

namespace sgdrc::gpusim {

namespace {

// All permutations of {0..n-1} for n <= 4, in lexicographic order.
std::vector<std::vector<uint8_t>> all_permutations(unsigned n) {
  std::vector<uint8_t> base(n);
  std::iota(base.begin(), base.end(), uint8_t{0});
  std::vector<std::vector<uint8_t>> out;
  do {
    out.push_back(base);
  } while (std::next_permutation(base.begin(), base.end()));
  return out;
}

// Hash-input window per Fig. 10: bits 10..34.
constexpr uint64_t hash_input(PhysAddr pa) {
  return extract_bits(pa, kPartitionBits, kHashInputHighBit);
}

}  // namespace

AddressMapping::AddressMapping(const GpuSpec& spec)
    : num_channels_(spec.num_channels),
      group_size_(spec.channel_group_size),
      num_groups_(spec.num_channels / spec.channel_group_size),
      linear_(spec.linear_hash) {
  SGDRC_REQUIRE(spec.num_channels % spec.channel_group_size == 0,
                "channel count must be a multiple of the group size");
  SGDRC_REQUIRE(is_pow2(group_size_), "channel group size must be 2 or 4");

  Rng rng(spec.hash_key);

  if (linear_) {
    SGDRC_REQUIRE(is_pow2(num_channels_),
                  "linear hash requires a power-of-two channel count");
    const unsigned bits = ceil_log2(num_channels_);
    // Keyed random masks over the 25-bit hash input window. Random masks
    // of this width are linearly independent with overwhelming probability;
    // verify anyway so the linear family is always exactly solvable.
    const uint64_t window = (uint64_t{1} << 25) - 1;
    for (;;) {
      linear_masks_.clear();
      for (unsigned b = 0; b < bits; ++b) {
        linear_masks_.push_back((rng.next_u64() & window) | 1);
      }
      // Gaussian elimination rank check over GF(2).
      std::vector<uint64_t> rows = linear_masks_;
      unsigned rank = 0;
      for (int bit = 24; bit >= 0 && rank < rows.size(); --bit) {
        const uint64_t pivot_mask = uint64_t{1} << bit;
        for (size_t r = rank; r < rows.size(); ++r) {
          if (rows[r] & pivot_mask) {
            std::swap(rows[rank], rows[r]);
            for (size_t r2 = 0; r2 < rows.size(); ++r2) {
              if (r2 != rank && (rows[r2] & pivot_mask)) {
                rows[r2] ^= rows[rank];
              }
            }
            ++rank;
            break;
          }
        }
      }
      if (rank == rows.size()) break;
    }
  } else {
    // Permutation family. Superblock = 4 regions of `group_size` slots.
    intra_bits_ = ceil_log2(group_size_);
    slot_bits_ = intra_bits_ + 2;  // 4 regions per superblock
    // The pattern selector reads a positional window of the superblock
    // index through a keyed S-box. Table lookups are not expressible as
    // XOR folds, so FGPU's GF(2) solver turns inconsistent — yet the
    // circuit stays as shallow as the layouts the paper observed, which
    // is exactly why their DNN reached 99.9% from 15 K samples (§5.3).
    sb_parity_masks_ = {0, 0, 0};
    // S-boxes indexed by (effective << 2) | region. Entries are drawn
    // uniformly so groups and intra-group orders are exactly uniform
    // (Fig. 9's "patterns uniformly distributed").
    perms_ = all_permutations(group_size_);
    const size_t table = size_t{1} << (6 + 2);
    // Balanced fill: each group / permutation index appears equally often
    // in the S-box, then the table is shuffled by the key. This keeps the
    // mapping non-linear and secret while making channel frequencies
    // population-uniform (Fig. 9).
    sbox_group_.resize(table);
    sbox_perm_.resize(table);
    for (size_t i = 0; i < table; ++i) {
      sbox_group_[i] = static_cast<uint8_t>(i % num_groups_);
      sbox_perm_[i] = static_cast<uint8_t>(i % perms_.size());
    }
    rng.shuffle(sbox_group_);
    rng.shuffle(sbox_perm_);
  }

  for (auto& b : bank_sbox_) {
    b = static_cast<uint8_t>(rng.uniform_u64(kDramBanksPerChannel));
  }

  const uint64_t slice = spec.l2_slice_bytes();
  l2_sets_ = static_cast<unsigned>(slice / (kCachelineBytes * kL2Ways));
  SGDRC_REQUIRE(l2_sets_ > 0 && is_pow2(l2_sets_),
                "L2 slice must hold a power-of-two number of sets");
  l2_set_key_ = rng.next_u64();
}

unsigned AddressMapping::linear_channel(PhysAddr pa) const {
  const uint64_t x = hash_input(pa);
  unsigned ch = 0;
  for (size_t b = 0; b < linear_masks_.size(); ++b) {
    ch |= masked_parity(x, linear_masks_[b]) << b;
  }
  return ch;
}

unsigned AddressMapping::permutation_channel(PhysAddr pa) const {
  const uint64_t p = hash_input(pa);  // partition index, 25 bits
  const uint64_t sb = p >> slot_bits_;
  const unsigned region = static_cast<unsigned>((p >> intra_bits_) & 3);
  const unsigned k = static_cast<unsigned>(p & (group_size_ - 1));
  // Effective superblock signature: a 6-bit positional window.
  const uint64_t eff = sb & 0x3F;
  const size_t idx = static_cast<size_t>((eff << 2) | region);
  const unsigned group = sbox_group_[idx];
  const auto& sigma = perms_[sbox_perm_[idx]];
  return group * group_size_ + sigma[k];
}

unsigned AddressMapping::channel_of(PhysAddr pa) const {
  return linear_ ? linear_channel(pa) : permutation_channel(pa);
}

unsigned AddressMapping::bank_of(PhysAddr pa) const {
  const uint64_t p = partition_of(pa);
  // Keyed byte-wide S-box over low partition bits mixed with a shifted copy:
  // same-bank addresses recur at ~1/banks density, and nearby same-bank
  // addresses usually live in different rows (row_of below), matching how
  // Algo. 1's forward scan finds conflicts quickly on real parts.
  return bank_sbox_[(p ^ ((p >> 4) * 0x9Eu)) & 0xFF];
}

uint64_t AddressMapping::row_of(PhysAddr pa) const {
  return partition_of(pa) >> 4;  // one row spans 16 partitions' worth
}

unsigned AddressMapping::l2_set_of(PhysAddr pa) const {
  const uint64_t line = line_of(pa);
  return static_cast<unsigned>(splitmix64(line ^ l2_set_key_) &
                               (l2_sets_ - 1));
}

}  // namespace sgdrc::gpusim
