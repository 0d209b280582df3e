// Per-channel GDDR bank state: each bank keeps one open row; accessing a
// different row forces precharge + activate. A bank serves one request per
// cycle, so two in-flight requests to the same bank with different rows
// serialise — the conflict signal Algorithm 1 measures.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/hash_mapping.h"

namespace sgdrc::gpusim {

class Dram {
 public:
  explicit Dram(const AddressMapping& mapping)
      : mapping_(mapping),
        open_row_(static_cast<size_t>(mapping.num_channels()) *
                      AddressMapping::kDramBanksPerChannel,
                  kNoRow) {}

  /// Access the bank/row for `pa`; returns true on a row-buffer hit.
  /// Updates the open row.
  bool access(PhysAddr pa) {
    const size_t idx = bank_index(pa);
    const uint64_t row = mapping_.row_of(pa);
    const bool hit = open_row_[idx] == row;
    open_row_[idx] = row;
    return hit;
  }

  void reset() { std::fill(open_row_.begin(), open_row_.end(), kNoRow); }

 private:
  static constexpr uint64_t kNoRow = ~uint64_t{0};

  size_t bank_index(PhysAddr pa) const {
    return static_cast<size_t>(mapping_.channel_of(pa)) *
               AddressMapping::kDramBanksPerChannel +
           mapping_.bank_of(pa);
  }

  const AddressMapping& mapping_;
  std::vector<uint64_t> open_row_;
};

}  // namespace sgdrc::gpusim
