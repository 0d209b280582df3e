// GPU MMU model: 4 KiB pages (the minimum the paper cites for NVIDIA's
// MMU), virtual→physical mappings, and a physical frame allocator that
// places pages randomly — which is why the VA→channel mapping changes on
// every process restart and reverse engineering must start from physical
// addresses (§5.1).
//
// The table is a dense vector indexed by VPN: the reverse-engineering
// arena maps most of VRAM (millions of pages), which a node-based map
// would make needlessly slow and heavy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "gpusim/address.h"

namespace sgdrc::gpusim {

class PageTable {
 public:
  PageTable(uint64_t vram_bytes, uint64_t seed)
      : rng_(seed), total_frames_(vram_bytes >> kPageBits) {
    free_list_.resize(total_frames_);
    for (uint64_t i = 0; i < total_frames_; ++i) {
      free_list_[i] = i;
    }
    rng_.shuffle(free_list_);
  }

  /// Allocate VA space and back every page with a random free frame.
  /// Returns the base virtual address (page-aligned). When too few frames
  /// are free it throws ConfigError and leaves the VA range unmapped.
  VirtAddr alloc(uint64_t bytes) {
    const VirtAddr base = alloc_va(bytes);
    map_fresh(base, bytes);
    return base;
  }

  /// Allocate VA space only; pages start unmapped (for SPT-managed
  /// buffers whose frames come from the driver's colored pool, and for
  /// ranges that map_fresh backs later, as often as free unmaps them).
  VirtAddr alloc_va(uint64_t bytes) {
    const uint64_t pages = pages_for(bytes);
    const VirtAddr base = next_va_;
    next_va_ += pages << kPageBits;
    return base;
  }

  /// Back every page of an unmapped alloc_va range with a random free
  /// frame, drawn in page order. The tables grow once for the whole
  /// range. Throws ConfigError, changing no frame or mapping, when too
  /// few frames are free.
  void map_fresh(VirtAddr base, uint64_t bytes) {
    const uint64_t pages = pages_for(bytes);
    SGDRC_REQUIRE(pages <= free_list_.size(), "out of VRAM frames");
    const uint64_t end = vpn_of(base) + pages;
    if (end > pfn_.size()) {
      pfn_.resize(end, kUnmapped);
      owns_.resize(end, false);
    }
    for (uint64_t vpn = vpn_of(base); vpn < end; ++vpn) {
      bind(vpn, take_free_frame(), /*owns_frame=*/true);
    }
  }

  /// Point one VA page at an externally owned frame (shadow page table
  /// write, Fig. 12a step 3). The frame is not released on unmap.
  void map_page(VirtAddr va, uint64_t pfn) {
    SGDRC_REQUIRE(pfn < total_frames_, "PFN out of range");
    bind(vpn_of(va), pfn, /*owns_frame=*/false);
  }

  void unmap_page(VirtAddr va) {
    const uint64_t vpn = vpn_of(va);
    SGDRC_REQUIRE(vpn < pfn_.size() && pfn_[vpn] != kUnmapped,
                  "unmapping an unmapped page");
    if (owns_[vpn]) release_frame(pfn_[vpn]);
    pfn_[vpn] = kUnmapped;
    --mapped_pages_;
  }

  /// Unmap a full allocation made by alloc()/alloc_va(); the VA range
  /// stays reserved, so map_fresh may back it again.
  void free(VirtAddr base, uint64_t bytes) {
    const uint64_t pages = pages_for(bytes);
    for (uint64_t p = 0; p < pages; ++p) {
      const uint64_t vpn = vpn_of(base) + p;
      if (vpn >= pfn_.size() || pfn_[vpn] == kUnmapped) {
        continue;  // alloc_va pages may be unmapped
      }
      if (owns_[vpn]) release_frame(pfn_[vpn]);
      pfn_[vpn] = kUnmapped;
      --mapped_pages_;
    }
  }

  /// Page walk — the equivalent of parsing the PTEs stored in VRAM
  /// (the practice of Zhang et al. [60] the paper follows).
  PhysAddr translate(VirtAddr va) const {
    const uint64_t vpn = vpn_of(va);
    SGDRC_REQUIRE(vpn < pfn_.size() && pfn_[vpn] != kUnmapped,
                  "page fault: unmapped VA");
    return (pfn_[vpn] << kPageBits) | page_offset(va);
  }

  /// Grab a random free frame (driver memory-pool reservation path).
  uint64_t take_free_frame() {
    SGDRC_REQUIRE(!free_list_.empty(), "out of VRAM frames");
    const uint64_t pfn = free_list_.back();
    free_list_.pop_back();
    return pfn;
  }

  void release_frame(uint64_t pfn) {
    SGDRC_REQUIRE(pfn < total_frames_, "PFN out of range");
    free_list_.push_back(pfn);
  }

  uint64_t free_frames() const { return free_list_.size(); }
  uint64_t total_frames() const { return total_frames_; }
  uint64_t mapped_pages() const { return mapped_pages_; }
  /// VPNs the dense tables cover (from VPN 0): the table's size, which
  /// only grows.
  uint64_t table_vpns() const { return pfn_.size(); }

 private:
  static constexpr uint64_t kUnmapped = ~uint64_t{0};

  static uint64_t pages_for(uint64_t bytes) {
    SGDRC_REQUIRE(bytes > 0, "zero-byte allocation");
    return (bytes + kPageBytes - 1) >> kPageBits;
  }

  void bind(uint64_t vpn, uint64_t pfn, bool owns_frame) {
    if (vpn >= pfn_.size()) {
      pfn_.resize(vpn + 1, kUnmapped);
      owns_.resize(vpn + 1, false);
    }
    SGDRC_CHECK(pfn_[vpn] == kUnmapped, "double-mapping a VA page");
    pfn_[vpn] = pfn;
    owns_[vpn] = owns_frame;
    ++mapped_pages_;
  }

  Rng rng_;
  uint64_t total_frames_;
  std::vector<uint64_t> free_list_;
  std::vector<uint64_t> pfn_;
  std::vector<bool> owns_;
  uint64_t mapped_pages_ = 0;
  VirtAddr next_va_ = kPageBytes;  // keep VA 0 unmapped (null)
};

}  // namespace sgdrc::gpusim
