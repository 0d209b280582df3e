// The probe arena: a huge allocation covering most of VRAM, the canvas on
// which reverse engineering works. Because physical placement is random,
// the arena gives us (a) access to almost every physical partition and
// (b) a PA→VA reverse map so probes expressed in physical space (the
// paper's Algorithms 1–3) can be issued through the normal load path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "gpusim/device.h"

namespace sgdrc::reveng {

class ProbeArena {
 public:
  /// Map `fraction` of the GPU's VRAM (the paper's campaigns allocate as
  /// much as the driver will give them).
  explicit ProbeArena(gpusim::GpuDevice& dev, double fraction = 0.9)
      : dev_(dev) {
    SGDRC_REQUIRE(fraction > 0.0 && fraction <= 1.0,
                  "arena fraction must be in (0, 1]");
    const uint64_t total = dev.spec().vram_bytes;
    bytes_ = (static_cast<uint64_t>(static_cast<double>(total) * fraction) >>
              gpusim::kPageBits)
             << gpusim::kPageBits;
    SGDRC_REQUIRE(bytes_ >= gpusim::kPageBytes, "arena too small");
    base_ = dev.malloc(bytes_);
    va_of_pfn_.assign(dev.page_table().total_frames(), kNone);
    for (uint64_t off = 0; off < bytes_; off += gpusim::kPageBytes) {
      const gpusim::PhysAddr pa = dev.pa_of(base_ + off);
      va_of_pfn_[gpusim::frame_of(pa)] = base_ + off;
    }
  }

  ProbeArena(const ProbeArena&) = delete;
  ProbeArena& operator=(const ProbeArena&) = delete;

  ~ProbeArena() { dev_.free(base_, bytes_); }

  gpusim::VirtAddr base() const { return base_; }
  uint64_t bytes() const { return bytes_; }

  /// Is the physical address inside a page the arena owns?
  bool owns_pa(gpusim::PhysAddr pa) const {
    const uint64_t pfn = gpusim::frame_of(pa);
    return pfn < va_of_pfn_.size() && va_of_pfn_[pfn] != kNone;
  }

  /// Virtual address through which `pa` can be read.
  gpusim::VirtAddr va_of(gpusim::PhysAddr pa) const {
    const uint64_t pfn = gpusim::frame_of(pa);
    SGDRC_REQUIRE(pfn < va_of_pfn_.size() && va_of_pfn_[pfn] != kNone,
                  "physical address outside the probe arena");
    return va_of_pfn_[pfn] | gpusim::page_offset(pa);
  }

  /// Read the word at physical address `pa` through the memory hierarchy.
  gpusim::ReadResult read_pa(gpusim::PhysAddr pa) {
    return dev_.read(va_of(pa));
  }

  gpusim::GpuDevice& device() { return dev_; }

  /// Iterate mapped partitions starting at `from_partition`, in physical
  /// order, invoking fn(pa) until it returns false or space is exhausted.
  /// Returns the number of partitions visited.
  template <typename Fn>
  uint64_t for_each_partition(uint64_t from_partition, Fn&& fn) const {
    const uint64_t last = dev_.spec().partitions();
    uint64_t visited = 0;
    for (uint64_t p = from_partition; p < last; ++p) {
      const gpusim::PhysAddr pa = p << gpusim::kPartitionBits;
      if (!owns_pa(pa)) continue;
      ++visited;
      if (!fn(pa)) break;
    }
    return visited;
  }

 private:
  static constexpr gpusim::VirtAddr kNone = ~uint64_t{0};

  gpusim::GpuDevice& dev_;
  gpusim::VirtAddr base_ = 0;
  uint64_t bytes_ = 0;
  std::vector<gpusim::VirtAddr> va_of_pfn_;
};

}  // namespace sgdrc::reveng
