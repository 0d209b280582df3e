// The nvidia-uvm slice SGDRC patches (§6, Fig. 12a): a reserved physical
// memory pool whose 4 KiB frames are cut into n-KiB *sectors*, each sector
// classified by *color* — the set of VRAM channels its partitions map to,
// as given by the reverse-engineered lookup table. Free sectors hang off
// per-(color, sector-id) chunk lists; colored allocations bind VA pages to
// frames through the shadow page table so a transformed kernel touching
// only sector `s` of every page stays inside its colors.
//
// Layout recap for a 2 KiB granularity: every 4 KiB frame holds sectors
// {0, 1}; a colored buffer of L logical bytes consumes L/n chunks, all with
// the same sector id, and 2× L of virtual address space (the transformed
// index stride — Fig. 12b/c).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "gpusim/device.h"
#include "gpusim/resources.h"

namespace sgdrc::driver {

// The sector "color" is the set of VRAM channels its 1 KiB partitions map
// to; channel-set types live with the other low-level resource types.
using gpusim::all_channels;
using gpusim::channel_bit;
using gpusim::channel_count;
using gpusim::channel_set_to_string;
using gpusim::ChannelSet;
using gpusim::subset_of;

/// A colored allocation handed back to the runtime.
struct ColoredBuffer {
  gpusim::VirtAddr va = 0;     // base VA (page-aligned)
  uint64_t logical_bytes = 0;  // payload size
  uint64_t va_bytes = 0;       // VA span (= logical × 4KiB/granularity)
  unsigned sector = 0;         // sector id shared by every chunk
  unsigned granularity_kib = 0;
  ChannelSet colors = 0;       // union of channel sets actually used
  std::vector<uint64_t> pfns;  // one frame per chunk (SPT entries)
};

struct UvmPoolOptions {
  uint64_t pool_bytes = 64ull << 20;
  unsigned granularity_kib = 2;  // paper default (§6)
  /// Labeler for 1 KiB partitions — the reverse-engineered LUT in
  /// production, the oracle in unit tests. Returning a negative value
  /// marks the partition unknown; sectors containing unknown partitions
  /// are quarantined (never handed out).
  std::function<int(gpusim::PhysAddr)> channel_of;
};

class UvmMemoryPool {
 public:
  UvmMemoryPool(gpusim::GpuDevice& dev, UvmPoolOptions opt);
  ~UvmMemoryPool();

  UvmMemoryPool(const UvmMemoryPool&) = delete;
  UvmMemoryPool& operator=(const UvmMemoryPool&) = delete;

  /// Allocate `bytes` constrained to channels within `allowed`. All chunks
  /// share one sector id; throws ConfigError when the pool cannot satisfy
  /// the request.
  ColoredBuffer allocate(uint64_t bytes, ChannelSet allowed);

  /// Return a colored buffer's chunks to the pool and unmap its VA.
  void release(ColoredBuffer& buf);

  // ---- Introspection ----
  unsigned granularity_kib() const { return opt_.granularity_kib; }
  uint64_t sector_bytes() const { return opt_.granularity_kib * 1024ull; }
  unsigned sectors_per_page() const {
    return static_cast<unsigned>(gpusim::kPageBytes / sector_bytes());
  }
  /// Distinct colors discovered while classifying the pool.
  std::vector<ChannelSet> colors() const;
  /// Free chunks currently available for a color set (any sector).
  uint64_t free_chunks(ChannelSet allowed) const;
  uint64_t total_chunks() const { return total_chunks_; }
  uint64_t quarantined_sectors() const { return quarantined_; }

 private:
  struct ChunkKey {
    ChannelSet color;
    unsigned sector;
    bool operator<(const ChunkKey& o) const {
      return color != o.color ? color < o.color : sector < o.sector;
    }
  };

  gpusim::GpuDevice& dev_;
  UvmPoolOptions opt_;
  std::vector<uint64_t> frames_;                    // reserved PFNs
  std::map<ChunkKey, std::vector<uint64_t>> free_;  // chunk lists (Fig.12a)
  uint64_t total_chunks_ = 0;
  uint64_t quarantined_ = 0;
};

}  // namespace sgdrc::driver
