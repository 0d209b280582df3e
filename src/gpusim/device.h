// GpuDevice: the facade a "process" sees — cuMalloc-style allocation, timed
// loads through the memory system, and the page-walk needed to learn
// physical addresses. This is the surface the reverse-engineering pipeline
// and the driver layer build on.
#pragma once

#include <cstdint>
#include <memory>

#include "common/sim_time.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/mem_system.h"
#include "gpusim/page_table.h"

namespace sgdrc::gpusim {

class GpuDevice {
 public:
  /// `process_seed` controls the (random) VA→PA placement: a new seed is
  /// what a process restart looks like (§5.1).
  explicit GpuDevice(const GpuSpec& spec, uint64_t process_seed = 0x90ce55)
      : spec_(spec),
        mem_(spec, /*noise_seed=*/process_seed ^ 0xce11),
        pt_(spec.vram_bytes, process_seed) {}

  const GpuSpec& spec() const { return spec_; }
  MemSystem& mem() { return mem_; }
  PageTable& page_table() { return pt_; }

  /// cuMemAlloc equivalent: VA backed by random physical frames.
  VirtAddr malloc(uint64_t bytes) { return pt_.alloc(bytes); }
  void free(VirtAddr va, uint64_t bytes) { pt_.free(va, bytes); }

  /// Timed load through L2/DRAM (what CUDA's clock() microbenchmarks see).
  ReadResult read(VirtAddr va) { return mem_.read(pt_.translate(va)); }

  /// Two loads issued back-to-back from one warp (Algorithm 1's probe).
  TimeNs timed_pair_read(VirtAddr a, VirtAddr b) {
    return mem_.timed_pair_read(pt_.translate(a), pt_.translate(b));
  }

  /// Physical address of a VA — models parsing the page-table entries in
  /// VRAM (the paper follows [60] to do this on real hardware).
  PhysAddr pa_of(VirtAddr va) const { return pt_.translate(va); }

  /// Ground-truth oracle for scoring; not part of the black-box surface.
  const AddressMapping& oracle() const { return mem_.oracle(); }

 private:
  GpuSpec spec_;
  MemSystem mem_;
  PageTable pt_;
};

}  // namespace sgdrc::gpusim
