// Parameterised description of a simulated NVIDIA GPU.
//
// The three presets mirror Tab. 1 of the paper (VRAM size, bus width,
// channel count) plus the microarchitectural parameters the experiments
// depend on (channel grouping from Tab. 4, cache-noise rates from §3.2,
// TPC counts, bandwidth/compute envelopes for the kernel-level model).
// Values every modeled part shares are constants of the class that reads
// them: the GDDR chip width and resident-block limit here, the L2 ways and
// DRAM banks on AddressMapping, the memory timings on MemSystem.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/address.h"

namespace sgdrc::gpusim {

struct GpuSpec {
  std::string name;
  std::string architecture;  // "Pascal" or "Ampere"

  // ---- Tab. 1 ----
  uint64_t vram_bytes = 0;
  unsigned vram_bus_width_bits = 0;
  static constexpr unsigned kBusWidthPerGddrBits = 32;  // one GDDR chip
  unsigned num_channels = 0;  // = vram_bus_width / kBusWidthPerGddrBits

  // ---- VRAM channel layout (§5.2, Tab. 4) ----
  // Channels come in contiguous groups: quads on Pascal-class parts,
  // pairs on Ampere-class parts. One group's channels occupy
  // channel_group_size consecutive 1 KiB partitions; this bounds the
  // maximum cache-coloring granularity.
  unsigned channel_group_size = 4;
  // True on parts whose channel hash is a pure XOR fold of address bits
  // (the GTX 1080 case FGPU relies on); false for the non-linear family.
  bool linear_hash = false;
  // Seed of the hidden "gate circuit". Reverse-engineering code must never
  // read this; it only sees timings.
  uint64_t hash_key = 0x5adface;

  // ---- Compute ----
  unsigned num_tpcs = 0;
  unsigned sms_per_tpc = 2;
  double peak_tflops = 0.0;  // aggregate FP32
  // Caps how many TPCs a small grid can fill (parallelism_cap).
  static constexpr unsigned kMaxResidentBlocksPerSm = 16;

  // ---- Memory hierarchy ----
  uint64_t l2_bytes = 0;  // total; sliced evenly across channels
  double vram_gbps = 0.0;  // full-GPU VRAM bandwidth
  // Probability that an L2 fill is silently bypassed by the black-box
  // cache policy (≈1 % Pascal, ≈5 % Ampere per §3.2 / §5.3).
  double cache_noise_rate = 0.0;

  // Derived quantities -----------------------------------------------------
  uint64_t l2_slice_bytes() const { return l2_bytes / num_channels; }
  uint64_t partitions() const { return vram_bytes >> kPartitionBits; }
  /// Fig. 10: maximum coloring granularity in KiB equals the number of
  /// contiguous channels in a group (Tab. 4 rule 2).
  unsigned max_coloring_granularity_kib() const { return channel_group_size; }
  /// Tab. 4 rule 1: the minimum is one 1 KiB channel partition.
  unsigned min_coloring_granularity_kib() const { return 1; }
};

/// NVIDIA GTX 1080 (Pascal, 8 GiB, 256-bit, 8 channels, linear XOR hash —
/// the one GPU family FGPU's reverse engineering supports).
GpuSpec gtx1080();

/// NVIDIA Tesla P40 (Pascal, 24 GiB, 384-bit, 12 channels, quad channel
/// groups, non-linear hash, ~1 % cache noise).
GpuSpec tesla_p40();

/// NVIDIA RTX A2000 (Ampere, 12 GiB, 192-bit, 6 channels, paired channel
/// groups, non-linear hash, ~5 % cache noise).
GpuSpec rtx_a2000();

/// NVIDIA A100-SXM4-40GB (Ampere, 40 GiB HBM2e). The HBM stacks are
/// modelled at pseudo-channel granularity, folded to the simulator's
/// 32-channel ceiling (ChannelSet is 32 bits wide); per-channel bandwidth
/// is scaled so the full-GPU envelope (~1555 GB/s) is preserved. The
/// datacenter counterpart to rtx_a2000() for heterogeneous fleets: ~4x
/// the TPCs, ~5x the VRAM bandwidth of the workstation part.
GpuSpec a100_sxm4();

/// Small synthetic part for fast unit tests (512 MiB, 4 channels).
GpuSpec test_gpu();

}  // namespace sgdrc::gpusim
