// Tests for the driver layer (UVM colored pool, SPT writes) and the
// coloring layer (translate arithmetic, granularity rules, kernel
// transformer). TPC masks are carved by gpusim::highest_tpcs and
// lowest_tpcs (tests/gpusim_test.cc) and validated by
// GpuExecutor::resolve() (tests/executor_test.cc). The end-to-end
// property here is the paper's §6 claim: a colored buffer's every access
// lands on its assigned channels.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "coloring/rules.h"
#include "coloring/transformer.h"
#include "coloring/translate.h"
#include "driver/uvm_pool.h"
#include "gpusim/device.h"
#include "gpusim/gpu_spec.h"

namespace sgdrc {
namespace {

using driver::ColoredBuffer;
using driver::UvmMemoryPool;
using driver::UvmPoolOptions;
using gpusim::all_channels;
using gpusim::channel_bit;
using gpusim::ChannelSet;
using gpusim::GpuDevice;
using gpusim::GpuSpec;
using gpusim::kPageBytes;
using gpusim::kPartitionBytes;

UvmPoolOptions oracle_pool_options(GpuDevice& dev, uint64_t bytes,
                                   unsigned gran_kib) {
  UvmPoolOptions opt;
  opt.pool_bytes = bytes;
  opt.granularity_kib = gran_kib;
  opt.channel_of = [&dev](gpusim::PhysAddr pa) {
    return static_cast<int>(dev.oracle().channel_of(pa));
  };
  return opt;
}

// ------------------------------------------------------------ UvmPool ----

TEST(UvmPool, ClassifiesAllSectors) {
  GpuDevice dev(gpusim::test_gpu(), 3);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 8ull << 20, 2));
  EXPECT_EQ(pool.total_chunks(), (8ull << 20) / 2048);
  EXPECT_EQ(pool.quarantined_sectors(), 0u);
  // test_gpu pairs channels (group size 2): every color has 2 channels.
  for (const ChannelSet color : pool.colors()) {
    EXPECT_EQ(gpusim::channel_count(color), 2u);
  }
}

TEST(UvmPool, ColoredBufferStaysOnItsChannels) {
  // The core §6 property, via the real translate() path.
  GpuDevice dev(gpusim::test_gpu(), 5);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 16ull << 20, 2));
  // Give the buffer one channel group (2 of 4 channels).
  const ChannelSet allowed = channel_bit(0) | channel_bit(1);
  ColoredBuffer buf = pool.allocate(1ull << 20, allowed);
  EXPECT_EQ(buf.logical_bytes, 1ull << 20);
  EXPECT_EQ(buf.va_bytes, 2ull << 20);  // 2KiB of every 4KiB page

  for (uint64_t off = 0; off < buf.logical_bytes; off += 512) {
    const gpusim::VirtAddr va = coloring::colored_va(buf, off);
    const unsigned ch = dev.oracle().channel_of(dev.pa_of(va));
    ASSERT_TRUE(allowed & channel_bit(ch))
        << "offset " << off << " escaped to channel " << ch;
  }
  pool.release(buf);
}

TEST(UvmPool, TwoTenantsAreChannelDisjoint) {
  GpuDevice dev(gpusim::test_gpu(), 7);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 16ull << 20, 2));
  const ChannelSet ls = channel_bit(0) | channel_bit(1);
  const ChannelSet be = channel_bit(2) | channel_bit(3);
  ColoredBuffer a = pool.allocate(2ull << 20, ls);
  ColoredBuffer b = pool.allocate(2ull << 20, be);
  std::set<unsigned> ch_a, ch_b;
  for (uint64_t off = 0; off < 2ull << 20; off += kPartitionBytes) {
    ch_a.insert(dev.oracle().channel_of(dev.pa_of(coloring::colored_va(a, off))));
    ch_b.insert(dev.oracle().channel_of(dev.pa_of(coloring::colored_va(b, off))));
  }
  for (unsigned c : ch_a) EXPECT_TRUE(ls & channel_bit(c));
  for (unsigned c : ch_b) EXPECT_TRUE(be & channel_bit(c));
}

TEST(UvmPool, ReleaseReturnsCapacity) {
  GpuDevice dev(gpusim::test_gpu(), 9);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 8ull << 20, 2));
  const ChannelSet allowed = all_channels(4);
  const uint64_t before = pool.free_chunks(allowed);
  ColoredBuffer buf = pool.allocate(1ull << 20, allowed);
  EXPECT_EQ(pool.free_chunks(allowed), before - 512);
  pool.release(buf);
  EXPECT_EQ(pool.free_chunks(allowed), before);
}

TEST(UvmPool, ExhaustionThrowsWithColorContext) {
  GpuDevice dev(gpusim::test_gpu(), 11);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 4ull << 20, 2));
  const ChannelSet one_pair = channel_bit(0) | channel_bit(1);
  try {
    pool.allocate(64ull << 20, one_pair);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("{A,B}"), std::string::npos);
  }
}

TEST(UvmPool, SharesFramesAcrossSectors) {
  // A frame whose sector 0 serves color X can serve color Y via sector 1
  // — the chunk lists of Fig. 12a key on (color, sector id).
  GpuDevice dev(gpusim::test_gpu(), 13);
  UvmMemoryPool pool(dev, oracle_pool_options(dev, 8ull << 20, 2));
  ColoredBuffer a = pool.allocate(2ull << 20, all_channels(4));
  ColoredBuffer b = pool.allocate(2ull << 20, all_channels(4));
  std::set<uint64_t> frames_a(a.pfns.begin(), a.pfns.end());
  size_t shared = 0;
  for (uint64_t pfn : b.pfns) shared += frames_a.count(pfn);
  if (a.sector != b.sector) {
    EXPECT_GT(shared, 0u);
  }
}

TEST(UvmPool, QuarantinesUnknownLabels) {
  GpuDevice dev(gpusim::test_gpu(), 15);
  UvmPoolOptions opt = oracle_pool_options(dev, 4ull << 20, 2);
  // A labeler that refuses every 7th partition.
  opt.channel_of = [&dev](gpusim::PhysAddr pa) -> int {
    if (gpusim::partition_of(pa) % 7 == 0) return -1;
    return static_cast<int>(dev.oracle().channel_of(pa));
  };
  UvmMemoryPool pool(dev, opt);
  EXPECT_GT(pool.quarantined_sectors(), 0u);
  EXPECT_EQ(pool.total_chunks() + pool.quarantined_sectors(),
            (4ull << 20) / 2048);
}

TEST(UvmPool, RejectsGranularityAboveGroupRun) {
  GpuDevice dev(gpusim::rtx_a2000(), 17);
  // A2000: pairs → max granularity 2 KiB (Tab. 4); 4 KiB must be rejected.
  EXPECT_THROW(UvmMemoryPool(dev, oracle_pool_options(dev, 4ull << 20, 4)),
               ConfigError);
}

// ---------------------------------------------------------- Translate ----

TEST(Translate, MatchesPaperMacroAt2KiB) {
  // Fig. 12c: translate(offset) = offset + (offset & ~(2048-1)).
  for (uint64_t off : {0ull, 1ull, 2047ull, 2048ull, 5000ull, 65536ull}) {
    EXPECT_EQ(coloring::translate_offset(off, 2048), off + (off & ~2047ull));
  }
}

TEST(Translate, CoversDisjointSectorsPerOffsetRange) {
  // 1KiB granularity: logical [0,1K) → page sector 0, [1K,2K) → next page.
  EXPECT_EQ(coloring::translate_offset(0, 1024), 0u);
  EXPECT_EQ(coloring::translate_offset(1024, 1024), 4096u);
  EXPECT_EQ(coloring::translate_offset(1023, 1024), 1023u);
  EXPECT_EQ(coloring::translate_offset(2048, 1024), 8192u);
}

// -------------------------------------------------------------- Rules ----

TEST(Rules, Table4Granularities) {
  // Tab. 4: over every channel allocation, granularity_for spans the
  // part's 1 KiB minimum up to its contiguous-channel-run maximum.
  const std::pair<GpuSpec, unsigned> tab4_max[] = {
      {gpusim::gtx1080(), 4}, {gpusim::tesla_p40(), 4},
      {gpusim::rtx_a2000(), 2}};
  for (const auto& [spec, max_kib] : tab4_max) {
    EXPECT_EQ(spec.max_coloring_granularity_kib(), max_kib) << spec.name;
    unsigned lo = ~0u, hi = 0;
    for (unsigned ch = 1; ch <= spec.num_channels; ++ch) {
      const unsigned g = coloring::granularity_for(spec, ch);
      lo = std::min(lo, g);
      hi = std::max(hi, g);
    }
    EXPECT_EQ(lo, spec.min_coloring_granularity_kib()) << spec.name;
    EXPECT_EQ(lo, 1u) << spec.name;
    EXPECT_EQ(hi, max_kib) << spec.name;
  }
}

TEST(Rules, PowerOfTwoAllocationRule) {
  const GpuSpec p40 = gpusim::tesla_p40();
  EXPECT_EQ(coloring::granularity_for(p40, 4), 4u);   // min(2^2, 4)
  EXPECT_EQ(coloring::granularity_for(p40, 2), 2u);
  EXPECT_EQ(coloring::granularity_for(p40, 8), 4u);   // capped at max
  EXPECT_EQ(coloring::granularity_for(p40, 3), 1u);   // non-pow2 → 1 KiB
  const GpuSpec a2000 = gpusim::rtx_a2000();
  EXPECT_EQ(coloring::granularity_for(a2000, 2), 2u);
  EXPECT_EQ(coloring::granularity_for(a2000, 4), 2u);  // capped
}

// -------------------------------------------------------- Transformer ----

gpusim::KernelDesc make_kernel(const std::string& name,
                               std::vector<gpusim::KernelAccess> accesses) {
  gpusim::KernelDesc k;
  k.name = name;
  k.accesses = std::move(accesses);
  k.base_registers = 40;
  return k;
}

TEST(Transformer, SingleUseExpressionsFold) {
  // Three accesses with three distinct index expressions → all fold.
  const auto k = make_kernel("conv", {{0, 0, false}, {1, 1, false},
                                      {2, 2, true}});
  const auto res = coloring::transform_kernel(k, from_ms(1.0));
  EXPECT_EQ(res.extra_registers, 0u);
  EXPECT_EQ(res.rewritten_accesses, 3u);
  EXPECT_TRUE(res.kernel.spt_transformed);
}

TEST(Transformer, SharedExpressionMaterialisesOneTemp) {
  // Fig. 12c's vectorAdd: A[i], B[i], C[i] share index i → +1 register.
  const auto k = make_kernel("vadd", {{0, 0, false}, {1, 0, false},
                                      {2, 0, true}});
  const auto res = coloring::transform_kernel(k, from_ms(1.0));
  EXPECT_EQ(res.extra_registers, 1u);
  EXPECT_EQ(res.kernel.base_registers, 41u);
}

TEST(Transformer, TinyKernelsGetCompilerOutliers) {
  const auto k = make_kernel("bias_add_tiny", {{0, 0, false}, {1, 1, true}});
  const auto res = coloring::transform_kernel(k, from_ms(0.005));
  EXPECT_GE(res.extra_registers, 8u);   // §9.1.2's >10-register outliers
  EXPECT_LE(res.extra_registers, 16u);
  // Deterministic across calls.
  const auto res2 = coloring::transform_kernel(k, from_ms(0.005));
  EXPECT_EQ(res.extra_registers, res2.extra_registers);
}

}  // namespace
}  // namespace sgdrc
