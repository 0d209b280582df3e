// Tests for the simulated GPU substrate: spec presets (Tab. 1), the hidden
// address mapping (§5.2 structure), L2/DRAM behaviour, and the MMU.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "common/stats.h"
#include "gpusim/device.h"
#include "gpusim/dram.h"
#include "gpusim/gpu_spec.h"
#include "gpusim/hash_mapping.h"
#include "gpusim/l2cache.h"
#include "gpusim/mem_system.h"
#include "gpusim/page_table.h"
#include "gpusim/resources.h"

namespace sgdrc::gpusim {

// Prints a spec parameter as its name. gtest's default printer dumps the
// object's bytes, which hold heap pointers, so the listed test names
// (and the CTest names discovered from them) would change on every run.
static void PrintTo(const GpuSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

// ------------------------------------------------------------ GpuSpec ----

TEST(GpuSpec, Table1Values) {
  const GpuSpec g1080 = gtx1080();
  EXPECT_EQ(g1080.vram_bytes, 8ull << 30);
  EXPECT_EQ(g1080.vram_bus_width_bits, 256u);
  EXPECT_EQ(g1080.num_channels, 8u);

  const GpuSpec p40 = tesla_p40();
  EXPECT_EQ(p40.vram_bytes, 24ull << 30);
  EXPECT_EQ(p40.vram_bus_width_bits, 384u);
  EXPECT_EQ(p40.num_channels, 12u);

  const GpuSpec a2000 = rtx_a2000();
  EXPECT_EQ(a2000.vram_bytes, 12ull << 30);
  EXPECT_EQ(a2000.vram_bus_width_bits, 192u);
  EXPECT_EQ(a2000.num_channels, 6u);
}

TEST(GpuSpec, ChannelCountMatchesBusWidthRule) {
  // Tab. 1 cross-validation: #channels = bus width / width per GDDR unit.
  for (const GpuSpec& s : {gtx1080(), tesla_p40(), rtx_a2000()}) {
    EXPECT_EQ(s.num_channels,
              s.vram_bus_width_bits / s.bus_width_per_gddr_bits)
        << s.name;
  }
}

TEST(GpuSpec, ColoringGranularityRules) {
  // Tab. 4: max granularity = # contiguous channels (group size).
  EXPECT_EQ(gtx1080().max_coloring_granularity_kib(), 4u);
  EXPECT_EQ(tesla_p40().max_coloring_granularity_kib(), 4u);
  EXPECT_EQ(rtx_a2000().max_coloring_granularity_kib(), 2u);
  EXPECT_EQ(rtx_a2000().min_coloring_granularity_kib(), 1u);
}

TEST(GpuSpec, NoiseRatesPerArchitecture) {
  EXPECT_NEAR(tesla_p40().cache_noise_rate, 0.01, 1e-9);   // Pascal ~1%
  EXPECT_NEAR(rtx_a2000().cache_noise_rate, 0.05, 1e-9);   // Ampere ~5%
}

// ----------------------------------------------------- AddressMapping ----

class MappingTest : public ::testing::TestWithParam<GpuSpec> {};

INSTANTIATE_TEST_SUITE_P(AllGpus, MappingTest,
                         ::testing::Values(gtx1080(), tesla_p40(),
                                           rtx_a2000(), test_gpu()),
                         [](const auto& inf) {
                           std::string n = inf.param.name;
                           for (char& c : n)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST_P(MappingTest, PartitionIsChannelAtom) {
  // §5.2: each contiguous 1 KiB belongs to exactly one channel.
  const AddressMapping m(GetParam());
  for (uint64_t part = 0; part < 512; ++part) {
    const PhysAddr base = part * kPartitionBytes;
    const unsigned ch = m.channel_of(base);
    for (uint64_t off = 0; off < kPartitionBytes; off += 64) {
      ASSERT_EQ(m.channel_of(base + off), ch);
    }
  }
}

TEST_P(MappingTest, ChannelsAreUniformlyDistributed) {
  // §5.2: occurrence frequency of each channel ID is equal across VRAM.
  const GpuSpec spec = GetParam();
  const AddressMapping m(spec);
  CategoryHistogram h(spec.num_channels);
  const uint64_t parts = std::min<uint64_t>(spec.partitions(), 200000);
  for (uint64_t p = 0; p < parts; ++p) {
    h.add(m.channel_of(p * kPartitionBytes));
  }
  EXPECT_LT(h.max_uniform_deviation(), 0.08) << spec.name;
}

TEST_P(MappingTest, GroupRegionsAreAligned) {
  // A group-size run of partitions starting at an aligned boundary maps
  // to the channels of exactly one group (Tab. 4's "contiguous channels").
  const GpuSpec spec = GetParam();
  if (spec.linear_hash) GTEST_SKIP() << "layout rule is for the perm family";
  const AddressMapping m(spec);
  const unsigned S = spec.channel_group_size;
  for (uint64_t region = 0; region < 4096; ++region) {
    std::set<unsigned> chans;
    for (unsigned k = 0; k < S; ++k) {
      chans.insert(m.channel_of((region * S + k) * kPartitionBytes));
    }
    ASSERT_EQ(chans.size(), S) << "region " << region;
    // All channels of one group: same group id.
    std::set<unsigned> groups;
    for (unsigned c : chans) groups.insert(m.group_of_channel(c));
    ASSERT_EQ(groups.size(), 1u) << "region " << region;
  }
}

TEST_P(MappingTest, HashDependsOnlyOnBits10To34) {
  // Fig. 10: bits below 10 / above 34 do not affect the channel.
  const AddressMapping m(GetParam());
  for (uint64_t p = 0; p < 2000; ++p) {
    const PhysAddr base = p * kPartitionBytes;
    EXPECT_EQ(m.channel_of(base), m.channel_of(base + 512));
    EXPECT_EQ(m.channel_of(base), m.channel_of(base + 1));
  }
}

TEST_P(MappingTest, DeterministicAcrossInstances) {
  const GpuSpec spec = GetParam();
  const AddressMapping a(spec), b(spec);
  for (uint64_t p = 0; p < 10000; ++p) {
    ASSERT_EQ(a.channel_of(p * kPartitionBytes),
              b.channel_of(p * kPartitionBytes));
  }
}

TEST(AddressMapping, LinearFamilyIsXorLinear) {
  // f(a ^ b) == f(a) ^ f(b) for partition-aligned inputs — the property
  // FGPU's equation system needs (§3.2).
  const AddressMapping m(gtx1080());
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t a = rng.uniform_u64(1ull << 23) << kPartitionBits;
    const uint64_t b = rng.uniform_u64(1ull << 23) << kPartitionBits;
    EXPECT_EQ(m.channel_of(a ^ b), m.channel_of(a) ^ m.channel_of(b));
  }
}

TEST(AddressMapping, PermutationFamilyIsNotXorLinear) {
  // The non-linear family must violate the XOR identity somewhere —
  // this is the precise property that breaks FGPU on P40/A2000.
  for (const GpuSpec& spec : {tesla_p40(), rtx_a2000()}) {
    const AddressMapping m(spec);
    Rng rng(78);
    int violations = 0;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t a = rng.uniform_u64(1ull << 23) << kPartitionBits;
      const uint64_t b = rng.uniform_u64(1ull << 23) << kPartitionBits;
      const unsigned lhs = m.channel_of(a ^ b);
      const unsigned rhs = m.channel_of(a) ^ m.channel_of(b);
      violations += lhs != rhs;
    }
    EXPECT_GT(violations, 100) << spec.name;
  }
}

TEST(AddressMapping, DifferentKeysGiveDifferentLayouts) {
  GpuSpec a = rtx_a2000();
  GpuSpec b = rtx_a2000();
  b.hash_key = a.hash_key + 1;
  const AddressMapping ma(a), mb(b);
  int diff = 0;
  for (uint64_t p = 0; p < 10000; ++p) {
    diff += ma.channel_of(p * kPartitionBytes) !=
            mb.channel_of(p * kPartitionBytes);
  }
  EXPECT_GT(diff, 1000);
}

TEST_P(MappingTest, BankWithinRange) {
  const GpuSpec spec = GetParam();
  const AddressMapping m(spec);
  for (uint64_t p = 0; p < 10000; ++p) {
    ASSERT_LT(m.bank_of(p * kPartitionBytes), spec.dram_banks_per_channel);
  }
}

TEST_P(MappingTest, L2SetGeometry) {
  const GpuSpec spec = GetParam();
  const AddressMapping m(spec);
  EXPECT_EQ(static_cast<uint64_t>(m.l2_sets()) * m.l2_ways() *
                spec.l2_line_bytes * spec.num_channels,
            spec.l2_bytes);
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_LT(m.l2_set_of(i * 128), m.l2_sets());
  }
}

// ------------------------------------------------------------ L2Cache ----

TEST(L2Cache, HitAfterFill) {
  const GpuSpec spec = test_gpu();
  const AddressMapping m(spec);
  L2Cache l2(m, 0.0, 1);
  EXPECT_FALSE(l2.read(0x1000));
  EXPECT_TRUE(l2.read(0x1000));
  EXPECT_TRUE(l2.probe(0x1000));
}

TEST(L2Cache, LruEvictsOldest) {
  const GpuSpec spec = test_gpu();
  const AddressMapping m(spec);
  L2Cache l2(m, 0.0, 1);
  // Find ways+1 addresses in the same (channel, set).
  const unsigned target_ch = m.channel_of(0);
  const unsigned target_set = m.l2_set_of(0);
  std::vector<PhysAddr> same_set{0};
  for (PhysAddr pa = 128; same_set.size() < m.l2_ways() + 1; pa += 128) {
    if (m.channel_of(pa) == target_ch && m.l2_set_of(pa) == target_set) {
      same_set.push_back(pa);
    }
  }
  for (PhysAddr pa : same_set) l2.read(pa);  // fills ways+1 lines
  EXPECT_FALSE(l2.probe(same_set[0]));       // first line evicted (LRU)
  EXPECT_TRUE(l2.probe(same_set.back()));
}

TEST(L2Cache, FlushEmptiesCache) {
  const GpuSpec spec = test_gpu();
  const AddressMapping m(spec);
  L2Cache l2(m, 0.0, 1);
  l2.read(0x2000);
  l2.flush();
  EXPECT_FALSE(l2.probe(0x2000));
}

TEST(L2Cache, NoiseBypassesSomeFills) {
  const GpuSpec spec = test_gpu();
  const AddressMapping m(spec);
  L2Cache noisy(m, 0.10, 42);
  int bypassed = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    const PhysAddr pa = i * 128;
    noisy.read(pa);
    bypassed += !noisy.probe(pa);
  }
  // ~10% of fills skipped (minus later-eviction noise, which this
  // working set is too small to trigger).
  EXPECT_NEAR(bypassed, 500, 120);
}

// --------------------------------------------------------------- Dram ----

TEST(Dram, RowBufferHitTracking) {
  const GpuSpec spec = test_gpu();
  const AddressMapping m(spec);
  Dram dram(m);
  const PhysAddr a = 0;
  EXPECT_FALSE(dram.access(a));  // cold: row miss
  EXPECT_TRUE(dram.access(a));   // open row
  EXPECT_TRUE(dram.access(a + 64));
  dram.reset();
  EXPECT_FALSE(dram.access(a));
}

// ---------------------------------------------------------- MemSystem ----

TEST(MemSystem, HitIsFasterThanMiss) {
  MemSystem ms(test_gpu());
  const auto miss = ms.read(0x4000);
  const auto hit = ms.read(0x4000);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_TRUE(hit.l2_hit);
  EXPECT_GT(miss.latency, hit.latency);
}

TEST(MemSystem, PairReadSeparatesBankConflicts) {
  // The latency gap Algorithm 1 relies on: same channel + same bank +
  // different row must be measurably slower than everything else.
  const GpuSpec spec = test_gpu();
  MemSystem ms(spec);
  const auto& oracle = ms.oracle();

  // Find a (same ch, same bank, diff row) pair and a (diff ch) pair.
  PhysAddr base = 0;
  PhysAddr conflict = 0, unrelated = 0;
  for (PhysAddr pa = kPartitionBytes; pa < (64ull << 20); pa += kPartitionBytes) {
    const bool same_ch = oracle.channel_of(pa) == oracle.channel_of(base);
    if (!conflict && same_ch &&
        oracle.bank_of(pa) == oracle.bank_of(base) &&
        oracle.row_of(pa) != oracle.row_of(base)) {
      conflict = pa;
    }
    if (!unrelated && !same_ch) unrelated = pa;
    if (conflict && unrelated) break;
  }
  ASSERT_NE(conflict, 0u);
  ASSERT_NE(unrelated, 0u);

  ms.flush_l2();
  ms.reset_dram();
  const TimeNs t_conflict = ms.timed_pair_read(base, conflict);
  ms.flush_l2();
  ms.reset_dram();
  const TimeNs t_clean = ms.timed_pair_read(base, unrelated);
  EXPECT_GT(t_conflict, t_clean + spec.bank_conflict_ns / 2);
}

// ---------------------------------------------------------- PageTable ----

TEST(PageTable, TranslateRoundTrip) {
  PageTable pt(64ull << 20, 1);
  const VirtAddr va = pt.alloc(3 * kPageBytes + 100);
  for (uint64_t off = 0; off < 4 * kPageBytes; off += 777) {
    const PhysAddr pa = pt.translate(va + off);
    EXPECT_EQ(page_offset(pa), page_offset(va + off));
  }
}

TEST(PageTable, UnmappedFaults) {
  PageTable pt(64ull << 20, 1);
  EXPECT_THROW(pt.translate(0xdead000), ConfigError);
}

TEST(PageTable, RandomPlacement) {
  // Different seeds => different physical layout (process restart).
  PageTable a(64ull << 20, 1), b(64ull << 20, 2);
  const VirtAddr va_a = a.alloc(32 * kPageBytes);
  const VirtAddr vb = b.alloc(32 * kPageBytes);
  int same = 0;
  for (int p = 0; p < 32; ++p) {
    same += a.translate(va_a + p * kPageBytes) ==
            b.translate(vb + p * kPageBytes);
  }
  EXPECT_LT(same, 4);
}

TEST(PageTable, FreeReturnsFrames) {
  PageTable pt(16ull << 20, 3);
  const uint64_t before = pt.free_frames();
  const VirtAddr va = pt.alloc(8 * kPageBytes);
  EXPECT_EQ(pt.free_frames(), before - 8);
  pt.free(va, 8 * kPageBytes);
  EXPECT_EQ(pt.free_frames(), before);
}

TEST(PageTable, ExternalFramesSurviveUnmap) {
  PageTable pt(16ull << 20, 4);
  const uint64_t pfn = pt.take_free_frame();
  const uint64_t free_after_take = pt.free_frames();
  const VirtAddr va = pt.alloc_va(kPageBytes);
  pt.map_page(va, pfn);
  EXPECT_EQ(pt.translate(va), pfn << kPageBits);
  pt.unmap_page(va);
  // The externally owned frame is NOT put back on the free list.
  EXPECT_EQ(pt.free_frames(), free_after_take);
}

TEST(PageTable, ExhaustionThrows) {
  PageTable pt(4 * kPageBytes, 5);
  pt.alloc(4 * kPageBytes);
  EXPECT_THROW(pt.alloc(kPageBytes), ConfigError);
}

// ------------------------------------------------------------- Device ----

TEST(GpuDevice, RestartChangesVaToChannelMapping) {
  // §5.1: the virtual→channel mapping changes each time the program
  // restarts, which is why reverse engineering works on physical addresses.
  GpuDevice d1(test_gpu(), /*process_seed=*/111);
  GpuDevice d2(test_gpu(), /*process_seed=*/222);
  const VirtAddr va1 = d1.malloc(256 * kPageBytes);
  const VirtAddr va2 = d2.malloc(256 * kPageBytes);
  int same = 0, total = 0;
  for (uint64_t off = 0; off < 256 * kPageBytes; off += kPartitionBytes) {
    same += d1.oracle().channel_of(d1.pa_of(va1 + off)) ==
            d2.oracle().channel_of(d2.pa_of(va2 + off));
    ++total;
  }
  // Channels agree only at chance level (~1/num_channels), not ~100%.
  EXPECT_LT(same, total / 2);
}

TEST(GpuDevice, OracleStableWithinProcess) {
  GpuDevice d(test_gpu(), 9);
  const VirtAddr va = d.malloc(kPageBytes);
  const PhysAddr pa = d.pa_of(va);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.pa_of(va), pa);
  }
}

TEST(Resources, FullWidthMasksAreAllOnes) {
  // 32-channel / 64-TPC parts must not trip the 1<<width UB; the helpers
  // return the all-ones mask instead.
  EXPECT_EQ(all_channels(32), ~ChannelSet{0});
  EXPECT_EQ(channel_count(all_channels(32)), 32u);
  EXPECT_EQ(full_tpc_mask(64), ~TpcMask{0});
  EXPECT_EQ(tpc_count(full_tpc_mask(64)), 64u);
  EXPECT_EQ(tpc_range(0, 64), ~TpcMask{0});
  // Smaller widths keep their exact semantics.
  EXPECT_EQ(all_channels(6), 0x3Fu);
  EXPECT_EQ(full_tpc_mask(30), (TpcMask{1} << 30) - 1);
  EXPECT_EQ(tpc_range(4, 2), TpcMask{0x30});
  EXPECT_EQ(tpc_range(10, 0), TpcMask{0});
  // Out-of-range widths are still rejected.
  EXPECT_THROW(all_channels(0), ConfigError);
  EXPECT_THROW(all_channels(33), ConfigError);
  EXPECT_THROW(full_tpc_mask(65), ConfigError);
  EXPECT_THROW(tpc_range(60, 5), ConfigError);
}

}  // namespace
}  // namespace sgdrc::gpusim
