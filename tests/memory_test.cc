// Tests for GPU memory virtualization: PageTable/UvmMemoryPool frame
// accounting (the reservation substrate), the MemoryManager residency
// state machine (cold starts, LRU-vs-FIFO eviction, quota protection,
// trespass counting, oversubscribed paging), the serving-layer wiring
// (cold-start gating, paging holds, the vram_bytes == 0 unmodeled
// regression), and fleet-level determinism of memory-enabled scenario
// runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/profiler.h"
#include "core/sgdrc_policy.h"
#include "driver/uvm_pool.h"
#include "fleet/fleet.h"
#include "memory/memory.h"
#include "models/zoo.h"
#include "workload/scenario.h"

namespace sgdrc::memory {
namespace {

using gpusim::GpuDevice;
using gpusim::kPageBytes;
using gpusim::PageTable;

constexpr uint64_t kMiB = 1ull << 20;

MemoryOptions enabled_options() {
  MemoryOptions o;
  o.enabled = true;
  return o;
}

/// A busy probe over a mutable set-like vector, for tests that flip a
/// tenant between idle and mid-request.
MemoryManager::BusyFn busy_none() {
  return [](workload::TenantId) { return false; };
}

// ----------------------------------------------------- PageTable ----

TEST(PageTableMemory, FrameAccountingConservesAcrossAllocFreeCycles) {
  PageTable pt(64 * kPageBytes, /*seed=*/7);
  const uint64_t total = pt.total_frames();
  ASSERT_EQ(total, 64u);
  EXPECT_EQ(pt.free_frames(), total);
  for (int cycle = 0; cycle < 5; ++cycle) {
    const auto a = pt.alloc(10 * kPageBytes);
    const auto b = pt.alloc(3 * kPageBytes + 1);  // rounds up to 4 frames
    EXPECT_EQ(pt.free_frames(), total - 14);
    EXPECT_EQ(pt.mapped_pages(), 14u);
    pt.free(a, 10 * kPageBytes);
    pt.free(b, 3 * kPageBytes + 1);
    EXPECT_EQ(pt.free_frames(), total);
    EXPECT_EQ(pt.mapped_pages(), 0u);
  }
}

TEST(PageTableMemory, AllocFailsWholeWhenFramesRunOut) {
  PageTable pt(8 * kPageBytes, /*seed=*/11);
  const auto a = pt.alloc(6 * kPageBytes);
  // Needs 4 frames, only 2 left: the REQUIRE fires before any frame is
  // consumed, so the allocator never partially drains the free list.
  EXPECT_THROW(pt.alloc(4 * kPageBytes), ConfigError);
  EXPECT_EQ(pt.free_frames(), 2u);
  pt.free(a, 6 * kPageBytes);
  EXPECT_NO_THROW(pt.alloc(8 * kPageBytes));
}

TEST(PageTableMemory, TakeFreeFrameExhaustsThenThrows) {
  PageTable pt(4 * kPageBytes, /*seed=*/13);
  std::vector<uint64_t> taken;
  for (int i = 0; i < 4; ++i) taken.push_back(pt.take_free_frame());
  EXPECT_EQ(pt.free_frames(), 0u);
  EXPECT_THROW(pt.take_free_frame(), ConfigError);
  // Releasing restores the frame for both reservation and allocation.
  pt.release_frame(taken.back());
  EXPECT_EQ(pt.free_frames(), 1u);
  EXPECT_NO_THROW(pt.alloc(kPageBytes));
}

// ------------------------------------------------- UvmMemoryPool ----

driver::UvmPoolOptions oracle_pool_options(GpuDevice& dev, uint64_t bytes,
                                           unsigned gran_kib) {
  driver::UvmPoolOptions opt;
  opt.pool_bytes = bytes;
  opt.granularity_kib = gran_kib;
  opt.channel_of = [&dev](gpusim::PhysAddr pa) {
    return static_cast<int>(dev.oracle().channel_of(pa));
  };
  return opt;
}

TEST(UvmPoolMemory, ChunkAccountingConservesAcrossAllocReleaseCycles) {
  GpuDevice dev(gpusim::test_gpu(), /*seed=*/17);
  driver::UvmMemoryPool pool(dev, oracle_pool_options(dev, 8 * kMiB, 2));
  const auto any = gpusim::all_channels(gpusim::test_gpu().num_channels);
  const uint64_t free0 = pool.free_chunks(any);
  ASSERT_GT(free0, 0u);
  for (int cycle = 0; cycle < 4; ++cycle) {
    driver::ColoredBuffer a = pool.allocate(1 * kMiB, any);
    driver::ColoredBuffer b = pool.allocate(2 * kMiB, any);
    EXPECT_EQ(pool.free_chunks(any),
              free0 - (3 * kMiB) / pool.sector_bytes());
    pool.release(a);
    pool.release(b);
    EXPECT_EQ(pool.free_chunks(any), free0);
  }
}

TEST(UvmPoolMemory, ReturnsItsFramesToTheDeviceOnDestruction) {
  GpuDevice dev(gpusim::test_gpu(), /*seed=*/19);
  const uint64_t free0 = dev.page_table().free_frames();
  {
    driver::UvmMemoryPool pool(dev, oracle_pool_options(dev, 4 * kMiB, 2));
    EXPECT_EQ(dev.page_table().free_frames(),
              free0 - (4 * kMiB) / kPageBytes);
  }
  EXPECT_EQ(dev.page_table().free_frames(), free0);
}

TEST(UvmPoolMemory, ExhaustionThrowsAtomicallyAndReleaseRestores) {
  GpuDevice dev(gpusim::test_gpu(), /*seed=*/23);
  driver::UvmMemoryPool pool(dev, oracle_pool_options(dev, 2 * kMiB, 2));
  const auto any = gpusim::all_channels(gpusim::test_gpu().num_channels);
  const uint64_t free0 = pool.free_chunks(any);
  // A buffer's chunks must all share one sector id, and one sector id
  // only covers half the pool's chunks — a whole-pool request can never
  // be satisfied, and the failed allocation must not leak any chunks.
  EXPECT_THROW(pool.allocate(2 * kMiB, any), ConfigError);
  EXPECT_EQ(pool.free_chunks(any), free0);
  driver::ColoredBuffer a = pool.allocate(256 * 1024, any);
  EXPECT_EQ(pool.free_chunks(any), free0 - (256 * 1024) / pool.sector_bytes());
  pool.release(a);
  EXPECT_EQ(pool.free_chunks(any), free0);
}

// ------------------------------------------------- MemoryManager ----

TEST(MemoryManager, ColdStartLoadThenWarm) {
  MemoryManager mm(64 * kMiB, enabled_options(), /*seed=*/29);
  mm.add_replica(0, 16 * kMiB, 0, 0, busy_none());
  EXPECT_EQ(mm.residency(0), Residency::kCold);

  const auto t1 = mm.request(0, 100, busy_none());
  EXPECT_EQ(t1.kind, MemoryManager::Touch::Kind::kLoadStarted);
  EXPECT_EQ(t1.delay, mm.load_time(16 * kMiB));
  EXPECT_EQ(mm.residency(0), Residency::kLoading);
  // A second request mid-DMA keeps waiting on the same load.
  EXPECT_EQ(mm.request(0, 200, busy_none()).kind,
            MemoryManager::Touch::Kind::kLoading);

  mm.finish_load(0, 100 + t1.delay);
  EXPECT_EQ(mm.residency(0), Residency::kWarm);
  EXPECT_EQ(mm.request(0, 500, busy_none()).kind,
            MemoryManager::Touch::Kind::kReady);
  EXPECT_EQ(mm.loads(), 1u);
  EXPECT_EQ(mm.evictions(), 0u);
}

TEST(MemoryManager, UnregisteredTenantIsUnmodeled) {
  MemoryManager mm(64 * kMiB, enabled_options(), /*seed=*/31);
  EXPECT_EQ(mm.residency(42), Residency::kUnmodeled);
  mm.note_use(42, 100);  // must be a harmless no-op
}

TEST(MemoryManager, LruEvictsLeastRecentlyUsedIdleReplica) {
  // Capacity fits two 16 MiB replicas (44 MiB would hold 2, not 3).
  MemoryManager mm(36 * kMiB, enabled_options(), /*seed=*/37);
  mm.add_replica(0, 16 * kMiB, 0, 0, busy_none());
  mm.add_replica(1, 16 * kMiB, 0, 0, busy_none());
  for (workload::TenantId t : {0u, 1u}) {
    const auto touch = mm.request(t, 10 + t, busy_none());
    ASSERT_EQ(touch.kind, MemoryManager::Touch::Kind::kLoadStarted);
    mm.finish_load(t, 100 + t);
  }
  mm.note_use(0, 1000);  // tenant 1 is now the least recent
  mm.add_replica(2, 16 * kMiB, 0, 0, busy_none());
  const auto t2 = mm.request(2, 2000, busy_none());
  EXPECT_EQ(t2.kind, MemoryManager::Touch::Kind::kLoadStarted);
  EXPECT_EQ(mm.residency(1), Residency::kCold);  // evicted
  EXPECT_EQ(mm.residency(0), Residency::kWarm);  // survived (recent)
  EXPECT_GE(mm.evictions(), 1u);
}

TEST(MemoryManager, BusyAndQuotaProtectedReplicasAreNeverEvicted) {
  MemoryManager mm(36 * kMiB, enabled_options(), /*seed=*/41);
  // Tenant 0: within its declared quota. Tenant 1: busy.
  mm.add_replica(0, 16 * kMiB, 0, /*quota=*/16 * kMiB, busy_none());
  mm.add_replica(1, 16 * kMiB, 0, 0, busy_none());
  for (workload::TenantId t : {0u, 1u}) {
    mm.request(t, 10 + t, busy_none());
    mm.finish_load(t, 100 + t);
  }
  const auto busy1 = [](workload::TenantId t) { return t == 1; };
  mm.add_replica(2, 16 * kMiB, 0, 0, busy1);
  // Strict mode with no legal victim: the request waits — and crucially
  // nothing was evicted speculatively.
  const auto t2 = mm.request(2, 2000, busy1);
  EXPECT_EQ(t2.kind, MemoryManager::Touch::Kind::kWaiting);
  EXPECT_EQ(mm.evictions(), 0u);
  EXPECT_EQ(mm.residency(0), Residency::kWarm);
  EXPECT_EQ(mm.residency(1), Residency::kWarm);
  // Tenant 1 goes idle: the retry can now evict it and start the load.
  const auto t3 = mm.request(2, 3000, busy_none());
  EXPECT_EQ(t3.kind, MemoryManager::Touch::Kind::kLoadStarted);
  EXPECT_EQ(mm.residency(1), Residency::kCold);
  EXPECT_EQ(mm.residency(0), Residency::kWarm);  // quota still shields it
}

TEST(MemoryManager, FifoEvictsFirstLoadedEvenWhenBusyOrProtected) {
  MemoryOptions opt = enabled_options();
  opt.evict = EvictPolicy::kFifo;
  MemoryManager mm(36 * kMiB, opt, /*seed=*/43);
  mm.add_replica(0, 16 * kMiB, /*priority=*/5, /*quota=*/16 * kMiB,
                 busy_none());
  mm.add_replica(1, 16 * kMiB, 0, 0, busy_none());
  for (workload::TenantId t : {0u, 1u}) {
    mm.request(t, 10 + t, busy_none());
    mm.finish_load(t, 100 + t);
  }
  const auto busy0 = [](workload::TenantId t) { return t == 0; };
  mm.add_replica(2, 16 * kMiB, 0, 0, busy0);
  const auto t2 = mm.request(2, 2000, busy0);
  // FIFO is blind: tenant 0 loaded first, so it goes — busy, priority,
  // and quota notwithstanding. (This is the naive baseline's footgun.)
  EXPECT_EQ(t2.kind, MemoryManager::Touch::Kind::kLoadStarted);
  EXPECT_EQ(mm.residency(0), Residency::kCold);
  EXPECT_EQ(mm.residency(1), Residency::kWarm);
}

TEST(MemoryManager, LoadPastOwnQuotaCountsTrespass) {
  MemoryManager mm(64 * kMiB, enabled_options(), /*seed=*/47);
  workload::TenantId trespasser = 99;
  mm.on_trespass([&](workload::TenantId t) { trespasser = t; });
  mm.add_replica(0, 16 * kMiB, 0, /*quota=*/8 * kMiB, busy_none());
  mm.request(0, 10, busy_none());
  EXPECT_EQ(mm.trespasses(), 1u);
  EXPECT_EQ(trespasser, 0u);
  // Within-quota loads never trespass.
  mm.add_replica(1, 4 * kMiB, 0, /*quota=*/8 * kMiB, busy_none());
  mm.request(1, 20, busy_none());
  EXPECT_EQ(mm.trespasses(), 1u);
}

TEST(MemoryManager, StrictModeRejectsReplicaThatCanNeverFit) {
  MemoryManager mm(16 * kMiB, enabled_options(), /*seed=*/53);
  EXPECT_THROW(mm.add_replica(0, 64 * kMiB, 0, 0, busy_none()),
               ConfigError);
}

TEST(MemoryManager, OversubscribeDegradesToPagingAndPromotesLater) {
  MemoryOptions opt = enabled_options();
  opt.oversubscribe = true;
  MemoryManager mm(24 * kMiB, opt, /*seed=*/59);
  // The staging window is carved out of the same frame pool.
  EXPECT_LT(mm.page_table().free_frames(), mm.page_table().total_frames());

  mm.add_replica(0, 16 * kMiB, 0, 0, busy_none());
  mm.request(0, 10, busy_none());
  mm.finish_load(0, 100);
  const auto busy0 = [](workload::TenantId t) { return t == 0; };
  // No capacity and the only victim is busy: registration degrades the
  // replica to demand paging instead of waiting (the oversubscribed
  // contract), and requests keep paying the restream while stuck there.
  mm.add_replica(1, 16 * kMiB, 0, 0, busy0);
  EXPECT_EQ(mm.residency(1), Residency::kPaged);
  const auto t1 = mm.request(1, 200, busy0);
  EXPECT_EQ(t1.kind, MemoryManager::Touch::Kind::kPagedStill);
  // Paging restreams the weights per request, far slower than the
  // one-off DMA of the same bytes.
  EXPECT_GT(mm.page_penalty(1), 0);
  EXPECT_GT(mm.page_penalty(1), mm.load_time(16 * kMiB));
  // Pressure eases (tenant 0 idles): the next request promotes the
  // paged replica to a real resident load.
  const auto t2 = mm.request(1, 300, busy_none());
  EXPECT_EQ(t2.kind, MemoryManager::Touch::Kind::kLoadStarted);
  EXPECT_EQ(t2.delay, mm.load_time(16 * kMiB));
  mm.finish_load(1, 400);
  EXPECT_EQ(mm.residency(1), Residency::kWarm);
  EXPECT_EQ(mm.residency(0), Residency::kCold);  // evicted for the promote

  // And the flip side: an *evicted* (cold, unallocated) replica whose
  // request finds no legal victim degrades at request time, charging the
  // restream to the requests already in the system.
  const auto busy1 = [](workload::TenantId t) { return t == 1; };
  const auto t3 = mm.request(0, 500, busy1);
  EXPECT_EQ(t3.kind, MemoryManager::Touch::Kind::kPagedNow);
  EXPECT_EQ(t3.delay, mm.page_penalty(0));
  EXPECT_EQ(mm.residency(0), Residency::kPaged);
}

TEST(MemoryManager, ResidentBytesConserveAcrossRegisterRetireCycles) {
  MemoryManager mm(64 * kMiB, enabled_options(), /*seed=*/61);
  const uint64_t free0 = mm.page_table().free_frames();
  for (workload::TenantId t = 0; t < 3; ++t) {
    mm.add_replica(t, 8 * kMiB, 0, 0, busy_none());
    mm.request(t, 10 + t, busy_none());
    mm.finish_load(t, 100 + t);
  }
  EXPECT_EQ(mm.resident_bytes(), 24 * kMiB);
  for (workload::TenantId t = 0; t < 3; ++t) {
    mm.retire_replica(t, busy_none());
  }
  EXPECT_EQ(mm.resident_bytes(), 0u);
  EXPECT_EQ(mm.page_table().free_frames(), free0);
}

TEST(MemoryManager, ReloadsMapIntoTheReplicasOneVaRange) {
  // Two 24 MiB replicas on 36 MiB: each load evicts the other.
  constexpr uint64_t kVram = 36 * kMiB;
  constexpr uint64_t kWeights = 24 * kMiB;
  constexpr uint64_t kSeed = 67;
  MemoryManager mm(kVram, enabled_options(), kSeed);
  const PageTable& pt = mm.page_table();
  mm.add_replica(0, kWeights, 0, 0, busy_none());
  // Registration draws replica 0's frames exactly as a plain alloc on
  // an identically seeded table does.
  PageTable plain(kVram, kSeed);
  const gpusim::VirtAddr base = plain.alloc(kWeights);
  for (uint64_t p = 0; p < kWeights / kPageBytes; ++p) {
    ASSERT_EQ(pt.translate(base + p * kPageBytes),
              plain.translate(base + p * kPageBytes));
  }
  mm.add_replica(1, kWeights, 0, 0, busy_none());
  ASSERT_EQ(mm.evictions(), 1u);
  const uint64_t vpns = pt.table_vpns();
  const uint64_t mapped = pt.mapped_pages();
  const uint64_t free = pt.free_frames();
  EXPECT_EQ(vpns, 1 + 2 * kWeights / kPageBytes);  // VA page 0 stays null
  TimeNs now = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (const workload::TenantId t : {0u, 1u}) {
      now += 100;
      ASSERT_EQ(mm.request(t, now, busy_none()).kind,
                MemoryManager::Touch::Kind::kLoadStarted);
      mm.finish_load(t, now);
    }
    EXPECT_EQ(pt.table_vpns(), vpns);
    EXPECT_EQ(pt.mapped_pages(), mapped);
    EXPECT_EQ(pt.free_frames(), free);
  }
  EXPECT_EQ(mm.loads(), 16u);
  EXPECT_EQ(mm.evictions(), 17u);
}

// -------------------------------------------- serving integration ----

struct ServingZoo {
  gpusim::GpuSpec spec = gpusim::test_gpu();
  models::ModelDesc ls_a = models::make_model('A');
  models::ModelDesc ls_b = models::make_model('B');
  TimeNs iso_a = 0, iso_b = 0;
  ServingZoo() {
    core::OfflineProfiler prof(spec);
    for (auto* m : {&ls_a, &ls_b}) prof.profile(*m);
    iso_a = prof.isolated_latency(ls_a);
    iso_b = prof.isolated_latency(ls_b);
  }
};

const ServingZoo& szoo() {
  static const ServingZoo z;
  return z;
}

std::vector<workload::Request> steady_trace(unsigned n, TimeNs spacing) {
  std::vector<workload::Request> t;
  for (unsigned i = 0; i < n; ++i) t.push_back({i * spacing, 0});
  return t;
}

TEST(ServingMemory, FirstRequestPaysTheColdStartLoad) {
  const auto& z = szoo();
  MemoryOptions mem = enabled_options();
  core::SgdrcPolicy policy(z.spec);
  auto sim = core::ServingSimBuilder()
                 .gpu(z.spec)
                 .duration(100 * kNsPerMs)
                 .slo_multiplier(50.0)
                 .memory(mem)
                 .add_latency_sensitive(z.ls_a, z.iso_a)
                 .build(policy);
  ASSERT_NE(sim->memory(), nullptr);
  const auto m = sim->run(steady_trace(20, 2 * kNsPerMs));
  const auto& t0 = m.tenants[0];
  EXPECT_EQ(t0.weight_loads, 1u);  // one cold start, then warm all run
  ASSERT_GE(t0.cold_latency.count(), 1u);
  EXPECT_EQ(t0.weight_evictions, 0u);
  EXPECT_EQ(t0.paged_requests, 0u);
  // The cold request really waited for the DMA.
  const double load_ns = static_cast<double>(
      MemoryManager(z.spec.vram_bytes, mem, 0).load_time(
          z.ls_a.weight_bytes()));
  EXPECT_GE(t0.cold_latency.max(), load_ns);
}

TEST(ServingMemory, PagedRequestsRunAfterTheirRestream) {
  // A's and B's weights never fit together in 12 MiB, so with
  // oversubscription a replica that finds no legal victim degrades to
  // demand paging: each of its requests is held for the restream, then
  // runs. Every request is still served.
  const auto& z = szoo();
  MemoryOptions mem = enabled_options();
  mem.oversubscribe = true;
  mem.vram_bytes_override = 12 * kMiB;
  core::SgdrcPolicy policy(z.spec);
  auto sim = core::ServingSimBuilder()
                 .gpu(z.spec)
                 .duration(200 * kNsPerMs)
                 .slo_multiplier(50.0)
                 .memory(mem)
                 .add_latency_sensitive(z.ls_a, z.iso_a)
                 .add_latency_sensitive(z.ls_b, z.iso_b)
                 .build(policy);
  // A every 2 ms from 0 (40 requests), B every 8 ms from 10 ms (10).
  std::vector<workload::Request> trace;
  for (TimeNs ms = 0; ms <= 82; ++ms) {
    if (ms % 2 == 0 && ms < 80) trace.push_back({ms * kNsPerMs, 0});
    if (ms >= 10 && (ms - 10) % 8 == 0) trace.push_back({ms * kNsPerMs, 1});
  }
  const auto m = sim->run(trace);
  EXPECT_EQ(m.tenants[0].served, 40u);
  EXPECT_EQ(m.tenants[1].served, 10u);
  EXPECT_GT(m.tenants[0].paged_requests, 0u);
  // Most of B's cold requests paged, so their median waited out the
  // restream before running for at least the isolated latency.
  const auto& b = m.tenants[1];
  ASSERT_GT(2 * b.paged_requests, b.cold_latency.count());
  EXPECT_GE(b.cold_latency.p50(),
            static_cast<double>(sim->memory()->page_penalty(1) + z.iso_b));
}

TEST(ServingMemory, ZeroVramMeansUnmodeledNotInstantOom) {
  // The latent footgun: memory modeling enabled on a device whose spec
  // leaves vram_bytes == 0 (common for hand-built GpuSpecs) must mean
  // "capacity unmodeled", not a zero-byte VRAM that rejects everyone.
  const auto& z = szoo();
  gpusim::GpuSpec no_vram = z.spec;
  no_vram.vram_bytes = 0;
  core::SgdrcPolicy policy(no_vram);
  auto sim = core::ServingSimBuilder()
                 .gpu(no_vram)
                 .duration(50 * kNsPerMs)
                 .slo_multiplier(50.0)
                 .memory(enabled_options())
                 .add_latency_sensitive(z.ls_a, z.iso_a)
                 .build(policy);
  EXPECT_EQ(sim->memory(), nullptr);
  EXPECT_EQ(sim->residency_of(0), Residency::kUnmodeled);
  const auto m = sim->run(steady_trace(10, 2 * kNsPerMs));
  EXPECT_EQ(m.tenants[0].weight_loads, 0u);
  EXPECT_EQ(m.tenants[0].cold_latency.count(), 0u);
  EXPECT_GT(m.tenants[0].served, 0u);
}

TEST(ServingMemory, DisabledMemoryMatchesUnmodeledRunExactly) {
  // The memory subsystem must be invisible when off: identical metrics
  // with the flag off and with the flag on against an unmodeled device.
  const auto& z = szoo();
  const auto run_with = [&](const MemoryOptions& mem, uint64_t vram) {
    gpusim::GpuSpec spec = z.spec;
    spec.vram_bytes = vram;
    core::SgdrcPolicy policy(spec);
    auto sim = core::ServingSimBuilder()
                   .gpu(spec)
                   .duration(50 * kNsPerMs)
                   .slo_multiplier(50.0)
                   .memory(mem)
                   .add_latency_sensitive(z.ls_a, z.iso_a)
                   .add_latency_sensitive(z.ls_b, z.iso_b)
                   .build(policy);
    std::vector<workload::Request> trace;
    for (unsigned i = 0; i < 30; ++i) {
      trace.push_back({i * kNsPerMs, i % 2});
    }
    return sim->run(trace);
  };
  const auto off = run_with(MemoryOptions{}, z.spec.vram_bytes);
  const auto unmodeled = run_with(enabled_options(), 0);
  ASSERT_EQ(off.tenants.size(), unmodeled.tenants.size());
  for (size_t t = 0; t < off.tenants.size(); ++t) {
    EXPECT_EQ(off.tenants[t].served,
              unmodeled.tenants[t].served);
    ASSERT_EQ(off.tenants[t].latency.count(),
              unmodeled.tenants[t].latency.count());
    if (!off.tenants[t].latency.empty()) {
      EXPECT_EQ(off.tenants[t].latency.p99(),
                unmodeled.tenants[t].latency.p99());
    }
  }
}

TEST(ServingMemory, QuotaBudgetValidatorRejectsOvercommit) {
  const auto& z = szoo();
  core::SgdrcPolicy policy(z.spec);
  core::ServingSimBuilder b;
  b.gpu(z.spec)
      .duration(10 * kNsPerMs)
      .slo_multiplier(50.0)
      .memory(enabled_options());
  core::TenantSpec big = core::latency_sensitive_tenant(z.ls_a, z.iso_a);
  big.vgpu.memory_bytes = z.spec.vram_bytes;  // claims the whole device
  core::TenantSpec more = core::latency_sensitive_tenant(z.ls_b, z.iso_b);
  more.vgpu.memory_bytes = 1 * kMiB;  // pushes the sum over
  b.add_tenant(big).add_tenant(more);
  EXPECT_THROW(b.build(policy), ConfigError);
}

// --------------------------------------------- fleet determinism ----

TEST(FleetMemory, ModelZooScenarioIsBitIdenticalAcrossReruns) {
  const auto& z = szoo();
  workload::ScenarioCatalogOptions copt;
  copt.duration = 120 * kNsPerMs;
  copt.devices = 2;
  copt.initial_tenants = 2;
  copt.make_ls_arrival = [&](unsigned) {
    return workload::ScenarioTenant{
        core::latency_sensitive_tenant(z.ls_b, z.iso_b), 150.0, 2};
  };
  copt.model_zoo_memory.enabled = true;
  copt.model_zoo_memory.vram_bytes_override = 24 * kMiB;
  copt.model_zoo_memory.oversubscribe = true;
  const auto catalog = workload::scenario_catalog(copt);
  const workload::Scenario* sc = nullptr;
  for (const auto& s : catalog) {
    if (s.name() == "model-zoo") sc = &s;
  }
  ASSERT_NE(sc, nullptr);
  ASSERT_TRUE(sc->memory_options().enabled);

  const auto run_once = [&] {
    workload::ScenarioEngineConfig ecfg;
    ecfg.spec = z.spec;
    ecfg.slo_multiplier = 8.0;
    ecfg.seed = 0x5ce0;
    std::vector<workload::ScenarioTenant> initial{
        {core::latency_sensitive_tenant(z.ls_a, z.iso_a), 150.0, 2},
        {core::latency_sensitive_tenant(z.ls_b, z.iso_b), 150.0, 2}};
    fleet::SpreadPlacement placement;
    fleet::WarmWeightRouter router;
    return workload::run_scenario(
        *sc, initial, ecfg, placement, router,
        [](const gpusim::GpuSpec& spec)
            -> std::unique_ptr<control::Controller> {
          return std::make_unique<core::SgdrcPolicy>(spec);
        });
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.metrics.weight_loads(), 0u);  // the zoo really churns
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.metrics.weight_loads(), b.metrics.weight_loads());
  EXPECT_EQ(a.metrics.weight_evictions(), b.metrics.weight_evictions());
  EXPECT_EQ(a.metrics.paged_requests(), b.metrics.paged_requests());
  EXPECT_EQ(a.metrics.cold_requests(), b.metrics.cold_requests());
  EXPECT_EQ(a.metrics.fleet_p99_ms(), b.metrics.fleet_p99_ms());
  if (a.metrics.cold_requests() > 0) {
    EXPECT_EQ(a.metrics.cold_start_p99_ms(), b.metrics.cold_start_p99_ms());
  }
}

TEST(FleetMemory, WarmRouterDegradesToLeastOutstandingWithoutMemory) {
  // On a memory-less fleet every replica reads kUnmodeled, so the warm
  // router must make exactly the least-outstanding choices: same routed
  // counts, same metrics.
  const auto& z = szoo();
  const auto run_with = [&](fleet::Router& router) {
    fleet::FleetConfig fcfg;
    fcfg.spec = z.spec;
    fcfg.devices = 2;
    fcfg.duration = 60 * kNsPerMs;
    fcfg.slo_multiplier = 8.0;
    fcfg.seed = 0xfee1;
    std::vector<fleet::FleetTenantSpec> tenants{
        fleet::replicated(core::latency_sensitive_tenant(z.ls_a, z.iso_a),
                          2),
        fleet::replicated(core::latency_sensitive_tenant(z.ls_b, z.iso_b),
                          2)};
    fleet::SpreadPlacement placement;
    fleet::FleetSim sim(fcfg, std::move(tenants), placement, router,
                        [](const gpusim::GpuSpec& spec)
                            -> std::unique_ptr<control::Controller> {
                          return std::make_unique<core::SgdrcPolicy>(spec);
                        });
    std::vector<workload::Request> trace;
    for (unsigned i = 0; i < 200; ++i) {
      trace.push_back({i * (kNsPerMs / 4), i % 2});
    }
    return sim.run(trace);
  };
  fleet::WarmWeightRouter warm;
  fleet::LeastOutstandingRouter lo;
  const auto a = run_with(warm);
  const auto b = run_with(lo);
  ASSERT_EQ(a.routed.size(), b.routed.size());
  for (size_t d = 0; d < a.routed.size(); ++d) {
    EXPECT_EQ(a.routed[d], b.routed[d]) << "device " << d;
  }
  EXPECT_EQ(a.fleet_p99_ms(), b.fleet_p99_ms());
  EXPECT_EQ(a.weight_loads(), 0u);
}

}  // namespace
}  // namespace sgdrc::memory
