// Unit + property tests for the common utility layer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bitops.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace sgdrc {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_u64(13), 13u);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(11);
  CategoryHistogram h(10);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform_u64(10));
  EXPECT_LT(h.max_uniform_deviation(), 0.05);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(5);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// -------------------------------------------------------------- Stats ----

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Samples, NearestRankPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.p50(), 50.0);
  EXPECT_DOUBLE_EQ(s.p99(), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
}

TEST(Samples, PercentileSingleElement) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(Samples, FractionAtMost) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(5.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(0.5).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(10.0).value(), 1.0);
}

// Regression: an empty sample set used to report fraction 1.0 — a tenant
// that served zero requests claimed 100% SLO attainment and vacuously
// passed the CI slo_ok gate. No data must be explicit.
TEST(Samples, FractionAtMostOfEmptyIsNoData) {
  Samples s;
  EXPECT_FALSE(s.fraction_at_most(5.0).has_value());
  s.add(1.0);
  EXPECT_TRUE(s.fraction_at_most(5.0).has_value());
}

TEST(Samples, CdfIsMonotone) {
  Samples s;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) s.add(rng.uniform());
  auto cdf = s.cdf(50);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Samples, PercentileOfEmptyThrows) {
  Samples s;
  EXPECT_THROW(s.p99(), ConfigError);
}

TEST(CategoryHistogram, ChiSquaredDetectsSkew) {
  CategoryHistogram uniform(4), skewed(4);
  Rng rng(23);
  for (int i = 0; i < 40000; ++i) {
    uniform.add(rng.uniform_u64(4));
    skewed.add(rng.bernoulli(0.7) ? 0 : rng.uniform_u64(4));
  }
  EXPECT_LT(uniform.chi_squared_uniform(), 20.0);
  EXPECT_GT(skewed.chi_squared_uniform(), 1000.0);
}

// ------------------------------------------------------------- Bitops ----

TEST(Bitops, MaskedParity) {
  EXPECT_EQ(masked_parity(0b1011, 0b1111), 1u);
  EXPECT_EQ(masked_parity(0b1011, 0b0011), 0u);
  EXPECT_EQ(masked_parity(0, ~0ull), 0u);
}

TEST(Bitops, ExtractBits) {
  EXPECT_EQ(extract_bits(0xFF00, 8, 15), 0xFFull);
  EXPECT_EQ(extract_bits(0b101100, 2, 3), 0b11ull);
  EXPECT_EQ(extract_bits(~0ull, 0, 63), ~0ull);
}

TEST(Bitops, CeilLog2AndPow2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_FALSE(is_pow2(0));
}

TEST(Bitops, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

// ----------------------------------------------------------- SimTime ----

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_ms(1.5), 1'500'000ull);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_EQ(from_us(2.0), 2000ull);
  EXPECT_DOUBLE_EQ(to_sec(kNsPerSec), 1.0);
}

TEST(SimTime, Format) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(from_us(1.5)), "1.50us");
  EXPECT_EQ(format_time(from_ms(2.25)), "2.250ms");
}

// --------------------------------------------------------- EventQueue ----

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule_at(5, [&] { ++fired; });
  q.schedule_at(6, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel is a no-op
  q.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.schedule_at(1, [] {});
  q.run_all();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.schedule_at(30, [&] { order.push_back(3); });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_after(10, chain);
  };
  q.schedule_at(0, chain);
  q.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(50, [] {}), InvariantError);
}

// Regression: bookkeeping used to grow one tombstone slot per event ever
// scheduled, leaking memory linearly over a multi-hour run. Slots must be
// bounded by *peak concurrent pending*, not total throughput.
TEST(EventQueue, SlotMemoryBoundedAcrossMillionsOfEvents) {
  EventQueue q;
  constexpr size_t kBatch = 64;
  constexpr size_t kRounds = 40'000;  // 2.56M events total
  uint64_t fired = 0;
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<EventId> ids;
    ids.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      ids.push_back(q.schedule_after(1 + i, [&] { ++fired; }));
    }
    q.cancel(ids[0]);  // mix cancellations into the churn
    q.run_all();
  }
  EXPECT_EQ(fired, kRounds * (kBatch - 1));
  EXPECT_TRUE(q.empty());
  // Peak pending is kBatch; a healthy pool stays within a small constant
  // of that. The pre-fix implementation would report 2'560'000 here.
  EXPECT_LE(q.slot_count(), 2 * kBatch);
}

TEST(EventQueue, StaleIdCannotCancelASlotReuse) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule_at(5, [&] { ++fired; });
  ASSERT_TRUE(q.cancel(a));
  // The slot is recycled by the next event; the stale id must not reach it.
  const EventId b = q.schedule_at(6, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(a));
  q.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(q.cancel(b));  // already fired
}

// Regression: the first event a queue scheduled got id 0, so a holder
// that cancels its default-initialised EventId{} before its first
// schedule silently cancelled someone else's event.
TEST(EventQueue, DefaultEventIdNeverCancelsALiveEvent) {
  EventQueue q;
  int fired = 0;
  for (int round = 0; round < 3; ++round) {  // slot 0 is reused each round
    const EventId id = q.schedule_after(1, [&] { ++fired; });
    EXPECT_NE(id, EventId{});
    EXPECT_FALSE(q.cancel(EventId{}));
    EXPECT_EQ(q.pending(), 1u);
    q.run_all();
  }
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ReservedPlaceFiresAheadOfLaterSameTimeEvents) {
  // An event pushed at a reserved place orders among same-timestamp
  // events as if scheduled at the reservation: after an event scheduled
  // before it, ahead of one scheduled after it.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(0); });
  q.schedule_at(5, [&] {
    const EventQueue::Place place = q.reserve_place();
    q.schedule_at(10, [&] { order.push_back(2); });
    q.schedule_at(place, 10, [&] { order.push_back(1); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, PlaceReservedBeforeAnEventFiredIsRejected) {
  EventQueue q;
  const EventQueue::Place place = q.reserve_place();
  q.schedule_at(1, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(place, 2, [] {}), InvariantError);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, WorkCountersCountPushesFiresAndTombstones) {
  EventQueue q;
  const EventId a = q.schedule_at(1, [] {});
  q.schedule_at(2, [] {});
  const EventQueue::Place place = q.reserve_place();  // not a push
  q.schedule_at(place, 3, [] {});
  q.cancel(a);
  EXPECT_EQ(q.peek_next_time(), std::optional<TimeNs>(2));  // drops `a`
  q.run_all();
  EXPECT_EQ(q.pushes(), 3u);
  EXPECT_EQ(q.fired(), 2u);
  EXPECT_EQ(q.tombstones_popped(), 1u);
}

TEST(EventQueue, CancelReleasesTheClosureAtOnce) {
  // The heap keeps a cancelled event's key until it surfaces, but not
  // its closure: cancel() destroys the captures there and then.
  EventQueue q;
  const auto token = std::make_shared<int>(7);
  const EventId id = q.schedule_at(10, [token] { ADD_FAILURE(); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(q.run_all(), 0u);
  EXPECT_EQ(q.tombstones_popped(), 1u);
  // A fired event's closure is released once it has run.
  q.schedule_at(20, [token] { EXPECT_EQ(*token, 7); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(q.run_all(), 1u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ClosureReusingItsOwnSlotKeepsItsCaptures) {
  // A firing event's slot is free again while its closure runs, so an
  // event the closure schedules takes that very slot. The closure must
  // still hold its captures until it returns.
  EventQueue q;
  const auto token = std::make_shared<int>(42);
  std::vector<int> seen;
  EventId first = 0, second = 0;
  first = q.schedule_at(5, [&q, &seen, &first, &second, token] {
    second = q.schedule_at(6, [&seen] { seen.push_back(-1); });
    EXPECT_EQ(static_cast<uint32_t>(second), static_cast<uint32_t>(first));
    EXPECT_EQ(token.use_count(), 2);
    seen.push_back(*token);
  });
  q.run_all();
  EXPECT_EQ(seen, (std::vector<int>{42, -1}));
  EXPECT_NE(first, second);  // same slot, next generation
  EXPECT_EQ(token.use_count(), 1);
}

// --------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> out(64, 0);
  pool.parallel_for(64, [&](size_t i) { out[i] = static_cast<int>(i) + 1; });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

// -------------------------------------------------------------- Table ----

TEST(TextTable, RejectsWrongWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TextTable, FormatsNumbers) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.995, 1), "99.5%");
}

}  // namespace
}  // namespace sgdrc
