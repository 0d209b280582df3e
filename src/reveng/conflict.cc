#include "reveng/conflict.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gpusim/address.h"

namespace sgdrc::reveng {

using gpusim::kCachelineBytes;
using gpusim::kPartitionBits;
using gpusim::kPartitionBytes;
using gpusim::PhysAddr;

TimeNs ConflictProber::timed_read(PhysAddr pa) {
  ++probes_;
  return arena_.read_pa(pa).latency;
}

void ConflictProber::refresh_l2() {
  arena_.device().mem().flush_l2();
}

void ConflictProber::refresh_l2_via_pchase() {
  // Pointer-chase 4× the L2 capacity. The arena's pages are physically
  // random, so VA-sequential lines land uniformly over channels and sets;
  // 4× capacity pushes the survival probability of any stale line to ~0.
  const uint64_t bytes = arena_.device().spec().l2_bytes * 4;
  const uint64_t lines = std::min(bytes, arena_.bytes()) / kCachelineBytes;
  for (uint64_t i = 0; i < lines; ++i) {
    arena_.device().read(arena_.base() + i * kCachelineBytes);
  }
}

CalibrationResult ConflictProber::calibrate(uint64_t seed) {
  Rng rng(seed);
  const uint64_t arena_parts = arena_.bytes() >> kPartitionBits;
  SGDRC_REQUIRE(arena_parts >= 64, "arena too small to calibrate");
  auto random_pa = [&]() -> PhysAddr {
    const gpusim::VirtAddr va =
        arena_.base() + rng.uniform_u64(arena_parts) * kPartitionBytes;
    return arena_.device().pa_of(va);
  };

  // --- Hit / miss clusters: re-reading a line we just touched is a hit;
  //     the first touch after a refresh is a miss.
  Samples hits, misses;
  for (int i = 0; i < 64; ++i) {
    const PhysAddr pa = random_pa();
    refresh_l2();
    misses.add(static_cast<double>(timed_read(pa)));
    // Retry the hit a couple of times: the black-box policy occasionally
    // bypasses the fill, turning the re-read into another miss.
    TimeNs best = ~TimeNs{0};
    for (int r = 0; r < 3; ++r) {
      best = std::min(best, timed_read(pa));
    }
    hits.add(static_cast<double>(best));
  }
  cal_.l2_hit_ns = static_cast<TimeNs>(hits.p50());
  cal_.l2_miss_ns = static_cast<TimeNs>(misses.p50());
  SGDRC_CHECK(cal_.l2_miss_ns > cal_.l2_hit_ns,
              "miss latency not above hit latency");
  cal_.l2_miss_threshold = (cal_.l2_hit_ns + cal_.l2_miss_ns) / 2;

  // --- Pair-read clusters: random pairs are almost never bank-conflicted,
  //     so conflicts form a small, clearly separated upper cluster. Split
  //     at the largest latency gap whose upper side is a minority.
  std::vector<double> lat;
  lat.reserve(kPairSamples);
  for (size_t i = 0; i < kPairSamples; ++i) {
    const PhysAddr a = random_pa();
    const PhysAddr b = random_pa();
    if (a == b) continue;
    refresh_l2();
    ++probes_;
    lat.push_back(static_cast<double>(
        arena_.device().timed_pair_read(arena_.va_of(a), arena_.va_of(b))));
  }
  std::sort(lat.begin(), lat.end());
  cal_.pair_baseline_ns = static_cast<TimeNs>(lat[lat.size() / 2]);
  double best_gap = 0.0;
  size_t split = lat.size();
  for (size_t i = lat.size() / 2; i + 1 < lat.size(); ++i) {
    const double gap = lat[i + 1] - lat[i];
    if (gap > best_gap) {
      best_gap = gap;
      split = i;
    }
  }
  if (split + 1 < lat.size() && best_gap > 0.0) {
    cal_.bank_conflict_threshold =
        static_cast<TimeNs>((lat[split] + lat[split + 1]) / 2.0);
  } else {
    // No conflict observed in the sample (tiny arenas): anything above the
    // observed maximum counts as a conflict.
    cal_.bank_conflict_threshold = static_cast<TimeNs>(lat.back()) + 1;
  }
  calibrated_ = true;
  return cal_;
}

bool ConflictProber::is_dram_bank_conflicted(PhysAddr a0, PhysAddr a1) {
  SGDRC_REQUIRE(calibrated_, "calibrate() before probing");
  refresh_l2();
  ++probes_;
  const TimeNs t =
      arena_.device().timed_pair_read(arena_.va_of(a0), arena_.va_of(a1));
  return t > cal_.bank_conflict_threshold;
}

std::vector<PhysAddr> ConflictProber::find_dram_conflict_addrs(
    PhysAddr addr, size_t need) {
  SGDRC_REQUIRE(calibrated_, "calibrate() before probing");
  std::vector<PhysAddr> out;
  uint64_t scanned = 0;
  arena_.for_each_partition(
      gpusim::partition_of(addr) + 1, [&](PhysAddr pa) {
        if (++scanned > kScanLimit || out.size() >= need) return false;
        if (is_dram_bank_conflicted(addr, pa)) out.push_back(pa);
        return true;
      });
  return out;
}

std::vector<PhysAddr> ConflictProber::find_cache_conflict_addrs(
    PhysAddr addr, size_t max_iter) {
  SGDRC_REQUIRE(calibrated_, "calibrate() before probing");
  const gpusim::GpuSpec& spec = arena_.device().spec();
  // Upper bound: intervals longer than a few aggregate L2 capacities are
  // guaranteed to contain enough same-set lines.
  const uint64_t max_upper_lines = spec.l2_bytes * 8 / kCachelineBytes;
  std::vector<PhysAddr> found;

  for (size_t iter = 0; iter < max_iter; ++iter) {
    // Binary search the minimal end (in lines past addr) whose interval
    // read evicts addr, skipping lines already identified so each
    // iteration discovers a fresh conflicting address (Algorithm 2's
    // inner test: does reading `lines` cachelines past addr evict it?).
    auto evicted_with = [&](uint64_t lines) {
      refresh_l2();
      timed_read(addr);
      const uint64_t first = gpusim::line_of(addr) + 1;
      for (uint64_t line = first; line <= first + lines - 1; ++line) {
        const PhysAddr pa = line << gpusim::kCachelineBits;
        if (!arena_.owns_pa(pa)) continue;
        if (std::find(found.begin(), found.end(), pa) != found.end()) {
          continue;
        }
        timed_read(pa);
      }
      return timed_read(addr) > cal_.l2_miss_threshold;
    };

    uint64_t lower = 1, upper = max_upper_lines;
    if (!evicted_with(upper)) break;  // nothing more to find in range
    while (lower < upper) {
      const uint64_t mid = (lower + upper) / 2;
      if (evicted_with(mid)) {
        upper = mid;
      } else {
        lower = mid + 1;
      }
    }
    const PhysAddr conflict =
        (gpusim::line_of(addr) + upper) << gpusim::kCachelineBits;
    if (!arena_.owns_pa(conflict)) break;
    found.push_back(conflict);
  }
  return found;
}

bool ConflictProber::fill_evicts(PhysAddr addr,
                                 const std::vector<PhysAddr>& fill) {
  SGDRC_REQUIRE(calibrated_, "calibrate() before probing");
  refresh_l2();
  timed_read(addr);  // a) populate Addr'
  for (const PhysAddr pa : fill) {
    timed_read(pa);  // b) refresh all cachelines of one channel
  }
  return timed_read(addr) > cal_.l2_miss_threshold;  // c) re-time
}

}  // namespace sgdrc::reveng
