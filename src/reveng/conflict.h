// The paper's timing-probe algorithms (§5.1 / Appendix A.1):
//
//   Algorithm 1 — IsDramBankConflicted: refresh L2, issue two loads
//                 back-to-back, flag a conflict when latency exceeds the
//                 calibrated threshold.
//   Algorithm 2 — FindCacheConflictAddrs: binary-search the minimum
//                 interval (Addr, End] whose pointer-chase evicts Addr
//                 from L2; End is an L2-set-conflicting address.
//   Algorithm 3 — (in ChannelMarker) label the channel of an address by
//                 refreshing one channel's cachelines and re-timing.
//
// Thresholds are calibrated from measured latency distributions the way
// Mei & Chu's micro-benchmarks do [30] — no simulator constants leak in.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "reveng/probe_arena.h"

namespace sgdrc::reveng {

struct CalibrationResult {
  TimeNs l2_hit_ns = 0;         // observed hit latency
  TimeNs l2_miss_ns = 0;        // observed miss latency (mode)
  TimeNs l2_miss_threshold = 0; // midpoint classifier
  TimeNs pair_baseline_ns = 0;  // typical non-conflicted pair latency
  TimeNs bank_conflict_threshold = 0;
};

class ConflictProber {
 public:
  explicit ConflictProber(ProbeArena& arena) : arena_(arena) {}

  /// Random address pairs calibrate() times for the bank-conflict
  /// threshold.
  static constexpr size_t kPairSamples = 4096;

  /// Measure latency clusters and derive thresholds. Must be called before
  /// any probe. The pair threshold is found by the largest-gap split of a
  /// random-pair latency sample (conflicts are the rare upper cluster).
  CalibrationResult calibrate(uint64_t seed = 1);

  const CalibrationResult& calibration() const { return cal_; }

  /// Algorithm 1. Both addresses must lie inside the arena.
  bool is_dram_bank_conflicted(gpusim::PhysAddr a0, gpusim::PhysAddr a1);

  /// Candidate partitions find_dram_conflict_addrs() inspects at most.
  static constexpr uint64_t kScanLimit = 2'000'000;

  /// Scan physical partitions after `addr` until `need` DRAM-bank-conflict
  /// addresses are found (Algorithm 3 step 1), or kScanLimit candidates
  /// have been inspected.
  std::vector<gpusim::PhysAddr> find_dram_conflict_addrs(gpusim::PhysAddr addr,
                                                         size_t need);

  /// Algorithm 2: collect up to `max_iter` distinct L2-conflicting
  /// addresses for `addr` by repeated binary search.
  std::vector<gpusim::PhysAddr> find_cache_conflict_addrs(
      gpusim::PhysAddr addr, size_t max_iter = 8);

  /// Algorithm 3 primitive: does reading `fill` evict `addr` from L2?
  /// (read addr → read every fill line → re-time addr).
  bool fill_evicts(gpusim::PhysAddr addr,
                   const std::vector<gpusim::PhysAddr>& fill);

  /// Refresh (invalidate) the entire L2.
  ///
  /// On hardware this is a pointer-chase over a >L2-sized buffer; the
  /// simulator exposes an O(1) epoch flush with identical observable
  /// semantics (every previously resident line subsequently misses).
  /// `reveng_test.cc` verifies the equivalence against the real p-chase.
  void refresh_l2();

  /// The slow-but-faithful refresh used by the equivalence test.
  void refresh_l2_via_pchase();

  uint64_t probe_count() const { return probes_; }

 private:
  TimeNs timed_read(gpusim::PhysAddr pa);

  ProbeArena& arena_;
  CalibrationResult cal_;
  bool calibrated_ = false;
  uint64_t probes_ = 0;
};

}  // namespace sgdrc::reveng
