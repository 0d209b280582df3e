// Small pure helpers for the benchmark's report: metric-name validation,
// order statistics and the result line. Kept apart from main.cc so the
// unit tests can exercise them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metric names are made of letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

/// Bounded-memory distribution of non-negative integers (host ns, queue
/// depths, co-runner counts): exact below 128, log-linear above with 64
/// sub-buckets per power of two, so a percentile reads at most 1/64 low.
class Histogram {
 public:
  void add(uint64_t v);
  uint64_t count() const { return count_; }
  double mean() const;
  /// Nearest-rank percentile (q in [0, 100]): the lower bound of the
  /// bucket holding that rank; 0 when empty.
  double percentile(double q) const;

 private:
  static size_t bucket(uint64_t v);
  static uint64_t lower_bound(size_t bucket);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

/// Nearest-rank percentile (q in [0, 100]) — the rule sgdrc::Samples
/// uses; 0 for an empty set.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// 64-bit FNV-1a of `bytes`, as 16 hex digits (the run digests).
std::string fnv1a_hex(std::string_view bytes);

/// The last line of the benchmark's output: one JSON object with the keys
/// correct, attempted, failed and metrics. Values keep every digit.
std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
