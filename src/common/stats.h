// Statistics sinks used by benches and the metrics pipeline:
//  - Accumulator: streaming mean/variance/min/max (Welford).
//  - Samples:     stores observations; exact percentiles and CDFs.
//  - Histogram:   fixed-width binning for frequency plots (Fig. 9).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"

namespace sgdrc {

/// Streaming moments without storing samples. Numerically stable (Welford).
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Stores raw observations for exact percentile queries.
/// Percentiles use the nearest-rank method (matches how inference-serving
/// papers report p99: the smallest value ≥ 99% of samples).
class Samples {
 public:
  void add(double x) {
    data_.push_back(x);
    sorted_ = false;
  }

  void add_all(const Samples& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    sorted_ = false;
  }

  size_t count() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Nearest-rank percentile, q in [0, 100].
  double percentile(double q) const {
    SGDRC_REQUIRE(q >= 0.0 && q <= 100.0, "percentile out of range");
    SGDRC_REQUIRE(!data_.empty(), "percentile of empty sample set");
    ensure_sorted();
    if (q == 0.0) return data_.front();
    const size_t rank = static_cast<size_t>(
        std::ceil(q / 100.0 * static_cast<double>(data_.size())));
    return data_[std::min(rank, data_.size()) - 1];
  }

  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  double max() const { return percentile(100.0); }

  double mean() const {
    SGDRC_REQUIRE(!data_.empty(), "mean of empty sample set");
    double s = 0.0;
    for (double x : data_) s += x;
    return s / static_cast<double>(data_.size());
  }

  /// Fraction of samples with value <= threshold (e.g. SLO attainment).
  /// An empty sample set has no fraction — returning 1.0 here used to let
  /// a tenant that served zero requests report 100% SLO attainment and
  /// vacuously pass downstream pass/fail gates, so no-data is explicit.
  std::optional<double> fraction_at_most(double threshold) const {
    if (data_.empty()) return std::nullopt;
    ensure_sorted();
    const auto it =
        std::upper_bound(data_.begin(), data_.end(), threshold);
    return static_cast<double>(it - data_.begin()) /
           static_cast<double>(data_.size());
  }

  /// Evenly spaced CDF points: (value, cumulative fraction).
  std::vector<std::pair<double, double>> cdf(size_t points = 100) const {
    SGDRC_REQUIRE(!data_.empty(), "cdf of empty sample set");
    ensure_sorted();
    std::vector<std::pair<double, double>> out;
    out.reserve(points);
    for (size_t i = 1; i <= points; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(points);
      const size_t idx = static_cast<size_t>(std::ceil(
                             frac * static_cast<double>(data_.size()))) -
                         1;
      out.emplace_back(data_[idx], frac);
    }
    return out;
  }

  const std::vector<double>& raw() const { return data_; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(data_.begin(), data_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> data_;
  mutable bool sorted_ = true;
};

/// Fixed-bin histogram over integer categories (e.g. permutation pattern
/// indices in Fig. 9).
class CategoryHistogram {
 public:
  explicit CategoryHistogram(size_t categories) : counts_(categories, 0) {}

  void add(size_t category) {
    SGDRC_REQUIRE(category < counts_.size(), "category out of range");
    ++counts_[category];
    ++total_;
  }

  uint64_t count(size_t category) const { return counts_.at(category); }
  uint64_t total() const { return total_; }

  double frequency(size_t category) const {
    return total_ ? static_cast<double>(counts_.at(category)) /
                        static_cast<double>(total_)
                  : 0.0;
  }

  /// Chi-squared statistic against the uniform distribution; used to verify
  /// "all permutation patterns are uniformly distributed" (paper §5.2).
  double chi_squared_uniform() const {
    if (total_ == 0 || counts_.empty()) return 0.0;
    const double expected =
        static_cast<double>(total_) / static_cast<double>(counts_.size());
    double chi2 = 0.0;
    for (uint64_t c : counts_) {
      const double d = static_cast<double>(c) - expected;
      chi2 += d * d / expected;
    }
    return chi2;
  }

  /// Max relative deviation from the uniform frequency.
  double max_uniform_deviation() const {
    if (total_ == 0 || counts_.empty()) return 0.0;
    const double expected = 1.0 / static_cast<double>(counts_.size());
    double worst = 0.0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      worst = std::max(worst,
                       std::abs(frequency(i) - expected) / expected);
    }
    return worst;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace sgdrc
