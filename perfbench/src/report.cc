#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

size_t Histogram::bucket(uint64_t v) {
  if (v < 128) return static_cast<size_t>(v);
  const int e = 63 - __builtin_clzll(v);  // floor(log2 v) >= 7
  const uint64_t sub = (v >> (e - 6)) & 63;
  return 128 + static_cast<size_t>(e - 7) * 64 + static_cast<size_t>(sub);
}

uint64_t Histogram::lower_bound(size_t b) {
  if (b < 128) return b;
  const size_t e = 7 + (b - 128) / 64;
  const uint64_t sub = (b - 128) % 64;
  return (64 + sub) << (e - 6);
}

void Histogram::add(uint64_t v) {
  const size_t b = bucket(v);
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++count_;
  sum_ += static_cast<double>(v);
}

double Histogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(q / 100.0 * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= rank) return static_cast<double>(lower_bound(b));
  }
  return static_cast<double>(lower_bound(counts_.size() - 1));
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  const auto rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(values.size())));
  return values[std::min(std::max<size_t>(rank, 1), values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0;
  for (const double v : values) s += v;
  return s / static_cast<double>(values.size());
}

std::string fnv1a_hex(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string result_line(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/Inf; a non-finite value is reported as 0 and the
    // run is marked incorrect by the caller.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
