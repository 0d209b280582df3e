// Simulated time. All simulator components measure time in integer
// nanoseconds; doubles appear only at reporting boundaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace sgdrc {

/// Simulated nanoseconds since simulation start.
using TimeNs = uint64_t;

/// Signed duration in nanoseconds (for deltas that may be negative).
using DurationNs = int64_t;

constexpr TimeNs kNsPerUs = 1000ull;
constexpr TimeNs kNsPerMs = 1000ull * kNsPerUs;
constexpr TimeNs kNsPerSec = 1000ull * kNsPerMs;

constexpr double to_us(TimeNs t) { return static_cast<double>(t) / 1e3; }
constexpr double to_ms(TimeNs t) { return static_cast<double>(t) / 1e6; }
constexpr double to_sec(TimeNs t) { return static_cast<double>(t) / 1e9; }

constexpr TimeNs from_us(double us) {
  return static_cast<TimeNs>(us * 1e3 + 0.5);
}
constexpr TimeNs from_ms(double ms) {
  return static_cast<TimeNs>(ms * 1e6 + 0.5);
}
constexpr TimeNs from_sec(double s) {
  return static_cast<TimeNs>(s * 1e9 + 0.5);
}

/// Whether a count of nanoseconds held in a double converts to TimeNs:
/// casting NaN, a negative value, or 2^64 and above is undefined.
constexpr bool fits_time_ns(double ns) { return ns >= 0.0 && ns < 0x1p64; }

/// Human-readable rendering for logs: picks ns/us/ms/s automatically.
inline std::string format_time(TimeNs t) {
  char buf[64];
  if (t < kNsPerUs) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(t));
  } else if (t < kNsPerMs) {
    std::snprintf(buf, sizeof(buf), "%.2fus", to_us(t));
  } else if (t < kNsPerSec) {
    std::snprintf(buf, sizeof(buf), "%.3fms", to_ms(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", to_sec(t));
  }
  return buf;
}

}  // namespace sgdrc
