// LS request traces (§9.2). The paper replays Baidu's Apollo autonomous-
// driving trace (via the DISB benchmark); that trace is not
// redistributable, so this generator reproduces its qualitative shape:
// sensor-frame-periodic bursts — each service fires around a frame clock
// with phase offsets and jitter — plus a Poisson background. "Light"
// workload scales the average rate to half of "heavy", exactly as §9.2.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

namespace sgdrc::workload {

struct Request {
  TimeNs arrival = 0;
  unsigned service = 0;  // LS service index
};

struct TraceOptions {
  unsigned services = 8;
  TimeNs duration = 2 * kNsPerSec;
  /// Mean request rate of each service (req/s at scale 1.0), one per
  /// service; models differ in cost, so the harness balances
  /// utilisation across services.
  std::vector<double> per_service_rates;
  /// §9.2: heavy = 1.0 (original trace), light = 0.5.
  double scale = 1.0;
  /// Sensor frame interval (Apollo module cadence).
  TimeNs frame_interval = 10 * kNsPerMs;
  /// Fraction of requests arriving in the frame-aligned burst (the rest
  /// is Poisson background).
  double burstiness = 0.5;
  uint64_t seed = 0xa110;
};

/// Generate an arrival-sorted request stream. Throws ConfigError unless
/// per_service_rates holds one rate per service, every rate, scale and
/// their products are finite and positive,
/// frame_interval is positive, Σ rate × scale × duration expects at
/// most 1e7 requests, and, when burstiness is positive, duration /
/// frame_interval is at most 1e7 frame ticks.
std::vector<Request> generate_apollo_like_trace(const TraceOptions& opt);

}  // namespace sgdrc::workload
