#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/error.h"

namespace sgdrc::workload {

namespace {

/// Cap on a trace's expected request count, Σ rate × scale × duration:
/// about 52x the largest trace built in the tree (fleet_scaling's
/// 1024-device throughput trace, 938 req/s per device × 1024 × 0.2 s ≈
/// 1.9e5), so a typo in a rate or a duration fails here instead of
/// exhausting memory in the arrival loops.
constexpr double kMaxExpectedRequests = 1e7;

/// Cap on a bursty window's frame ticks, duration / frame_interval: the
/// burst loop draws at least one random number per tick whatever the
/// rate, so a tiny rate over a huge window passes the request cap and
/// then visits every tick (4.6e11 for 1e-6 req/s over 2^62 ns). 1e7
/// ticks of the default 10 ms frame is about 28 hours of simulated time,
/// far beyond any trace built in the tree.
constexpr double kMaxFrameTicks = 1e7;

/// An infinite rate makes every exponential gap 0, so the arrival loops
/// below would never reach the end of the window; NaN fails `> 0`.
void require_finite_positive(double v, const char* what) {
  SGDRC_REQUIRE(std::isfinite(v) && v > 0.0,
                std::string(what) + " must be finite and positive");
}

}  // namespace

std::vector<Request> generate_apollo_like_trace(const TraceOptions& opt) {
  SGDRC_REQUIRE(opt.services > 0, "trace needs at least one service");
  require_finite_positive(opt.scale, "TraceOptions::scale");
  require_finite_positive(opt.rate_per_service,
                          "TraceOptions::rate_per_service");
  SGDRC_REQUIRE(opt.burstiness >= 0.0 && opt.burstiness <= 1.0,
                "burstiness is a fraction");
  SGDRC_REQUIRE(opt.frame_interval > 0,
                "TraceOptions::frame_interval must be positive");
  // Every service's rate (req/s), checked before anything is generated.
  std::vector<double> rates(opt.services);
  double total_rate = 0.0;
  bool bursty = false;  // some service has a burst component
  for (unsigned s = 0; s < opt.services; ++s) {
    const double base_rate = s < opt.per_service_rates.size()
                                 ? opt.per_service_rates[s]
                                 : opt.rate_per_service;
    rates[s] = base_rate * opt.scale;
    require_finite_positive(rates[s],
                            "a service's rate × TraceOptions::scale");
    total_rate += rates[s];
    bursty |= rates[s] * to_sec(opt.frame_interval) * opt.burstiness > 0.0;
  }
  const double expected = total_rate * to_sec(opt.duration);
  SGDRC_REQUIRE(expected <= kMaxExpectedRequests, [&] {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "rates summing to %g req/s over a %g s duration expect "
                  "%g requests, above the cap of %g (kMaxExpectedRequests)",
                  total_rate, to_sec(opt.duration), expected,
                  kMaxExpectedRequests);
    return std::string(buf);
  }());
  const double frame_ticks = static_cast<double>(opt.duration) /
                             static_cast<double>(opt.frame_interval);
  SGDRC_REQUIRE(!bursty || frame_ticks <= kMaxFrameTicks, [&] {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "a %g s duration of %g s frames has %g frame ticks, "
                  "above the cap of %g (kMaxFrameTicks)",
                  to_sec(opt.duration), to_sec(opt.frame_interval),
                  frame_ticks, kMaxFrameTicks);
    return std::string(buf);
  }());
  Rng rng(opt.seed);
  std::vector<Request> out;

  for (unsigned s = 0; s < opt.services; ++s) {
    const double rate = rates[s];
    const double per_frame = rate * to_sec(opt.frame_interval);
    Rng srng = rng.fork();
    // Phase offset: services are not frame-synchronised with each other.
    const TimeNs phase = srng.uniform_u64(opt.frame_interval);

    // Burst component: Poisson count at each frame tick, arrivals packed
    // shortly after the tick (sensor → inference fan-out). Skipped
    // entirely at burstiness 0 (exponential gaps need a positive rate).
    const double mean_burst = per_frame * opt.burstiness;
    if (mean_burst > 0.0) {
      for (TimeNs frame = phase; frame < opt.duration;
           frame += opt.frame_interval) {
        // Poisson via exponential gaps.
        double t = 0.0;
        for (;;) {
          t += srng.exponential(mean_burst);
          if (t >= 1.0) break;
          const TimeNs jitter =
              from_ms(srng.exponential(1.0));  // ~1ms fan-out tail
          const TimeNs at = frame + jitter;
          if (at < opt.duration) out.push_back({at, s});
        }
      }
    }

    // Background component: plain Poisson across the whole window.
    // Skipped entirely at burstiness 1 (everything is in the bursts).
    const double bg_rate = rate * (1.0 - opt.burstiness);  // req/s
    if (bg_rate > 0.0) {
      double t = to_sec(phase);
      for (;;) {
        t += srng.exponential(bg_rate);
        const TimeNs at = from_sec(t);
        if (at >= opt.duration) break;
        out.push_back({at, s});
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const Request& a, const Request& b) {
              return a.arrival < b.arrival;
            });
  return out;
}

}  // namespace sgdrc::workload
