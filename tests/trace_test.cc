// Tests for the Apollo-like trace generator (workload/trace.cc):
// determinism, per-service rates, the §9.2 load scale, and the
// burst/background split.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "workload/trace.h"

namespace sgdrc::workload {
namespace {

size_t count_service(const std::vector<Request>& trace, unsigned s) {
  return static_cast<size_t>(
      std::count_if(trace.begin(), trace.end(),
                    [s](const Request& r) { return r.service == s; }));
}

/// `services` services at `rate` req/s each.
TraceOptions uniform(unsigned services, double rate) {
  TraceOptions opt;
  opt.services = services;
  opt.per_service_rates.assign(services, rate);
  return opt;
}

TEST(Trace, SameSeedIsBitIdentical) {
  TraceOptions opt = uniform(3, 200.0);
  opt.duration = 500 * kNsPerMs;
  opt.seed = 0xabc;
  const auto a = generate_apollo_like_trace(opt);
  const auto b = generate_apollo_like_trace(opt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].service, b[i].service);
  }
}

TEST(Trace, DifferentSeedDiffers) {
  TraceOptions opt = uniform(3, 200.0);
  opt.duration = 500 * kNsPerMs;
  opt.seed = 0xabc;
  const auto a = generate_apollo_like_trace(opt);
  opt.seed = 0xdef;
  const auto b = generate_apollo_like_trace(opt);
  bool differs = a.size() != b.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].arrival != b[i].arrival || a[i].service != b[i].service;
  }
  EXPECT_TRUE(differs);
}

TEST(Trace, SortedByArrival) {
  TraceOptions opt = uniform(4, 200.0);
  opt.duration = 300 * kNsPerMs;
  const auto t = generate_apollo_like_trace(opt);
  ASSERT_FALSE(t.empty());
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i - 1].arrival, t[i].arrival);
    EXPECT_LT(t[i].arrival, opt.duration);
  }
}

TEST(Trace, PerServiceRatesOverrideTheDefault) {
  TraceOptions opt;
  opt.services = 3;
  opt.duration = 2 * kNsPerSec;
  opt.per_service_rates = {400.0, 100.0, 100.0};
  const auto t = generate_apollo_like_trace(opt);
  const double c0 = static_cast<double>(count_service(t, 0));
  const double c1 = static_cast<double>(count_service(t, 1));
  const double c2 = static_cast<double>(count_service(t, 2));
  // Service 0 runs at 4x the rate of services 1 and 2.
  EXPECT_GT(c0 / c1, 2.5);
  EXPECT_LT(c0 / c1, 6.0);
  EXPECT_GT(c1 / c2, 0.6);
  EXPECT_LT(c1 / c2, 1.6);
  // The mean rate is respected: ~600 req/s over 2 s.
  EXPECT_NEAR(c0 + c1 + c2, 1200.0, 360.0);
}

TEST(Trace, ScaleHalvesTheLoad) {
  TraceOptions heavy = uniform(4, 300.0);
  heavy.duration = 2 * kNsPerSec;
  TraceOptions light = heavy;
  light.scale = 0.5;  // §9.2: light = half of heavy
  const double h = static_cast<double>(
      generate_apollo_like_trace(heavy).size());
  const double l = static_cast<double>(
      generate_apollo_like_trace(light).size());
  EXPECT_NEAR(l / h, 0.5, 0.12);
}

TEST(Trace, BurstinessConcentratesArrivalsAtFrameTicks) {
  // With everything in the burst component, arrivals cluster just after
  // frame ticks; with everything in the Poisson background they spread
  // uniformly. Compare the variance of per-frame-bin counts.
  auto binned_variance = [](double burstiness) {
    TraceOptions opt = uniform(1, 400.0);
    opt.duration = 2 * kNsPerSec;
    opt.burstiness = burstiness;
    opt.seed = 0xb57;
    const auto t = generate_apollo_like_trace(opt);
    const TimeNs bin = 2 * kNsPerMs;  // 5 bins per 10 ms frame
    std::vector<double> counts(opt.duration / bin, 0.0);
    for (const auto& r : t) counts[r.arrival / bin] += 1.0;
    double mean = 0.0;
    for (const double c : counts) mean += c;
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (const double c : counts) var += (c - mean) * (c - mean);
    return var / static_cast<double>(counts.size());
  };
  // The bursty trace is far spikier than the uniform one.
  EXPECT_GT(binned_variance(1.0), 2.0 * binned_variance(0.0));
}

TEST(Trace, BurstinessPreservesTheMeanRate) {
  TraceOptions opt = uniform(2, 300.0);
  opt.duration = 2 * kNsPerSec;
  opt.seed = 0x591;
  opt.burstiness = 0.0;
  const double uniform = static_cast<double>(
      generate_apollo_like_trace(opt).size());
  opt.burstiness = 1.0;
  const double bursty = static_cast<double>(
      generate_apollo_like_trace(opt).size());
  EXPECT_NEAR(bursty / uniform, 1.0, 0.25);
}

// Regression: `> 0.0` let an infinite rate or scale through, every
// exponential gap was then 0, and both arrival loops pushed requests
// until memory ran out. frame_interval 0 failed inside the RNG as an
// InvariantError. A rate list shorter or longer than the service count
// used to fall back to a default rate or be ignored past its end.
TEST(Trace, RejectsNonFiniteRates) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Each case starts from two valid rates and breaks one thing; the
  // message names what broke.
  const auto rejects = [](const auto& set, const std::string& why) {
    TraceOptions opt = uniform(2, 100.0);
    opt.duration = 10 * kNsPerMs;
    set(opt);
    try {
      generate_apollo_like_trace(opt);
      ADD_FAILURE() << "no ConfigError (" << why << ")";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  const std::string scale = "TraceOptions::scale must be";
  const std::string rate = "a service's rate";
  rejects([](TraceOptions& o) { o.scale = kInf; }, scale);
  rejects([](TraceOptions& o) { o.scale = kNaN; }, scale);
  rejects([](TraceOptions& o) { o.scale = -1.0; }, scale);
  rejects([](TraceOptions& o) { o.per_service_rates = {100.0, kInf}; },
          rate);
  rejects([](TraceOptions& o) { o.per_service_rates = {kNaN, 100.0}; },
          rate);
  rejects([](TraceOptions& o) { o.per_service_rates = {-5.0, 100.0}; },
          rate);
  rejects([](TraceOptions& o) {  // finite factors, infinite product
    o.per_service_rates = {1e200, 100.0};
    o.scale = 1e200;
  }, rate);
  rejects([](TraceOptions& o) { o.frame_interval = 0; }, "frame_interval");
  const std::string count = "one rate per service";
  rejects([](TraceOptions& o) { o.per_service_rates = {100.0}; }, count);
  rejects([](TraceOptions& o) { o.per_service_rates.push_back(100.0); },
          count);

  TraceOptions ok = uniform(2, 100.0);
  ok.duration = 10 * kNsPerMs;
  EXPECT_NO_THROW(generate_apollo_like_trace(ok));
}

// Regression: a huge but finite rate or duration passed every check and
// ran the arrival loops out of memory. Σ rate × scale × duration is now
// capped at 1e7 expected requests before anything is allocated.
TEST(Trace, RejectsTracesAboveTheExpectedRequestCap) {
  // 8 services × 1e12 req/s over the default 2 s.
  const TraceOptions rate = uniform(8, 1e12);
  try {
    generate_apollo_like_trace(rate);
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("8e+12 req/s over a 2 s duration"),
              std::string::npos)
        << e.what();
  }

  TraceOptions duration = uniform(8, 200.0);
  duration.duration = 1ull << 62;
  EXPECT_THROW(generate_apollo_like_trace(duration), ConfigError);
}

TEST(Trace, RejectsBurstyWindowsAboveTheFrameTickCap) {
  // About 4.6e3 expected requests, under the request cap, but 4.6e11
  // frame ticks for the burst loop to visit.
  TraceOptions o = uniform(1, 1e-6);
  o.duration = 1ull << 62;
  try {
    generate_apollo_like_trace(o);
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxFrameTicks"),
              std::string::npos)
        << e.what();
  }
  // Without a burst component nothing visits the frame ticks.
  o.burstiness = 0.0;
  const auto trace = generate_apollo_like_trace(o);
  EXPECT_GT(trace.size(), 4000u);
  EXPECT_LT(trace.size(), 5300u);
}

}  // namespace
}  // namespace sgdrc::workload
