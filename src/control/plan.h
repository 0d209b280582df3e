// The declarative half of the control plane: a ResourcePlan is what a
// Controller *wants* — an ordered list of launch / evict / wake-at
// directives — and the enforcer inside core::ServingSim is the only
// code that turns it into mechanism (executor launches, eviction flags,
// queue wakeups). Directive order is preserved exactly at enforcement:
// two directives landing events on the same simulated nanosecond keep
// their relative order, which is what makes a plan-emitting rewrite of
// an imperative policy reproducible bit-for-bit.
//
// Allocation has no zero-means-"all" convention (the classic footgun: a
// forgotten mask silently monopolised the GPU). An empty allocation is
// an error; "the whole device" must be spelled Allocation::all().
#pragma once

#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "gpusim/resources.h"
#include "workload/tenant.h"

namespace sgdrc::control {

/// Explicit resource grant for one kernel launch. Both fields must be
/// non-empty; the sentinel all-ones masks (Allocation::all()) mean "every
/// TPC / channel the device has" without the caller knowing the device
/// size. The enforcer canonicalises device-covering masks, so all() and
/// an explicit full mask behave identically.
struct Allocation {
  gpusim::TpcMask tpcs = 0;        // 0 is invalid — use all()
  gpusim::ChannelSet channels = 0; // 0 is invalid — use all()

  /// The whole device (monopolisation), device-size agnostic.
  static constexpr Allocation all() {
    return {~gpusim::TpcMask{0}, ~gpusim::ChannelSet{0}};
  }
  /// A TPC slice with every channel (compute-bound colocation).
  static constexpr Allocation on_tpcs(gpusim::TpcMask m) {
    return {m, ~gpusim::ChannelSet{0}};
  }
  static constexpr Allocation on(gpusim::TpcMask m, gpusim::ChannelSet c) {
    return {m, c};
  }
  constexpr bool empty() const { return tpcs == 0 || channels == 0; }
};

/// One step of a plan. kLaunch grants `alloc` to job `job`'s next
/// kernel; kEvict raises the eviction flag on `job`'s in-flight kernel;
/// kWakeAt schedules a re-plan at absolute time `at`.
struct Directive {
  enum class Kind : uint8_t { kLaunch, kEvict, kWakeAt };
  Kind kind = Kind::kLaunch;
  workload::JobId job = 0;
  Allocation alloc;
  TimeNs at = 0;  // kWakeAt only
};

/// What a Controller wants done *now*. Directives are applied strictly
/// in emission order by the enforcer (core::ServingSim::apply).
struct ResourcePlan {
  std::vector<Directive> directives;
  /// Inert and always false: the library neither sets nor reads it. It
  /// marked plans traced off the retired imperative Policy path; kept
  /// only because perfbench still reads it to split plan time.
  bool pre_applied = false;

  ResourcePlan& launch(workload::JobId job, Allocation alloc) {
    directives.push_back({Directive::Kind::kLaunch, job, alloc, 0});
    return *this;
  }
  ResourcePlan& evict(workload::JobId job) {
    directives.push_back({Directive::Kind::kEvict, job, {}, 0});
    return *this;
  }
  ResourcePlan& wake_at(TimeNs t) {
    directives.push_back({Directive::Kind::kWakeAt, 0, {}, t});
    return *this;
  }

  bool empty() const { return directives.empty(); }
  size_t size() const { return directives.size(); }

  size_t count(Directive::Kind k) const {
    size_t n = 0;
    for (const auto& d : directives) n += d.kind == k;
    return n;
  }
  /// Earliest requested wakeup, if any (observability / tests).
  std::optional<TimeNs> next_wakeup() const {
    std::optional<TimeNs> t;
    for (const auto& d : directives) {
      if (d.kind != Directive::Kind::kWakeAt) continue;
      if (!t || d.at < *t) t = d.at;
    }
    return t;
  }
};

}  // namespace sgdrc::control
