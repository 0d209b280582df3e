// The declarative half of the control plane: a ResourcePlan is what a
// Controller *wants* — an ordered list of launch / evict / wake-at
// directives — and the enforcer inside core::ServingSim is the only
// code that turns it into mechanism (executor launches, eviction flags,
// queue wakeups). Directive order is preserved exactly at enforcement:
// two directives landing events on the same simulated nanosecond keep
// their relative order, which is what makes a plan-emitting rewrite of
// an imperative policy reproducible bit-for-bit.
//
// A launch directive carries a gpusim::Allocation, the executor's own
// grant type (gpusim/resources.h), so plan, enforcer and executor share
// one encoding. GpuExecutor::resolve() is the one place that expands
// Allocation::all() to device masks and rejects empty or out-of-device
// grants.
#pragma once

#include <vector>

#include "common/sim_time.h"
#include "gpusim/resources.h"
#include "workload/tenant.h"

namespace sgdrc::control {

/// Explicit resource grant for one kernel launch (gpusim/resources.h).
using Allocation = gpusim::Allocation;

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
};

}  // namespace sgdrc::control
