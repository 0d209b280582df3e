// Forwarding wrappers around the library's public extension points:
// control::Controller (plus a ControllerFactory wrapper for fleets),
// fleet::Router and fleet::PlacementPolicy. Each forwards every call to
// the wrapped object unchanged. With a null probe (untraced run) that is
// all they do; with a probe (traced run) they also record a span around
// the forwarded call and count what the call returned, so per-layer
// numbers come from outside the library without touching it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.h"
#include "fleet/placement.h"
#include "fleet/router.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// Per-layer counters and distributions filled by the wrappers in a
/// traced pass. Every call is counted and timed; only sampled units get
/// spans. `spans` must outlive the probe's users.
struct LayerProbe {
  explicit LayerProbe(SpanRecorder& rec)
      : spans(&rec),
        n_plan(rec.intern("control.plan")),
        n_route(rec.intern("fleet.route")),
        n_place(rec.intern("fleet.place")),
        n_probe(rec.intern("trace.probe")) {}

  SpanRecorder* spans;
  uint32_t n_plan, n_route, n_place, n_probe;

  // control
  uint64_t plan_calls = 0;
  uint64_t empty_plans = 0;
  uint64_t launch_directives = 0;
  uint64_t evict_directives = 0;
  uint64_t wake_directives = 0;
  int64_t legacy_plan_ns = 0;  // pre_applied plans (legacy Policy path)
  int64_t native_plan_ns = 0;
  Histogram plan_ns;
  // executor and serving state, sampled before each plan call
  Histogram corunners;
  Histogram waiting_depth;
  // fleet
  Histogram route_ns;
  int64_t place_ns = 0;
};

class ForwardingController final : public sgdrc::control::Controller {
 public:
  ForwardingController(std::unique_ptr<sgdrc::control::Controller> inner,
                       LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  sgdrc::control::ResourcePlan plan(
      const sgdrc::control::SimView& view) override;

 private:
  std::unique_ptr<sgdrc::control::Controller> inner_;
  LayerProbe* probe_;
};

/// Wraps every controller a fleet builds.
sgdrc::control::ControllerFactory forwarding_factory(
    sgdrc::control::ControllerFactory inner, LayerProbe* probe);

class ForwardingRouter final : public sgdrc::fleet::Router {
 public:
  ForwardingRouter(sgdrc::fleet::Router& inner, LayerProbe* probe)
      : inner_(inner), probe_(probe) {}

  std::string name() const override { return inner_.name(); }
  void reset(size_t fleet_tenants) override { inner_.reset(fleet_tenants); }
  size_t route(const sgdrc::fleet::FleetSim& fleet, unsigned tenant,
               const std::vector<sgdrc::fleet::Replica>& replicas) override;
  /// Must forward: the base default (true) would turn off the engine's
  /// dispatch coalescing for a blind router and measure another engine.
  bool reads_device_state() const override {
    return inner_.reads_device_state();
  }

 private:
  sgdrc::fleet::Router& inner_;
  LayerProbe* probe_;
};

class ForwardingPlacement final : public sgdrc::fleet::PlacementPolicy {
 public:
  ForwardingPlacement(const sgdrc::fleet::PlacementPolicy& inner,
                      LayerProbe* probe)
      : inner_(inner), probe_(probe) {}

  std::string name() const override { return inner_.name(); }
  sgdrc::fleet::Assignment place(
      const std::vector<sgdrc::fleet::FleetTenantSpec>& tenants,
      unsigned devices) const override;

 private:
  const sgdrc::fleet::PlacementPolicy& inner_;
  LayerProbe* probe_;
};

}  // namespace perfbench
