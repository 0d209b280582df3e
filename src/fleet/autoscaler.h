// Reactive fleet autoscaling: a periodic control loop that watches each
// LS fleet tenant's mean outstanding requests per replica and adds or
// drops replicas through FleetSim's runtime rescale API. Scale-up lands
// on the device with the least live LS load that accepts the replica
// (FleetSim::try_add_replica; the same signal the QoS-load-aware router
// uses); scale-down retires the replica on the
// most-loaded device, handing its headroom back. A per-tenant cooldown
// provides hysteresis so a single bursty frame doesn't flap the fleet.
//
// This is deliberately the simplest closed loop that demonstrates
// SGDRC-style dynamic control at the cluster layer (ParvaGPU's arriving/
// departing-service framing); model-predictive policies can replace it
// behind the same tick() interface.
#pragma once

#include <vector>

#include "fleet/fleet.h"

namespace sgdrc::fleet {

struct AutoscalerOptions {
  /// Control-loop period on the fleet clock.
  TimeNs interval = 20 * kNsPerMs;
};

class Autoscaler {
 public:
  /// Replicas per tenant never grow past this (nor past the device
  /// count); scale-down always keeps at least one.
  static constexpr unsigned kMaxReplicas = 8;
  /// Scale up when mean outstanding per replica exceeds this.
  static constexpr double kScaleUpOutstanding = 3.0;
  /// Scale down when mean outstanding per replica falls below this.
  static constexpr double kScaleDownOutstanding = 0.5;
  /// Ticks a tenant sits out after any scaling action (hysteresis).
  static constexpr unsigned kCooldownTicks = 2;

  explicit Autoscaler(AutoscalerOptions opt = {}) : opt_(opt) {}

  struct Decision {
    TimeNs at = 0;
    unsigned tenant = 0;
    bool scale_up = false;
    DeviceId device = 0;
    size_t replicas_after = 0;
  };

  /// Start the periodic control loop on the fleet clock. Call between
  /// fleet.begin() and the drive; the autoscaler must outlive the run.
  void attach(FleetSim& fleet);

  /// One reactive pass over every LS fleet tenant (attach() calls this
  /// every interval; tests may call it directly).
  void tick(FleetSim& fleet);

  const AutoscalerOptions& options() const { return opt_; }
  const std::vector<Decision>& decisions() const { return decisions_; }

 private:
  void tick_and_reschedule(FleetSim& fleet);

  AutoscalerOptions opt_;
  std::vector<Decision> decisions_;
  std::vector<unsigned> cooldown_;  // per fleet tenant, ticks remaining
};

}  // namespace sgdrc::fleet
