#include "fleet/autoscaler.h"

#include <algorithm>

namespace sgdrc::fleet {

void Autoscaler::attach(FleetSim& fleet) {
  SGDRC_REQUIRE(opt_.interval > 0, "autoscaler needs a positive interval");
  const TimeNs first = fleet.now() + opt_.interval;
  if (first >= fleet.config().duration) return;  // run too short to react
  fleet.at(first, [this, &fleet] { tick_and_reschedule(fleet); });
}

void Autoscaler::tick_and_reschedule(FleetSim& fleet) {
  tick(fleet);
  const TimeNs next = fleet.now() + opt_.interval;
  if (next < fleet.config().duration) {
    fleet.at(next, [this, &fleet] { tick_and_reschedule(fleet); });
  }
}

void Autoscaler::tick(FleetSim& fleet) {
  if (cooldown_.size() < fleet.tenant_count()) {
    cooldown_.resize(fleet.tenant_count(), 0);
  }
  const unsigned max_replicas = std::min(kMaxReplicas, fleet.device_count());
  for (unsigned t = 0; t < fleet.tenant_count(); ++t) {
    if (fleet.fleet_tenant(t).spec.qos != QosClass::kLatencySensitive) {
      continue;  // BE loops are elastic already; only LS queues page us
    }
    const auto& reps = fleet.replicas_of(t);
    if (reps.empty()) continue;  // departed tenant
    if (cooldown_[t] > 0) {
      --cooldown_[t];
      continue;
    }
    size_t outstanding = 0;
    for (const Replica& r : reps) outstanding += fleet.outstanding(r);
    const double mean = static_cast<double>(outstanding) /
                        static_cast<double>(reps.size());

    if (mean > opt_.scale_up_outstanding && reps.size() < max_replicas) {
      // Scale up onto the least-LS-loaded device that takes another
      // replica (the same perf-normalized signal failover uses).
      const std::optional<DeviceId> device = fleet.try_add_replica(t);
      if (!device) continue;  // no device accepts another replica
      decisions_.push_back(
          {fleet.now(), t, /*scale_up=*/true, *device, reps.size()});
      cooldown_[t] = opt_.cooldown_ticks;
    } else if (mean < opt_.scale_down_outstanding && reps.size() > 1) {
      // Scale down off the most-loaded device (perf-normalized) — that
      // headroom is worth the most to its co-tenants.
      size_t victim = 0;
      double victim_load = fleet.device_ls_load(reps[0].device) /
                           fleet.device_perf(reps[0].device);
      for (size_t i = 1; i < reps.size(); ++i) {
        const double load = fleet.device_ls_load(reps[i].device) /
                            fleet.device_perf(reps[i].device);
        if (load > victim_load) {
          victim = i;
          victim_load = load;
        }
      }
      const DeviceId device = reps[victim].device;
      fleet.remove_replica(t, device);
      decisions_.push_back(
          {fleet.now(), t, /*scale_up=*/false, device, reps.size()});
      cooldown_[t] = opt_.cooldown_ticks;
    }
  }
}

}  // namespace sgdrc::fleet
