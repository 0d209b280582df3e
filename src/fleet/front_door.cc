#include "fleet/front_door.h"

#include <algorithm>

#include "fleet/fleet.h"

namespace sgdrc::fleet {

// Salt for the door's dedicated jitter stream: distinct from the
// device-seed derivation (golden-ratio stride) and the trace/segment
// seeds, so arming the door never perturbs any existing stream.
static constexpr uint64_t kFrontDoorSalt = 0xf407d007ull;

FrontDoor::FrontDoor(const FrontDoorConfig& cfg, uint64_t fleet_seed)
    : cfg_(cfg), rng_(splitmix64(fleet_seed ^ kFrontDoorSalt)) {
  SGDRC_REQUIRE(cfg_.admit_rate >= 0.0 && cfg_.admit_burst >= 1.0,
                "front door needs a non-negative rate and a bucket that "
                "holds at least one token");
}

void FrontDoor::ensure_service(unsigned service) {
  if (service >= buckets_.size()) {
    // New services (mid-run tenant arrivals) start with a full bucket,
    // like the initial set at t=0.
    buckets_.resize(service + 1, Bucket{cfg_.admit_burst, 0});
    m_.arrived_by_service.resize(service + 1, 0);
    m_.admitted_by_service.resize(service + 1, 0);
    m_.rejected_by_service.resize(service + 1, 0);
    m_.shed_by_service.resize(service + 1, 0);
    m_.dropped_by_service.resize(service + 1, 0);
  }
}

void FrontDoor::note_arrival(unsigned service) {
  ensure_service(service);
  ++m_.arrived;
  ++m_.arrived_by_service[service];
}

void FrontDoor::note_unroutable(unsigned service) {
  ensure_service(service);
  ++m_.shed;
  ++m_.shed_by_service[service];
}

void FrontDoor::note_dropped(unsigned service) {
  ensure_service(service);
  ++m_.dropped;
  ++m_.dropped_by_service[service];
}

FrontDoor::Decision FrontDoor::admit(FleetSim& fleet, unsigned service,
                                     TimeNs now) {
  ensure_service(service);
  // Lever 1: the token bucket. Refill lazily on each attempt; charge
  // only on admission, so rejected and shed attempts cost no token.
  Bucket& b = buckets_[service];
  if (cfg_.admit_rate > 0.0) {
    b.tokens = std::min(
        cfg_.admit_burst,
        b.tokens + static_cast<double>(now - b.last) * cfg_.admit_rate /
                       static_cast<double>(kNsPerSec));
    b.last = now;
    if (b.tokens < 1.0) {
      ++m_.rejected;
      ++m_.rejected_by_service[service];
      return Decision::kReject;
    }
  }
  // Lever 2: queue-depth overload. One consistent depth read feeds both
  // the BE pause and the LS shed rule — BE always sheds first because
  // be_pause_depth is configured below shed_depth.
  if (cfg_.be_pause_depth > 0 || cfg_.shed_depth > 0) {
    const size_t depth = fleet.fleet_ls_queue_depth();
    maybe_pause(fleet, depth, now);
    if (cfg_.shed_depth > 0) {
      const int prio = std::max(
          0, fleet.fleet_tenant(fleet.ls_fleet_tenant(service))
                 .spec.vgpu.priority);
      if (depth >= cfg_.shed_depth * (static_cast<size_t>(prio) + 1)) {
        ++m_.shed;
        ++m_.shed_by_service[service];
        return Decision::kShed;
      }
    }
  }
  if (cfg_.admit_rate > 0.0) b.tokens -= 1.0;
  ++m_.admitted;
  ++m_.admitted_by_service[service];
  return Decision::kAdmit;
}

void FrontDoor::maybe_pause(FleetSim& fleet, size_t depth, TimeNs now) {
  if (cfg_.be_pause_depth == 0) return;
  if (!paused_ && depth >= cfg_.be_pause_depth) {
    paused_ = true;
    paused_since_ = now;
    ++m_.be_pause_events;
    fleet.set_be_paused(true);
  } else if (paused_ && depth <= cfg_.be_pause_depth / 2) {
    // Hysteresis: resume at half the pause depth so a queue hovering at
    // the bound does not flap BE on and off every request.
    paused_ = false;
    m_.be_paused_ns += now - paused_since_;
    fleet.set_be_paused(false);
  }
}

TimeNs FrontDoor::retry_delay(unsigned attempt) {
  // Cap the shift: past ~16 doublings the delay is off the end of any
  // run; shifting further would be UB, not realism.
  const unsigned shift = std::min(attempt, 16u);
  return (kRetryBackoff << shift) +
         static_cast<TimeNs>(
             rng_.exponential(1.0 / static_cast<double>(kRetryJitter)));
}

void FrontDoor::tick(FleetSim& fleet, TimeNs now) {
  maybe_pause(fleet, fleet.fleet_ls_queue_depth(), now);
}

void FrontDoor::finalize(TimeNs duration) {
  if (paused_) {
    m_.be_paused_ns += duration - paused_since_;
    paused_since_ = duration;  // idempotent under a second finalize
  }
}

}  // namespace sgdrc::fleet
