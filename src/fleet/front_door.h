// The fleet's overload front door: the admission layer between "a
// request arrived" and "the router picked a replica". Three levers,
// applied in QoS order so the fleet degrades by class instead of by
// unbounded queueing when offered load exceeds capacity:
//
//   1. Admission control — a per-service token bucket (admit_rate
//      tokens/s, admit_burst deep). Requests that find an empty bucket
//      are REJECTED at the door, before they cost the fleet anything.
//   2. Load shedding — when the fleet-wide LS queue exceeds
//      be_pause_depth, every device pauses its best-effort loops (BE
//      sheds first); when it exceeds shed_depth, LS requests are SHED
//      lowest vgpu-priority first: a service at priority p only sheds
//      once the queue passes shed_depth x (p + 1), so premium
//      attainment degrades last.
//   3. Retry storms — rejected and shed requests are not silently
//      dropped: clients re-arrive with exponential backoff
//      (kRetryBackoff doubling per attempt, plus jitter) up to
//      max_retries times, then give up (DROPPED). This models the
//      thundering herd a real overload produces.
//
// Determinism: the door's only randomness is retry jitter, drawn from a
// dedicated stream seeded off the fleet seed (splitmix64 salt — see
// docs/determinism.md). Every queue-depth read happens inside a
// dispatch or control event, where the engine has already barriered the
// device shards, so serial and parallel runs read identical state and
// stay bit-identical. With the door disabled (the default) the dispatch
// path is byte-for-byte the pre-front-door one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"

namespace sgdrc::fleet {

class FleetSim;

struct FrontDoorConfig {
  /// Master switch. Off (the default) = requests go straight to the
  /// router and every counter stays zero.
  bool enabled = false;
  /// Token-bucket admission per LS service: sustained tokens/s and
  /// bucket depth. 0 rate = unlimited (no admission control).
  double admit_rate = 0.0;
  double admit_burst = 16.0;
  /// Fleet-wide LS queue depth (Σ outstanding over every active LS
  /// replica) that pauses best-effort work on every device; BE resumes
  /// (with hysteresis) once the queue drains to half this. 0 = never.
  size_t be_pause_depth = 0;
  /// Queue depth at which LS requests shed, scaled by vgpu priority: a
  /// service at priority p sheds when the queue reaches
  /// shed_depth x (p + 1). 0 = never shed.
  size_t shed_depth = 0;
  /// Client retry model for rejected/shed requests: up to max_retries
  /// re-arrivals, backoff doubling from FrontDoor::kRetryBackoff per
  /// attempt plus an exponential jitter tail (mean
  /// FrontDoor::kRetryJitter). 0 retries = clients give up immediately.
  unsigned max_retries = 0;
};

/// Door accounting. Conservation (conformance-tested): every
/// first-attempt arrival terminates as admitted or dropped, or sits in
/// a scheduled retry at the horizon:
///     arrived == admitted + dropped + pending_retries
/// and every admitted request reaches a device unless its dispatch hop
/// landed past the horizon:
///     admitted == Σ device arrivals + expired.
/// rejected/shed are per-attempt event counts (one request may be
/// rejected several times before admission), not terminal outcomes.
struct FrontDoorMetrics {
  uint64_t arrived = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t dropped = 0;
  uint64_t expired = 0;
  uint64_t pending_retries = 0;
  uint64_t be_pause_events = 0;
  TimeNs be_paused_ns = 0;
  // Per LS service (trace service order), for the QoS-ordered
  // degradation gate: shed fractions must fall as priority rises.
  std::vector<uint64_t> arrived_by_service;
  std::vector<uint64_t> admitted_by_service;
  std::vector<uint64_t> rejected_by_service;
  std::vector<uint64_t> shed_by_service;
  std::vector<uint64_t> dropped_by_service;
};

/// Owned by FleetSim; every method runs inside a fleet dispatch or
/// control event (never concurrently — device shards cannot reach it).
class FrontDoor {
 public:
  /// A retried request's first backoff; it doubles per attempt.
  static constexpr TimeNs kRetryBackoff = 5 * kNsPerMs;
  /// Mean of the exponential jitter added to every backoff.
  static constexpr TimeNs kRetryJitter = kNsPerMs;
  /// Cadence of the control-tier overload tick that re-evaluates BE
  /// pause/resume even when no requests arrive (so a drained queue
  /// always resumes BE).
  static constexpr TimeNs kTickInterval = kNsPerMs;

  FrontDoor(const FrontDoorConfig& cfg, uint64_t fleet_seed);

  enum class Decision { kAdmit, kReject, kShed };

  const FrontDoorConfig& config() const { return cfg_; }
  const FrontDoorMetrics& metrics() const { return m_; }

  /// Count a first-attempt arrival for `service`.
  void note_arrival(unsigned service);
  /// Run the levers for one request attempt: refill + charge the token
  /// bucket, evaluate BE pause/resume, apply the priority-scaled shed
  /// rule. `now` is the attempt's arrival instant.
  Decision admit(FleetSim& fleet, unsigned service, TimeNs now);
  /// A routable-replica check failed (device failure / departure):
  /// count the attempt as shed.
  void note_unroutable(unsigned service);
  /// An admitted request's dispatch hop landed past the horizon.
  void note_expired() { ++m_.expired; }
  /// Bookkeeping for the retry lifecycle.
  void note_retry_scheduled() { ++m_.retries; ++m_.pending_retries; }
  void note_retry_fired() { --m_.pending_retries; }
  void note_dropped(unsigned service);
  /// Backoff before retry number `attempt` (0-based): base << attempt
  /// plus jitter from the door's dedicated RNG stream.
  TimeNs retry_delay(unsigned attempt);
  /// Control-tier tick: re-evaluate BE pause/resume from live queue
  /// depth (arrivals also re-evaluate; the tick guarantees resume when
  /// arrivals stop).
  void tick(FleetSim& fleet, TimeNs now);
  /// Close the books at end of run (accrue a still-open BE pause).
  void finalize(TimeNs duration);

 private:
  struct Bucket {
    double tokens;
    TimeNs last = 0;
  };
  void ensure_service(unsigned service);
  void maybe_pause(FleetSim& fleet, size_t depth, TimeNs now);

  FrontDoorConfig cfg_;
  Rng rng_;
  FrontDoorMetrics m_;
  std::vector<Bucket> buckets_;  // per LS service
  bool paused_ = false;
  TimeNs paused_since_ = 0;
};

}  // namespace sgdrc::fleet
