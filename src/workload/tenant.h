// Tenant vocabulary shared by the workload metrics and the serving
// engine: every co-located workload — a latency-sensitive service or a
// best-effort batch task — is a tenant with a QoS class. The scheduler
// API (core/serving.h) and the metrics (workload/metrics.h) are both
// keyed by TenantId, so N-way colocations are first-class rather than a
// hardcoded LS/BE pair.
#pragma once

#include <cstdint>

#include "common/sim_time.h"

namespace sgdrc::workload {

/// Dense index of a tenant within one serving simulation (assignment
/// order of the TenantSpec list; also the index into
/// ServingMetrics::tenants).
using TenantId = uint32_t;

/// Identifies one job — an admitted LS request or a BE batch loop —
/// within one serving simulation. Unique across tenants and classes.
using JobId = uint64_t;

enum class QosClass : uint8_t {
  kLatencySensitive,  // open-loop, SLO-bound (Tab. 3 models A..H)
  kBestEffort,        // closed-loop, throughput-oriented (models I..K)
};

constexpr const char* qos_name(QosClass c) {
  return c == QosClass::kLatencySensitive ? "LS" : "BE";
}

/// Dynamic request batching for a latency-sensitive tenant: requests
/// accumulate in an assembly queue and launch as ONE batched job when
/// either the batch fills (`max_batch`) or the oldest queued request has
/// waited `assembly_timeout` — the classic throughput-for-latency trade
/// of production inference servers. End-to-end latency of every request
/// in the batch includes its own assembly wait.
///
/// Defaults are OFF (max_batch = 1): a tenant without a policy takes the
/// same path, and each request closes a batch of one that runs the
/// tenant's own model, never waiting for companions.
struct BatchPolicy {
  /// Requests per batch at most, in [1, 64]; 1 disables batching.
  unsigned max_batch = 1;
  /// How long a partial batch may wait for companions before launching
  /// anyway (measured from the first request in the assembly queue).
  /// 0 with max_batch > 1 degenerates to never waiting: every request
  /// launches as a batch of one.
  TimeNs assembly_timeout = 0;

  bool enabled() const { return max_batch > 1; }
};

inline BatchPolicy batch_up_to(unsigned max_batch, TimeNs assembly_timeout) {
  return {max_batch, assembly_timeout};
}

}  // namespace sgdrc::workload
