// Serving metrics (§9.2), keyed by TenantId: per-LS-tenant latency
// distributions, SLO attainment (SLO = n × p99 isolated runtime, n =
// co-running services), LS goodput (requests finishing within SLO per
// second), per-BE-tenant throughput (samples/s), and the combined
// "overall throughput" of Fig. 17c. One TenantMetrics slot carries both
// metric families; the QoS class says which one is live.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "workload/tenant.h"

namespace sgdrc::workload {

struct TenantMetrics {
  TenantId id = 0;
  QosClass qos = QosClass::kBestEffort;
  std::string name;
  char letter = '?';

  // ---- latency-sensitive family ----
  TimeNs isolated_p99 = 0;  // profiled isolated runtime
  TimeNs slo = 0;           // n × isolated_p99 (§9.2)
  Samples latency;          // end-to-end incl. queueing (ns)
  uint64_t arrived = 0;
  uint64_t served = 0;
  uint64_t attained = 0;  // served within SLO

  /// NaN (→ null in the bench JSON) when no request was served: zero
  /// traffic is "no data", not 100% attainment — a vacuous 1.0 here used
  /// to sail through the CI slo_ok gate.
  double attainment() const {
    return served ? static_cast<double>(attained) /
                        static_cast<double>(served)
                  : std::numeric_limits<double>::quiet_NaN();
  }
  bool has_latency_data() const { return served > 0; }
  double p99_ms() const {
    return latency.empty() ? 0.0 : to_ms(static_cast<TimeNs>(latency.p99()));
  }

  // ---- request-batching family (LS tenants with a BatchPolicy) ----
  /// One sample per launched batch: its occupancy (requests per batch).
  /// Empty when the tenant does not batch.
  Samples batch_sizes;

  // ---- memory-residency family (devices with memory modeling on) ----
  /// Cold-start weight loads (host→device DMA) charged to this tenant.
  uint64_t weight_loads = 0;
  /// Times this tenant's resident weights were evicted under pressure.
  uint64_t weight_evictions = 0;
  /// Requests served in the demand-paging degraded mode.
  uint64_t paged_requests = 0;
  /// End-to-end latency (ns) of the requests that hit a cold or paged
  /// replica — the cold-start tail the memory bench reports the p99 of.
  /// A subset of `latency`; empty when every request found warm weights.
  Samples cold_latency;

  // ---- best-effort family ----
  unsigned batch = 1;
  uint64_t batches_completed = 0;
  uint64_t kernels_done = 0;       // kernel-granularity progress
  uint64_t kernels_per_batch = 1;
  uint64_t evictions = 0;

  /// Samples processed, at kernel granularity (a batch in flight counts
  /// proportionally — throughput over finite windows stays meaningful for
  /// long BE batches).
  double samples() const {
    return static_cast<double>(batch) * static_cast<double>(kernels_done) /
           static_cast<double>(kernels_per_batch);
  }

  /// Fold a replica's metrics into this tenant-wide view (fleet
  /// aggregation: one tenant, instances on many devices). Counters add,
  /// latency samples merge, so p99/attainment are computed over the
  /// union of requests served by every replica.
  void absorb(const TenantMetrics& replica) {
    SGDRC_REQUIRE(qos == replica.qos, "absorbing across QoS classes");
    latency.add_all(replica.latency);
    batch_sizes.add_all(replica.batch_sizes);
    cold_latency.add_all(replica.cold_latency);
    arrived += replica.arrived;
    served += replica.served;
    attained += replica.attained;
    batches_completed += replica.batches_completed;
    kernels_done += replica.kernels_done;
    evictions += replica.evictions;
    weight_loads += replica.weight_loads;
    weight_evictions += replica.weight_evictions;
    paged_requests += replica.paged_requests;
  }
};

// Class-level aggregates over any tenant list (a single device's, or a
// fleet's replica-merged view — both layers report through these).
inline double ls_goodput(const std::vector<TenantMetrics>& tenants,
                         TimeNs duration) {  // attained requests / s
  uint64_t ok = 0;
  for (const auto& m : tenants) {
    if (m.qos == QosClass::kLatencySensitive) ok += m.attained;
  }
  return static_cast<double>(ok) / to_sec(duration);
}

inline double be_throughput(const std::vector<TenantMetrics>& tenants,
                            TimeNs duration) {  // samples / s
  double n = 0;
  for (const auto& m : tenants) {
    if (m.qos == QosClass::kBestEffort) n += m.samples();
  }
  return n / to_sec(duration);
}

inline double mean_attainment(const std::vector<TenantMetrics>& tenants) {
  // Over LS tenants *with data*: a zero-served tenant must not pull the
  // mean toward a vacuous 1.0. NaN when no LS tenant served anything.
  double s = 0.0;
  size_t n = 0;
  for (const auto& m : tenants) {
    if (m.qos != QosClass::kLatencySensitive || !m.has_latency_data()) {
      continue;
    }
    s += m.attainment();
    ++n;
  }
  return n ? s / static_cast<double>(n)
           : std::numeric_limits<double>::quiet_NaN();
}

struct ServingMetrics {
  std::vector<TenantMetrics> tenants;  // indexed by TenantId
  TimeNs duration = 0;
  TimeNs ls_busy_ns = 0;  // wall time with ≥1 LS kernel in flight
  TimeNs be_busy_ns = 0;  // wall time with ≥1 BE kernel in flight
  /// Launches that put a kernel inside another tenant's guaranteed vGPU
  /// TPC region. The enforcer rejects such launches from guarantee-aware
  /// controllers outright, so a non-zero count exposes a guarantee-blind
  /// one (Controller::guarantee_aware() == false, e.g. a Fig. 17
  /// baseline) running against guaranteed tenants.
  uint64_t guarantee_violations = 0;
  /// Weight loads that pushed a tenant past its own declared
  /// VgpuSpec::memory_bytes quota (memory virtualization; quotas are
  /// guarantees, not caps, so the load proceeds but is counted — the
  /// memory analogue of guarantee_violations).
  uint64_t memory_trespasses = 0;

  /// Tenants of one class, in TenantId order (stable across runs of the
  /// same spec list, so results can be joined tenant-by-tenant).
  std::vector<const TenantMetrics*> of_class(QosClass c) const {
    std::vector<const TenantMetrics*> out;
    for (const auto& t : tenants) {
      if (t.qos == c) out.push_back(&t);
    }
    return out;
  }
  size_t count(QosClass c) const {
    size_t n = 0;
    for (const auto& t : tenants) n += t.qos == c;
    return n;
  }

  void record_latency(TenantId t, TimeNs arrival, TimeNs completion) {
    SGDRC_REQUIRE(t < tenants.size(), "unknown tenant");
    auto& m = tenants[t];
    SGDRC_REQUIRE(m.qos == QosClass::kLatencySensitive,
                  "latency recorded for a non-LS tenant");
    const TimeNs lat = completion - arrival;
    m.latency.add(static_cast<double>(lat));
    ++m.served;
    if (lat <= m.slo) ++m.attained;
  }

  double ls_goodput() const {
    return workload::ls_goodput(tenants, duration);
  }
  double be_throughput() const {
    return workload::be_throughput(tenants, duration);
  }
  double overall_throughput() const {
    return ls_goodput() + be_throughput();
  }
  double mean_attainment() const {
    return workload::mean_attainment(tenants);
  }
};

/// Bit-exact digest of a run: 64-bit FNV-1a, as 16 hex digits, over a
/// precision-17 decimal rendering (doubles round-trip) of every counter
/// and every raw latency sample. Equal digests mean two runs agree in
/// every metric the repo reports; golden tests pin them. (Not named
/// `digest`: perfbench keeps its own unqualified digest() overloads,
/// which argument-dependent lookup would make ambiguous.)
std::string run_digest(const ServingMetrics& m);

// The pieces fleet::run_digest builds on.
std::string fnv1a_hex(std::string_view bytes);
/// Appends every tenant's counters and raw samples to a precision-17
/// stream.
void render_tenants(std::ostream& os,
                    const std::vector<TenantMetrics>& tenants);

}  // namespace sgdrc::workload
