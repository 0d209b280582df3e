#include "workload/metrics.h"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace sgdrc::workload {

std::string fnv1a_hex(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void render_tenants(std::ostream& os,
                    const std::vector<TenantMetrics>& tenants) {
  const auto samples = [&](const Samples& s) {
    for (const double x : s.raw()) os << x << ' ';
    os << ';';
  };
  for (const auto& t : tenants) {
    os << '|' << t.id << ':' << t.arrived << ':' << t.served << ':'
       << t.attained << ':' << t.slo << ':' << t.kernels_done << ':'
       << t.batches_completed << ':' << t.evictions << ':' << t.weight_loads
       << ':' << t.weight_evictions << ':' << t.paged_requests << ':';
    samples(t.latency);
    samples(t.cold_latency);
    samples(t.batch_sizes);
  }
}

std::string run_digest(const ServingMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << m.duration << ':' << m.ls_busy_ns << ':' << m.be_busy_ns << ':'
     << m.guarantee_violations << ':' << m.memory_trespasses;
  render_tenants(os, m.tenants);
  return fnv1a_hex(os.str());
}

}  // namespace sgdrc::workload
