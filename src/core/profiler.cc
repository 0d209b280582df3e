#include "core/profiler.h"

namespace sgdrc::core {

using gpusim::GpuExecutor;
using gpusim::KernelDesc;

OfflineProfiler::OfflineProfiler(const gpusim::GpuSpec& spec,
                                 gpusim::ExecutorParams exec_params)
    : spec_(spec), params_(exec_params) {}

unsigned OfflineProfiler::min_tpcs_for(const KernelDesc& k) const {
  EventQueue q;
  GpuExecutor exec(spec_, q, params_);
  const TimeNs best =
      exec.solo_runtime(k, spec_.num_tpcs, spec_.num_channels, false);
  const double limit =
      static_cast<double>(best) * (1.0 + kLatencyTolerance);
  unsigned lo = 1, hi = spec_.num_tpcs;
  while (lo < hi) {
    const unsigned mid = (lo + hi) / 2;
    const TimeNs t = exec.solo_runtime(k, mid, spec_.num_channels, false);
    if (static_cast<double>(t) <= limit) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

bool OfflineProfiler::is_memory_bound(const KernelDesc& k) const {
  // Thrasher: a long-running kernel that hammers VRAM from other TPCs —
  // the "repeatedly populate L2 / stream VRAM" interference task of §2.2.
  KernelDesc thrasher;
  thrasher.name = "profiler.thrasher";
  thrasher.flops = 1;
  thrasher.bytes = static_cast<uint64_t>(spec_.vram_gbps * 1e6 * 100);
  thrasher.max_useful_tpcs = static_cast<double>(spec_.num_tpcs);

  const unsigned half = std::max(1u, spec_.num_tpcs / 2);

  EventQueue q;
  GpuExecutor exec(spec_, q, params_);
  const TimeNs solo = exec.solo_runtime(k, half, spec_.num_channels, false);

  TimeNs shared = 0;
  // On a 1-TPC device the upper half is empty: the thrasher then shares
  // the victim's TPC, i.e. runs on every TPC.
  const gpusim::TpcMask upper =
      gpusim::tpc_range(half, spec_.num_tpcs - half);
  exec.launch({&thrasher, upper ? gpusim::Allocation::on_tpcs(upper)
                                : gpusim::Allocation::all()},
              nullptr);
  exec.launch({&k, gpusim::Allocation::on_tpcs(gpusim::tpc_range(0, half))},
              [&](GpuExecutor::LaunchId, TimeNs t) { shared = t; });
  q.run_until(q.now() + 60 * kNsPerSec);
  SGDRC_CHECK(shared != 0, "victim kernel did not finish under thrasher");

  const double degradation = static_cast<double>(shared - solo) /
                             static_cast<double>(solo);
  return degradation > kMemoryBoundThreshold;
}

void OfflineProfiler::profile(models::ModelDesc& m) const {
  for (auto& k : m.kernels) {
    k.min_tpcs = min_tpcs_for(k);
    k.memory_bound = is_memory_bound(k);
  }
  // §7.2: memory-bound tensors are those accessed by memory-bound kernels.
  for (auto& t : m.tensors) t.memory_bound = false;
  for (size_t ki = 0; ki < m.kernels.size(); ++ki) {
    if (!m.kernels[ki].memory_bound) continue;
    for (const auto& a : m.kernels[ki].accesses) {
      m.tensors[a.tensor].memory_bound = true;
    }
  }
}

TimeNs OfflineProfiler::isolated_latency(const models::ModelDesc& m) const {
  EventQueue q;
  GpuExecutor exec(spec_, q, params_);
  TimeNs total = 0;
  for (const auto& k : m.kernels) {
    total += exec.solo_runtime(k, spec_.num_tpcs, spec_.num_channels,
                               k.spt_transformed);
  }
  return total;
}

}  // namespace sgdrc::core
