// Test-only reference executor; see reference_executor.h.
#include "reference_executor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sgdrc::gpusim::reference {

GpuExecutor::GpuExecutor(const GpuSpec& spec, EventQueue& queue,
                         ExecutorParams params)
    : spec_(spec), queue_(queue), params_(params) {
  SGDRC_REQUIRE(spec.num_tpcs >= 1 && spec.num_tpcs < 64,
                "TPC count out of range");
  SGDRC_REQUIRE(spec.peak_tflops > 0 && spec.vram_gbps > 0,
                "compute/memory envelopes must be positive");
}

double GpuExecutor::per_tpc_flops_per_ns() const {
  // peak_tflops × 1e12 flops/s ÷ tpcs ÷ 1e9 ns/s.
  return spec_.peak_tflops * 1e3 / static_cast<double>(spec_.num_tpcs);
}

double GpuExecutor::per_channel_bytes_per_ns() const {
  // 1 GB/s == 1 byte/ns, so vram_gbps is bytes/ns for the whole device.
  return spec_.vram_gbps / static_cast<double>(spec_.num_channels);
}

double GpuExecutor::parallelism_cap(const KernelDesc& k) const {
  // A grid of B blocks can occupy at most B / (resident blocks per TPC)
  // TPCs — small grids saturate early, which is why LS kernels have small
  // min-TPC requirements (§7.1).
  const double per_tpc = static_cast<double>(spec_.sms_per_tpc) *
                         GpuSpec::kMaxResidentBlocksPerSm;
  return std::min(k.max_useful_tpcs,
                  std::max(1.0, static_cast<double>(k.blocks) / per_tpc));
}

TimeNs GpuExecutor::solo_runtime(const KernelDesc& k, unsigned tpcs,
                                 unsigned channels,
                                 bool spt_transformed) const {
  SGDRC_REQUIRE(tpcs >= 1 && tpcs <= spec_.num_tpcs, "TPC count invalid");
  SGDRC_REQUIRE(channels >= 1 && channels <= spec_.num_channels,
                "channel count invalid");
  const double eff_tpcs =
      std::min(static_cast<double>(tpcs), parallelism_cap(k));
  const double t_comp =
      static_cast<double>(k.flops) / (eff_tpcs * per_tpc_flops_per_ns());
  double t_mem = 0.0;
  if (k.bytes > 0) {
    const double frac = static_cast<double>(channels) /
                        static_cast<double>(spec_.num_channels);
    const double l2_factor = 1.0 + params_.l2_shrink_lambda * (1.0 - frac);
    const double bw = static_cast<double>(channels) * per_channel_bytes_per_ns();
    t_mem = static_cast<double>(k.bytes) * l2_factor / bw;
  }
  double t = std::max(t_comp, t_mem);
  if (spt_transformed) t *= 1.0 + params_.spt_overhead;
  // Same rounding as the event path (rate → ceil of remaining × t) so a
  // solo start-to-finish run matches this closed form exactly.
  return static_cast<TimeNs>(
      std::ceil(t + static_cast<double>(params_.launch_overhead)));
}

double GpuExecutor::runtime_ns(const Running& r) const {
  const KernelDesc& k = *r.launch.kernel;
  const TpcMask full_mask = full_tpc_mask(spec_.num_tpcs);
  const ChannelSet full_ch = all_channels(spec_.num_channels);
  const TpcMask my_mask =
      r.launch.tpc_mask ? r.launch.tpc_mask : full_mask;
  const ChannelSet my_ch =
      r.launch.channels ? r.launch.channels : full_ch;

  // ---- Compute: time-shared TPCs with intra-SM penalty (Fig. 3a). ----
  double eff_tpcs = 0.0;
  for (unsigned t = 0; t < spec_.num_tpcs; ++t) {
    if (!(my_mask & tpc_bit(t))) continue;
    unsigned users = 0;
    for (const auto& [id, other] : running_) {
      const TpcMask om =
          other.launch.tpc_mask ? other.launch.tpc_mask : full_mask;
      users += (om & tpc_bit(t)) != 0;
    }
    SGDRC_CHECK(users >= 1, "mask accounting lost the kernel itself");
    const double intra =
        std::min(1.0 + params_.intra_sm_gamma *
                           static_cast<double>(users - 1),
                 params_.max_intra_penalty);
    eff_tpcs += 1.0 / (static_cast<double>(users) * intra);
  }
  eff_tpcs = std::min(eff_tpcs, parallelism_cap(k));
  const double t_comp =
      static_cast<double>(k.flops) / (eff_tpcs * per_tpc_flops_per_ns());

  // ---- Memory: demand-shared channels with inter-SM penalty (Fig. 3b).
  double t_mem = 0.0;
  if (k.bytes > 0) {
    const double my_demand = r.demand_gbps;
    double bw = 0.0;
    for (unsigned c = 0; c < spec_.num_channels; ++c) {
      if (!(my_ch & channel_bit(c))) continue;
      double total_demand = 0.0;
      unsigned users = 0;
      for (const auto& [id, other] : running_) {
        if (other.launch.kernel->bytes == 0) continue;
        const ChannelSet oc =
            other.launch.channels ? other.launch.channels : full_ch;
        if (oc & channel_bit(c)) {
          total_demand += other.demand_gbps;
          ++users;
        }
      }
      SGDRC_CHECK(users >= 1 && total_demand > 0.0,
                  "channel accounting lost the kernel itself");
      // Demand-proportional sharing with an equal-split floor: the memory
      // controller arbitrates per requester, so a flow asking for less
      // than 1/users of the channel is not throttled below that slice.
      const double share = std::max(my_demand / total_demand,
                                    1.0 / static_cast<double>(users));
      const double contention =
          std::min(1.0 + params_.inter_channel_beta *
                             static_cast<double>(users - 1),
                   params_.max_inter_penalty);
      bw += per_channel_bytes_per_ns() * share / contention;
    }
    const double frac = static_cast<double>(channel_count(my_ch)) /
                        static_cast<double>(spec_.num_channels);
    const double l2_factor = 1.0 + params_.l2_shrink_lambda * (1.0 - frac);
    t_mem = static_cast<double>(k.bytes) * l2_factor / bw;
  }

  double t = std::max(t_comp, t_mem);
  if (k.spt_transformed) t *= 1.0 + params_.spt_overhead;
  return std::max<double>(t + static_cast<double>(params_.launch_overhead),
                          1.0);
}

void GpuExecutor::settle_progress() {
  const TimeNs now = queue_.now();
  for (auto& [id, r] : running_) {
    if (now > r.last_update && r.rate > 0.0) {
      r.remaining -= r.rate * static_cast<double>(now - r.last_update);
      r.remaining = std::max(r.remaining, 0.0);
    }
    r.last_update = now;
  }
}

void GpuExecutor::recompute_rates() {
  const TimeNs now = queue_.now();
  for (auto& [id, r] : running_) {
    const double t = runtime_ns(r);
    r.rate = 1.0 / t;
    if (r.has_completion_event) queue_.cancel(r.completion_event);
    const TimeNs delay =
        static_cast<TimeNs>(std::ceil(r.remaining * t));
    const LaunchId lid = id;
    r.completion_event =
        queue_.schedule_at(now + delay, [this, lid] { finish(lid); });
    r.has_completion_event = true;
  }
}

GpuExecutor::LaunchId GpuExecutor::launch(const KernelLaunch& l,
                                          CompletionFn on_complete) {
  SGDRC_REQUIRE(l.kernel != nullptr, "launch without a kernel");
  SGDRC_REQUIRE((l.tpc_mask & ~full_tpc_mask(spec_.num_tpcs)) == 0,
                "TPC mask references missing TPCs");
  SGDRC_REQUIRE((l.channels & ~all_channels(spec_.num_channels)) == 0,
                "channel set references missing channels");
  settle_progress();
  const LaunchId id = next_id_++;
  Running r;
  r.launch = l;
  r.on_complete = std::move(on_complete);
  r.remaining = 1.0;
  r.last_update = queue_.now();
  r.started = queue_.now();
  // Natural bandwidth demand: traffic over the kernel's solo runtime on
  // the full GPU (memory-bound kernels demand ~full bandwidth).
  const TimeNs solo =
      solo_runtime(*l.kernel, spec_.num_tpcs, spec_.num_channels,
                   l.kernel->spt_transformed);
  r.demand_gbps = l.kernel->bytes > 0
                      ? static_cast<double>(l.kernel->bytes) /
                            static_cast<double>(solo)
                      : 0.0;
  running_.emplace(id, std::move(r));
  ++stats_launches_;
  recompute_rates();
  return id;
}

void GpuExecutor::finish(LaunchId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  settle_progress();
  SGDRC_CHECK(it->second.remaining < 1e-6,
              "completion fired with work outstanding");
  CompletionFn cb = std::move(it->second.on_complete);
  running_.erase(it);
  ++stats_completions_;
  recompute_rates();
  if (cb) cb(id, queue_.now());
}

bool GpuExecutor::evict(LaunchId id, EvictionFn on_evicted) {
  auto it = running_.find(id);
  if (it == running_.end()) return false;
  SGDRC_REQUIRE(it->second.launch.kernel->preemptible,
                "evicting a kernel compiled without the eviction flag");
  if (it->second.eviction_pending) return true;
  it->second.eviction_pending = true;
  queue_.schedule_after(
      params_.evict_latency,
      [this, id, fn = std::move(on_evicted)] { kill(id, fn); });
  return true;
}

void GpuExecutor::kill(LaunchId id, EvictionFn on_evicted) {
  auto it = running_.find(id);
  if (it == running_.end()) return;  // completed during the flag check
  settle_progress();
  if (it->second.has_completion_event) {
    queue_.cancel(it->second.completion_event);
  }
  running_.erase(it);
  ++stats_evictions_;
  recompute_rates();
  if (on_evicted) on_evicted(id, queue_.now());
}

std::optional<GpuExecutor::RunningInfo> GpuExecutor::info(
    LaunchId id) const {
  auto it = running_.find(id);
  if (it == running_.end()) return std::nullopt;
  const Running& r = it->second;
  return RunningInfo{r.launch.kernel, r.launch.tpc_mask, r.launch.channels,
                     r.launch.tag, r.started, r.rate};
}

std::vector<GpuExecutor::RunningInfo> GpuExecutor::running_infos() const {
  std::vector<RunningInfo> out;
  out.reserve(running_.size());
  for (const auto& [id, r] : running_) {
    out.push_back({r.launch.kernel, r.launch.tpc_mask, r.launch.channels,
                   r.launch.tag, r.started, r.rate});
  }
  return out;
}

TpcMask GpuExecutor::busy_tpcs() const {
  TpcMask m = 0;
  for (const auto& [id, r] : running_) {
    m |= r.launch.tpc_mask ? r.launch.tpc_mask
                           : full_tpc_mask(spec_.num_tpcs);
  }
  return m;
}

ChannelSet GpuExecutor::busy_channels() const {
  ChannelSet s = 0;
  for (const auto& [id, r] : running_) {
    s |= r.launch.channels ? r.launch.channels
                           : all_channels(spec_.num_channels);
  }
  return s;
}

}  // namespace sgdrc::gpusim::reference
