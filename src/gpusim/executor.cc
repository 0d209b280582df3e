#include "gpusim/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace sgdrc::gpusim {

GpuExecutor::GpuExecutor(const GpuSpec& spec, EventQueue& queue,
                         ExecutorParams params)
    : spec_(spec), queue_(queue), params_(params) {
  SGDRC_REQUIRE(spec.num_tpcs >= 1 && spec.num_tpcs < kMaxTpcs,
                "TPC count out of range");
  SGDRC_REQUIRE(spec.num_channels >= 1 && spec.num_channels <= kMaxChannels,
                "channel count out of range");
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

double GpuExecutor::shared_tpcs(TpcMask mask) const {
  double sum = 0.0;
  for (TpcMask m = mask; m != 0; m &= m - 1) {
    const unsigned t = static_cast<unsigned>(std::countr_zero(m));
    SGDRC_CHECK(tpc_users_[t] >= 1, "mask accounting lost the kernel itself");
    sum += tpc_share_[t];
  }
  return sum;
}

double GpuExecutor::runtime_ns(const Running& r, double tpcs) const {
  const KernelDesc& k = *r.launch.kernel;

  // ---- Compute: time-shared TPCs with intra-SM penalty (Fig. 3a). ----
  const double eff_tpcs = std::min(tpcs, r.cap);
  const double t_comp =
      static_cast<double>(k.flops) / (eff_tpcs * per_tpc_flops_per_ns());

  // ---- Memory: demand-shared channels with inter-SM penalty (Fig. 3b).
  double t_mem = 0.0;
  if (k.bytes > 0) {
    const double my_demand = r.demand_gbps;
    double bw = 0.0;
    for (ChannelSet m = r.launch.alloc.channels; m != 0; m &= m - 1) {
      const unsigned c = static_cast<unsigned>(std::countr_zero(m));
      const double total_demand = channel_demand_[c];
      SGDRC_CHECK(channel_users_[c] >= 1 && total_demand > 0.0,
                  "channel accounting lost the kernel itself");
      // Demand-proportional sharing with an equal-split floor: the memory
      // controller arbitrates per requester, so a flow asking for less
      // than 1/users of the channel is not throttled below that slice.
      // The floor's bandwidth is precomputed with the same operations.
      const double share = my_demand / total_demand;
      bw += share < channel_inv_users_[c]
                ? channel_floor_bw_[c]
                : per_channel_bytes_per_ns() * share / channel_penalty_[c];
    }
    t_mem = r.mem_work / bw;
  }

  double t = std::max(t_comp, t_mem);
  if (k.spt_transformed) t *= 1.0 + params_.spt_overhead;
  return std::max<double>(t + static_cast<double>(params_.launch_overhead),
                          1.0);
}

GpuExecutor::RunningList::const_iterator GpuExecutor::find(
    LaunchId id) const {
  const auto it = std::lower_bound(
      running_.begin(), running_.end(), id,
      [](const Running& r, LaunchId key) { return r.id < key; });
  return it != running_.end() && it->id == id ? it : running_.end();
}

GpuExecutor::RunningList::iterator GpuExecutor::find(LaunchId id) {
  return running_.begin() + (std::as_const(*this).find(id) - running_.cbegin());
}

void GpuExecutor::occupy(const Running& r, bool add) {
  for (TpcMask m = r.launch.alloc.tpcs; m != 0; m &= m - 1) {
    const unsigned t = static_cast<unsigned>(std::countr_zero(m));
    const unsigned users = add ? ++tpc_users_[t] : --tpc_users_[t];
    if (users == 0) continue;
    const double intra =
        std::min(1.0 + params_.intra_sm_gamma *
                           static_cast<double>(users - 1),
                 params_.max_intra_penalty);
    tpc_share_[t] = 1.0 / (static_cast<double>(users) * intra);
  }
  if (r.launch.kernel->bytes == 0) return;
  const ChannelSet ch = r.launch.alloc.channels;
  for (ChannelSet m = ch; m != 0; m &= m - 1) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(m));
    const unsigned users = add ? ++channel_users_[c] : --channel_users_[c];
    // The new kernel has the largest LaunchId, so adding its demand last
    // keeps the sum in LaunchId order; a stale sum is rebuilt anyway.
    if (add) channel_demand_[c] += r.demand_gbps;
    if (users == 0) continue;
    channel_inv_users_[c] = 1.0 / static_cast<double>(users);
    channel_penalty_[c] =
        std::min(1.0 + params_.inter_channel_beta *
                           static_cast<double>(users - 1),
                 params_.max_inter_penalty);
    channel_floor_bw_[c] = per_channel_bytes_per_ns() *
                           channel_inv_users_[c] / channel_penalty_[c];
  }
  if (!add) stale_demand_ |= ch;
}

void GpuExecutor::settle_progress() {
  const TimeNs now = queue_.now();
  if (now == settled_at_) return;  // kernels launched since start at now
  settled_at_ = now;
  for (Running& r : running_) {
    if (now > r.last_update && r.rate > 0.0) {
      r.remaining -= r.rate * static_cast<double>(now - r.last_update);
      r.remaining = std::max(r.remaining, 0.0);
    }
    r.last_update = now;
  }
}

void GpuExecutor::recompute_rates() {
  ++stats_recomputes_;
  // A removal's channels get their demand sums from scratch, in LaunchId
  // order: the same terms in the same order as a rescan of running_.
  if (stale_demand_ != 0) {
    for (ChannelSet m = stale_demand_; m != 0; m &= m - 1) {
      channel_demand_[static_cast<unsigned>(std::countr_zero(m))] = 0.0;
    }
    for (const Running& r : running_) {
      if (r.launch.kernel->bytes == 0) continue;
      for (ChannelSet m = r.launch.alloc.channels & stale_demand_; m != 0;
           m &= m - 1) {
        channel_demand_[static_cast<unsigned>(std::countr_zero(m))] +=
            r.demand_gbps;
      }
    }
    stale_demand_ = 0;
  }

  // One completion event at the smallest (due, LaunchId), re-pushed even
  // when unchanged, at the place of the latest change, so it keeps the
  // place the earliest of one event per kernel would have had (see the
  // header comment).
  queue_.cancel(completion_event_);
  const TimeNs now = queue_.now();
  LaunchId first = 0;
  TimeNs first_due = 0;
  stats_runtime_evals_ += running_.size();
  // Neighbours on the same TPC mask share one sum: the same terms, added
  // in the same order. No kernel runs on an empty mask.
  TpcMask mask = 0;
  double tpcs = 0.0;
  for (Running& r : running_) {
    if (r.launch.alloc.tpcs != mask) {
      mask = r.launch.alloc.tpcs;
      tpcs = shared_tpcs(mask);
    }
    const double t = runtime_ns(r, tpcs);
    r.rate = 1.0 / t;
    const TimeNs due = now + static_cast<TimeNs>(std::ceil(r.remaining * t));
    if (first == 0 || due < first_due) {
      first = r.id;
      first_due = due;
    }
  }
  if (first != 0) {
    SGDRC_CHECK(place_, "running kernels without a reserved place");
    completion_event_ = queue_.schedule_at(*place_, first_due,
                                           [this, first] { finish(first); });
  }
  place_.reset();
}

void GpuExecutor::note_change() {
  // The place a recompute right now would push at; a later change in the
  // same held event replaces it.
  if (!running_.empty()) place_ = queue_.reserve_place();
}

void GpuExecutor::call_held(const CompletionFn& fn, LaunchId id) {
  SGDRC_CHECK(!held_, "a completion or eviction ran inside a callback");
  note_change();
  held_ = true;
  try {
    if (fn) fn(id, queue_.now());
  } catch (...) {
    held_ = false;
    recompute_rates();
    throw;
  }
  held_ = false;
  recompute_rates();
}

Allocation GpuExecutor::resolve(const Allocation& a) const {
  SGDRC_REQUIRE(!a.empty(),
                "empty Allocation — a zero mask does not mean \"all\"; "
                "use Allocation::all()");
  constexpr Allocation kAll = Allocation::all();
  const TpcMask full = full_tpc_mask(spec_.num_tpcs);
  const ChannelSet all_ch = all_channels(spec_.num_channels);
  SGDRC_REQUIRE(a.tpcs == kAll.tpcs || (a.tpcs & ~full) == 0,
                "allocation TPC mask exceeds the device");
  SGDRC_REQUIRE(a.channels == kAll.channels || (a.channels & ~all_ch) == 0,
                "allocation channel set exceeds the device");
  return {a.tpcs == kAll.tpcs ? full : a.tpcs,
          a.channels == kAll.channels ? all_ch : a.channels};
}

GpuExecutor::LaunchId GpuExecutor::launch(const KernelLaunch& l,
                                          CompletionFn on_complete) {
  SGDRC_REQUIRE(l.kernel != nullptr, "launch without a kernel");
  const Allocation grant = resolve(l.alloc);
  settle_progress();
  const LaunchId id = next_id_++;
  Running r;
  r.id = id;
  r.launch = {l.kernel, grant, l.tag};
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
  r.cap = parallelism_cap(*l.kernel);
  if (l.kernel->bytes > 0) {
    const double frac = static_cast<double>(channel_count(grant.channels)) /
                        static_cast<double>(spec_.num_channels);
    const double l2_factor = 1.0 + params_.l2_shrink_lambda * (1.0 - frac);
    r.mem_work = static_cast<double>(l.kernel->bytes) * l2_factor;
  }
  occupy(r, /*add=*/true);
  running_.push_back(std::move(r));
  ++stats_launches_;
  note_change();
  if (!held_) recompute_rates();
  return id;
}

void GpuExecutor::finish(LaunchId id) {
  const auto it = find(id);
  SGDRC_CHECK(it != running_.end(),
              "the completion event outlived its kernel");
  settle_progress();
  SGDRC_CHECK(it->remaining < 1e-6, "completion fired with work outstanding");
  const CompletionFn cb = std::move(it->on_complete);
  occupy(*it, /*add=*/false);
  running_.erase(it);
  ++stats_completions_;
  call_held(cb, id);
}

bool GpuExecutor::evict(LaunchId id, EvictionFn on_evicted) {
  const auto it = find(id);
  if (it == running_.end()) return false;
  SGDRC_REQUIRE(it->launch.kernel->preemptible,
                "evicting a kernel compiled without the eviction flag");
  if (it->eviction_pending) return true;
  it->eviction_pending = true;
  it->on_evicted = std::move(on_evicted);
  queue_.schedule_after(params_.evict_latency, [this, id] { kill(id); });
  return true;
}

void GpuExecutor::kill(LaunchId id) {
  const auto it = find(id);
  if (it == running_.end()) return;  // completed during the flag check
  settle_progress();
  const EvictionFn cb = std::move(it->on_evicted);
  occupy(*it, /*add=*/false);
  running_.erase(it);
  ++stats_evictions_;
  call_held(cb, id);
}

std::span<const GpuExecutor::RunningInfo> GpuExecutor::running_infos() {
  infos_.clear();
  for (const Running& r : running_) {
    infos_.push_back({r.launch.kernel, r.launch.alloc.tpcs,
                      r.launch.alloc.channels, r.launch.tag, r.started,
                      r.rate});
  }
  return infos_;
}

}  // namespace sgdrc::gpusim
