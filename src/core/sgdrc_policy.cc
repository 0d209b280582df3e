#include "core/sgdrc_policy.h"

#include <algorithm>
#include <limits>

namespace sgdrc::core {

using control::Allocation;
using control::ResourcePlan;
using control::SimView;
using gpusim::ChannelSet;
using gpusim::TpcMask;

namespace {
/// How long LS must stay idle before a colocated BE kernel is restarted
/// on the whole GPU (the promotion below).
constexpr TimeNs kPromotionGrace = 200 * kNsPerUs;

/// `id`'s count in a (job, count) table, added at 0 when missing (as
/// std::map's operator[] would).
unsigned& count_of(std::vector<std::pair<JobId, unsigned>>& table, JobId id) {
  for (auto& [job, n] : table) {
    if (job == id) return n;
  }
  return table.emplace_back(id, 0u).second;
}

bool contains(const std::vector<JobId>& jobs, JobId id) {
  return std::find(jobs.begin(), jobs.end(), id) != jobs.end();
}
}  // namespace

ChannelSet be_channel_partition(const gpusim::GpuSpec& spec, double ch_be) {
  SGDRC_REQUIRE(ch_be > 0.0 && ch_be < 1.0, "ChBE must be in (0,1)");
  const unsigned group = spec.channel_group_size;
  unsigned want = static_cast<unsigned>(
      static_cast<double>(spec.num_channels) * ch_be + 0.5);
  // Round to whole groups, at least one group, leaving at least one for LS.
  want = std::max(group, (want / group) * group);
  want = std::min(want, spec.num_channels - group);
  // BE gets the highest-numbered channels.
  ChannelSet s = 0;
  for (unsigned c = spec.num_channels - want; c < spec.num_channels; ++c) {
    s |= gpusim::channel_bit(c);
  }
  return s;
}

SgdrcPolicy::SgdrcPolicy(const gpusim::GpuSpec& spec, SgdrcOptions opt)
    : opt_(opt), num_tpcs_(spec.num_tpcs) {
  SGDRC_REQUIRE(opt_.sliding_window > 0,
                "SGDRC's sliding window must hold at least one kernel");
  // A negative interval wraps to 2^63 ns or more, so read it signed.
  SGDRC_REQUIRE(static_cast<DurationNs>(opt_.reserve_decay_interval) > 0,
                "SGDRC's reserve-decay interval must be positive");
  be_channels_ = be_channel_partition(spec, opt_.ch_be);
  ls_channels_ = gpusim::all_channels(spec.num_channels) & ~be_channels_;
}

void SgdrcPolicy::channel_split(const SimView& sim, ChannelSet& ls,
                                ChannelSet& be) const {
  double ls_share = 0.0, be_share = 0.0;
  bool any = false;
  for (TenantId t = 0; t < sim.tenant_count(); ++t) {
    if (!sim.tenant_active(t)) continue;
    const double s = sim.vgpu(t).channel_share;
    if (s <= 0.0) continue;
    any = true;
    (sim.tenant(t).qos == QosClass::kLatencySensitive ? ls_share
                                                      : be_share) += s;
  }
  if (!any) {
    // No declared shares: the ctor split (bit-for-bit legacy path).
    ls = ls_channels_;
    be = be_channels_;
    return;
  }
  // Declared shares re-derive ChBE: BE gets its guaranteed share, but
  // never so much that LS guarantees are squeezed below theirs.
  double ch_be = be_share > 0.0 ? be_share : opt_.ch_be;
  if (ls_share > 0.0) ch_be = std::min(ch_be, 1.0 - ls_share);
  ch_be = std::clamp(ch_be, 0.01, 0.99);  // partition rounds to groups
  be = be_channel_partition(sim.spec(), ch_be);
  ls = gpusim::all_channels(sim.spec().num_channels) & ~be;
}

ResourcePlan SgdrcPolicy::plan(const SimView& sim) {
  ResourcePlan plan;
  const TpcMask full = gpusim::full_tpc_mask(num_tpcs_);
  const auto waiting = sim.waiting_jobs(QosClass::kLatencySensitive);
  const auto waiting_be = sim.waiting_jobs(QosClass::kBestEffort);
  const bool ls_active =
      !waiting.empty() || sim.inflight(QosClass::kLatencySensitive) > 0;

  if (ls_active) last_ls_activity_ = sim.now();

  // vGPU geometry: the enforcer carves one concrete TPC region per
  // guaranteed tenant; the tide must flow around every region that is
  // not the launching tenant's own. All-default specs give empty masks
  // and the legacy behaviour below, directive for directive.
  const TpcMask ls_guar = sim.guaranteed_union(QosClass::kLatencySensitive);
  const TpcMask be_guar = sim.guaranteed_union(QosClass::kBestEffort);
  const TpcMask any_guar = ls_guar | be_guar;
  ChannelSet eff_ls_channels, eff_be_channels;
  channel_split(sim, eff_ls_channels, eff_be_channels);
  const ChannelSet all_ch =
      gpusim::all_channels(sim.spec().num_channels);

  // Snapshot current occupancy; classify running kernels by the QoS class
  // of the job behind each launch tag. One BeRun per *job*: a DAG job
  // running several of its operators concurrently is still one co-runner
  // for §4's counting, so its kernels fold into a single entry (union of
  // masks). Chain jobs hold at most one kernel, so grouping is the
  // identity there.
  TpcMask ls_used = 0;
  TpcMask be_mask_running = 0;
  bool be_memory_bound_in_flight = false;
  be_runs_.clear();
  // Kernels in flight per job (every class) — the intra-tenant width
  // accounting for DAG frontiers.
  inflight_width_.clear();
  for (const auto& info : sim.running_infos()) {
    const auto job = sim.find_job(info.tag);
    if (job) ++count_of(inflight_width_, job->id);
    if (job && job->qos == QosClass::kBestEffort) {
      const TpcMask mask = info.tpc_mask;
      be_mask_running |= mask;
      be_memory_bound_in_flight |= info.kernel->memory_bound;
      // Only memory-bound BE kernels have a channel mode to fix; others
      // always run with default mapping and need no channel eviction.
      const bool monopolising =
          info.channels == all_ch && info.kernel->memory_bound;
      const auto it =
          std::find_if(be_runs_.begin(), be_runs_.end(),
                       [&](const BeRun& r) { return r.job == job->id; });
      if (it != be_runs_.end()) {
        it->mask |= mask;
        it->monopolising |= monopolising;
        continue;
      }
      // Under guarantees, "the whole GPU" for this job stops at foreign
      // regions — promotion must not chase an unreachable full mask.
      const TpcMask own = sim.guaranteed_mask(job->tenant);
      const TpcMask widest = full & ~(any_guar & ~own);
      be_runs_.push_back({job->id, mask, widest, monopolising,
                          job->evicting});
    } else {
      ls_used |= info.tpc_mask;
    }
  }

  // ---- LS side: pack co-executing LS kernels into disjoint SM_LS
  // slices (Fig. 13b) — each tenant's own guaranteed region first, then
  // idle TPCs; TPCs a BE kernel occupies are claimed only under
  // pressure — that is the preemption case (eviction flag, Fig. 13a).
  // Higher-priority tenants launch first (equal priorities keep the
  // arrival order, so the default is the legacy order exactly).
  TpcMask claimed_from_be = 0;
  // Flags the `waiting` entries this plan launches (window bookkeeping).
  launched_.assign(waiting.size(), 0);
  // Kernels launched per job this plan, both classes (width accounting).
  planned_width_.clear();
  const auto width_capped = [&](JobId id) {
    return count_of(inflight_width_, id) + count_of(planned_width_, id) >=
           kIntraTenantWidth;
  };
  if (!waiting.empty()) {
    // Launch order: priority descending, arrival order among equals.
    // Inserting each entry after every earlier one of at least its
    // priority is a stable sort, and a stable sort's result is unique:
    // std::stable_sort's order, without its temporary buffer.
    const auto higher = [&](size_t a, size_t b) {
      return sim.vgpu(waiting[a].tenant).priority >
             sim.vgpu(waiting[b].tenant).priority;
    };
    order_.clear();
    for (size_t i = 0; i < waiting.size(); ++i) {
      order_.insert(std::upper_bound(order_.begin(), order_.end(), i, higher),
                    i);
    }
    // Bimodal tensors (Fig. 14): LS memory-bound kernels shift to the
    // (1−ChBE) channel partition only while a memory-bound BE kernel
    // shares the GPU; compute-bound BE kernels pose no channel conflict.
    const bool colocated = be_memory_bound_in_flight;
    size_t launches = 0;
    for (const size_t i : order_) {
      const auto& job = waiting[i];
      if (launches >= opt_.sliding_window) break;
      if (ls_used == full) break;
      // A DAG job's extra frontier entries wait once the job hits the
      // intra-tenant width cap (never binds for chains: one kernel in
      // flight means no waiting entry at all).
      if (width_capped(job.id)) continue;
      const unsigned need = std::max(1u, job.next_kernel->min_tpcs);
      const TpcMask own = sim.guaranteed_mask(job.tenant);
      const TpcMask foreign = any_guar & ~own;
      const TpcMask idle = full & ~(ls_used | be_mask_running);
      const TpcMask be_held = be_mask_running & ~ls_used;
      // Top-down, in order: the tenant's own guaranteed region, idle
      // TPCs first, then BE-held ones (a stale BE kernel inside a fresh
      // guarantee is claimed, which evicts it below; both are empty
      // without guarantees); then idle TPCs outside foreign guarantees;
      // then, under pressure, BE-held TPCs outside them (preempting BE).
      TpcMask mask = 0;
      for (const TpcMask candidates : {own & idle, own & be_held,
                                       idle & ~foreign, be_held & ~foreign}) {
        mask |= gpusim::highest_tpcs(candidates & ~mask,
                                     need - gpusim::tpc_count(mask));
      }
      if (mask == 0) break;  // everything is held by other LS kernels
      claimed_from_be |= mask & be_mask_running;
      ls_used |= mask;
      plan.launch(job.id,
                  {mask, colocated ? eff_ls_channels : all_ch});
      launched_[i] = 1;
      ++count_of(planned_width_, job.id);
      ++launches;
    }
  }

  // Evict BE kernels that (a) monopolise the channels while LS runs, or
  // (b) hold TPCs an LS kernel just claimed (Fig. 13a's preemption).
  // Under guarantees, (c) also enforce §4's spatial-temporal rule on the
  // running set: at most one BE kernel co-executes with active LS — a
  // flood that launched during an LS idle gap is trimmed back when LS
  // returns, or its channel contention would defeat the SM region.
  // be_runs_ is grouped per job, so be_kept counts co-running *jobs* —
  // a DAG job's internal operator fan-out is one co-runner, not several.
  const bool quota_mode = any_guar != 0;
  size_t be_kept = 0;
  be_kept_jobs_.clear();     // survivors: may widen their own frontier
                             // without a new §4 slot
  be_evicted_jobs_.clear();  // mid-eviction: no relaunch below
  for (const auto& run : be_runs_) {
    if (run.evicting) {
      be_evicted_jobs_.push_back(run.job);
      continue;
    }
    bool evict_it =
        (ls_active && run.monopolising) || (run.mask & claimed_from_be);
    if (!evict_it && quota_mode && ls_active && be_kept >= 1) {
      evict_it = true;
    }
    if (evict_it) {
      plan.evict(run.job);
      be_evicted_jobs_.push_back(run.job);
    } else {
      ++be_kept;
      be_kept_jobs_.push_back(run.job);
    }
  }

  // Promotion: when LS has drained but a BE kernel is still running in
  // colocation mode (narrow mask / ChBE channels), restart it with the
  // full GPU — the monopolisation transition of Fig. 14c→d. A short
  // grace period avoids thrashing on short LS gaps.
  if (!ls_active && claimed_from_be == 0) {
    for (const auto& run : be_runs_) {
      if (run.evicting) continue;
      const bool colocated_mode = run.mask != run.widest;
      if (!colocated_mode) continue;
      if (sim.now() >= last_ls_activity_ + kPromotionGrace) {
        plan.evict(run.job);
      } else {
        plan.wake_at(last_ls_activity_ + kPromotionGrace);
      }
    }
  }

  // ---- Sliding-window SM reservation (§7.1): the BE mask keeps clear of
  // the TPCs the next LS kernels will need ("LS kernels waiting in the
  // launch queue may consume more SMs than the currently allocated
  // ones"), so preemptions stay rare. The reserve tracks the peak of
  // recent concurrent LS usage: it rises instantly and decays one TPC
  // per decay interval. (The retired imperative path read the waiting
  // LS kernels after its launches took effect; the plan path reproduces
  // that view by skipping the entries this plan just launched.)
  unsigned window_need = 1;
  for (size_t i = 0, seen = 0;
       i < waiting.size() && seen < opt_.sliding_window; ++i) {
    if (launched_[i]) continue;
    window_need = std::max(window_need,
                           std::max(1u, waiting[i].next_kernel->min_tpcs));
    ++seen;
  }
  window_need = std::max(window_need, gpusim::tpc_count(ls_used));
  if (window_need >= ls_reserve_) {
    ls_reserve_ = std::min(num_tpcs_, window_need);
    last_decay_ = sim.now();
  } else if (sim.now() >= last_decay_ + opt_.reserve_decay_interval) {
    const unsigned steps = static_cast<unsigned>(
        (sim.now() - last_decay_) / opt_.reserve_decay_interval);
    ls_reserve_ = std::max(window_need,
                           ls_reserve_ > steps ? ls_reserve_ - steps : 1u);
    last_decay_ = sim.now();
  }

  // ---- BE side: fill the tide pool. All waiting BE jobs (one under
  // round-robin rotation, every tenant in concurrent mode) share it. A
  // BE tenant's own guaranteed region is always usable; foreign
  // guaranteed regions never are.
  //
  // An external floor (batch-aware wrapper) widens the reservation the
  // tide keeps clear for upcoming LS work; 0 = the historic tide exactly.
  const unsigned eff_reserve =
      std::max(ls_reserve_, std::min(reserve_floor_, num_tpcs_));
  const TpcMask reserved =
      gpusim::tpc_range(num_tpcs_ - eff_reserve, eff_reserve) | ls_guar;
  // §4's spatial-temporal rule, armed by guarantees: while LS is active,
  // at most one BE kernel co-executes — a concurrent BE flood otherwise
  // drags the LS tail through inter-channel contention (every uncolored
  // compute-bound BE kernel keeps the default all-channel mapping) no
  // matter how hard the SM region holds. Guarantee-free setups keep the
  // historic free-for-all tide bit-for-bit.
  size_t be_budget = std::numeric_limits<size_t>::max();
  if (quota_mode && ls_active) {
    be_budget = be_kept < 1 ? 1 - be_kept : 0;
  }
  be_planned_.clear();  // distinct jobs launched this plan
  for (const auto& job : waiting_be) {
    // §4 counts co-running jobs: only a job not already kept-running and
    // not already launched this plan consumes a budget slot — a DAG
    // job's further frontier entries ride inside the slot its first
    // launch (or its surviving kernels) already hold, up to the
    // intra-tenant width cap. A job this plan just evicted must not be
    // relaunched out of its still-ready frontier in the same breath.
    if (contains(be_evicted_jobs_, job.id)) continue;
    if (width_capped(job.id)) continue;
    const bool counts_new =
        !contains(be_planned_, job.id) && !contains(be_kept_jobs_, job.id);
    if (counts_new && be_budget == 0) continue;
    const TpcMask own = sim.guaranteed_mask(job.tenant);
    const TpcMask foreign = any_guar & ~own;
    if (!ls_active && foreign == 0) {
      // Monopolisation state (§7.2a): the LS kernel queue is empty, so
      // the BE kernel takes the whole GPU and — through its all-channel
      // bimodal tensor copies — the full VRAM bandwidth (Fig. 14a/d).
      // When LS returns it preempts via the eviction flag (Fig. 13a).
      plan.launch(job.id, Allocation::all());
      ++count_of(planned_width_, job.id);
      if (counts_new) be_planned_.push_back(job.id);
    } else if (!ls_active) {
      // LS is idle but holds hard reservations: BE soaks everything
      // except foreign guaranteed regions, with all channels.
      plan.launch(job.id, {full & ~foreign, all_ch});
      ++count_of(planned_width_, job.id);
      if (counts_new) be_planned_.push_back(job.id);
    } else {
      // The tenant's own guaranteed region is usable even when the
      // tidal reserve covers it (own == 0 reproduces the legacy mask).
      const TpcMask free =
          (full & ~ls_used & ~reserved & ~foreign) | (own & ~ls_used);
      if (free) {
        plan.launch(job.id, {free, eff_be_channels});
        ++count_of(planned_width_, job.id);
        if (counts_new) {
          be_planned_.push_back(job.id);
          --be_budget;
        }
      }
      // else: LS holds every TPC; the next completion re-schedules us.
    }
  }
  return plan;
}

SgdrcStaticPolicy::SgdrcStaticPolicy(const gpusim::GpuSpec& spec) {
  const unsigned half = spec.num_tpcs / 2;
  ls_mask_ = gpusim::tpc_range(half, spec.num_tpcs - half);
  be_mask_ = gpusim::tpc_range(0, half);
  be_channels_ = be_channel_partition(spec, 0.5);
  ls_channels_ = gpusim::all_channels(spec.num_channels) & ~be_channels_;
}

control::ResourcePlan SgdrcStaticPolicy::plan(const SimView& sim) {
  // Static even split (§9.2's ablation): LS kernels co-execute inside the
  // fixed LS half, BE keeps its half; no tide, no preemption. Declared
  // guarantees only reshape the frozen halves (a guaranteed region moves
  // wholesale into its owner class's partition); there is still no tide.
  ResourcePlan plan;
  const TpcMask ls_guar = sim.guaranteed_union(QosClass::kLatencySensitive);
  const TpcMask be_guar = sim.guaranteed_union(QosClass::kBestEffort);
  const TpcMask ls_mask = (ls_mask_ | ls_guar) & ~be_guar;
  const TpcMask be_mask = (be_mask_ | be_guar) & ~ls_guar;
  TpcMask ls_used = 0;
  for (const auto& info : sim.running_infos()) {
    const auto job = sim.find_job(info.tag);
    if (!job || job->qos != QosClass::kBestEffort) ls_used |= info.tpc_mask;
  }
  for (const auto& job : sim.waiting_jobs(QosClass::kLatencySensitive)) {
    const TpcMask free = ls_mask & ~ls_used;
    if (!free) break;
    const TpcMask mask =
        gpusim::highest_tpcs(free, std::max(1u, job.next_kernel->min_tpcs));
    ls_used |= mask;
    plan.launch(job.id, {mask, ls_channels_});
  }
  for (const auto& job : sim.waiting_jobs(QosClass::kBestEffort)) {
    if (!be_mask) break;
    plan.launch(job.id, {be_mask, be_channels_});
  }
  return plan;
}

}  // namespace sgdrc::core
