#include "baselines/baseline_policies.h"

#include <algorithm>

namespace sgdrc::baselines {

using control::Allocation;
using control::ResourcePlan;
using control::SimView;
using core::QosClass;
using gpusim::TpcMask;

// ----------------------------------------------------------- Temporal ----

ResourcePlan TemporalPolicy::plan(const SimView& sim) {
  ResourcePlan p;
  const auto waiting = sim.waiting_jobs(QosClass::kLatencySensitive);

  if (!waiting.empty()) {
    // LS work exists: claim the GPU. Preempt running BE kernels first.
    if (sim.inflight(QosClass::kBestEffort) > 0) {
      for (const auto& job : sim.jobs(QosClass::kBestEffort)) {
        if (job.in_flight && !job.evicting) p.evict(job.id);
      }
      return p;  // wait for the evictions to land
    }
    if (sim.inflight(QosClass::kLatencySensitive) == 0) {
      p.launch(waiting.front().id, Allocation::all());
    }
    return p;
  }
  // No LS waiting: BE may use the GPU exclusively, one kernel at a time.
  if (sim.inflight(QosClass::kLatencySensitive) == 0 &&
      sim.inflight(QosClass::kBestEffort) == 0) {
    const auto be = sim.waiting_jobs(QosClass::kBestEffort);
    if (!be.empty()) p.launch(be.front().id, Allocation::all());
  }
  return p;
}

// -------------------------------------------------------- MultiStream ----

ResourcePlan MultiStreamPolicy::plan(const SimView& sim) {
  // Everything launches immediately; the hardware scheduler (our
  // processor-sharing executor) arbitrates. LS "priority" only orders the
  // launch queue — it cannot prevent intra-SM or channel contention.
  ResourcePlan p;
  for (const auto qos : {QosClass::kLatencySensitive, QosClass::kBestEffort}) {
    for (const auto& job : sim.waiting_jobs(qos)) {
      p.launch(job.id, Allocation::all());
    }
  }
  return p;
}

// ---------------------------------------------------------------- MPS ----

MpsPolicy::MpsPolicy(const gpusim::GpuSpec& spec) {
  // CUDA_MPS_ACTIVE_THREAD_PERCENTAGE = 50 on two instances: an even,
  // static thread-level split. No channel isolation whatsoever.
  const unsigned half = std::max(1u, spec.num_tpcs / 2);
  const auto slice = [](TpcMask m) {
    return m ? Allocation::on_tpcs(m) : Allocation::all();
  };
  ls_ = slice(gpusim::tpc_range(spec.num_tpcs - half, half));
  be_ = slice(gpusim::tpc_range(0, spec.num_tpcs - half));
}

ResourcePlan MpsPolicy::plan(const SimView& sim) {
  // All LS jobs share the LS instance's thread slice concurrently
  // (intra-SM conflicts among LS kernels, §9.3's MPS analysis); BE
  // tenants share the BE instance's slice the same way.
  ResourcePlan p;
  for (const auto& job : sim.waiting_jobs(QosClass::kLatencySensitive)) {
    p.launch(job.id, ls_);
  }
  for (const auto& job : sim.waiting_jobs(QosClass::kBestEffort)) {
    p.launch(job.id, be_);
  }
  return p;
}

// ---------------------------------------------------------------- TGS ----

ResourcePlan TgsPolicy::plan(const SimView& sim) {
  ResourcePlan p;
  const TimeNs now = sim.now();
  if (now < frozen_until_) {
    p.wake_at(frozen_until_);  // paying the container context switch
    return p;
  }
  const auto waiting = sim.waiting_jobs(QosClass::kLatencySensitive);
  const bool ls_wants =
      !waiting.empty() || sim.inflight(QosClass::kLatencySensitive) > 0;
  const bool be_present = sim.has_class(QosClass::kBestEffort);

  // Feedback-style switching: only reconsider the active container after
  // kDwell, then pay the switch cost.
  const bool may_switch = now - last_switch_ >= kDwell;
  const bool other_wants =
      active_ == Container::kLs ? !ls_wants && be_present : ls_wants;
  if (may_switch && other_wants) {
    active_ = active_ == Container::kLs ? Container::kBe : Container::kLs;
    last_switch_ = now;
    frozen_until_ = now + kSwitchCost;
    p.wake_at(frozen_until_);
    return p;
  }
  if (!may_switch) p.wake_at(last_switch_ + kDwell);

  if (active_ == Container::kLs) {
    if (sim.inflight(QosClass::kLatencySensitive) == 0 && !waiting.empty()) {
      p.launch(waiting.front().id, Allocation::all());
    }
  } else {
    for (const auto& job : sim.waiting_jobs(QosClass::kBestEffort)) {
      p.launch(job.id, Allocation::all());
    }
  }
  return p;
}

// -------------------------------------------------------------- Orion ----

ResourcePlan OrionPolicy::plan(const SimView& sim) {
  // LS stream: unrestricted, launch everything immediately.
  ResourcePlan p;
  const auto ls_waiting = sim.waiting_jobs(QosClass::kLatencySensitive);
  for (const auto& job : ls_waiting) p.launch(job.id, Allocation::all());

  // The LS kernels co-running with any BE kernel admitted below: those in
  // flight now plus the ones this plan launches. (Kernels of unknown
  // owner count as LS, the conservative side.)
  ls_running_.clear();
  for (const auto& info : sim.running_infos()) {
    const auto owner = sim.find_job(info.tag);
    if (!owner || owner->qos != QosClass::kBestEffort) {
      ls_running_.push_back(info.kernel);
    }
  }
  for (const auto& job : ls_waiting) ls_running_.push_back(job.next_kernel);
  // Every waiting LS kernel launches above, so the pressure is what is
  // in flight once this plan lands.
  const size_t ls_pressure =
      sim.inflight(QosClass::kLatencySensitive) + ls_waiting.size();

  // Interference-aware admission (§3.1's constraint classes), per waiting
  // BE kernel.
  for (const auto& be_job : sim.waiting_jobs(QosClass::kBestEffort)) {
    const gpusim::KernelDesc* be_kernel = be_job.next_kernel;
    SGDRC_CHECK(be_kernel != nullptr, "BE idle but no next kernel");

    // 1) LS pressure: too many LS kernels executing or queued ⇒ the
    //    scheduler cannot find a safe co-execution slot.
    if (ls_pressure > kLsPressureLimit) {
      ++rej_sm_;
      continue;
    }

    // 2) Runtime constraint: the BE kernel must not outlive the running
    //    LS kernels (it would block the next LS kernel's resources).
    const double be_rt = static_cast<double>(sim.solo_runtime(*be_kernel));
    const auto outlives = [&](const gpusim::KernelDesc* ls) {
      return be_rt >
             kRuntimeRatio * static_cast<double>(sim.solo_runtime(*ls));
    };
    if (std::any_of(ls_running_.begin(), ls_running_.end(), outlives)) {
      ++rej_runtime_;
      continue;
    }

    // 3) Resource (memory) constraint: never co-run a memory-bound BE
    //    kernel while a memory-bound LS kernel executes.
    if (be_kernel->memory_bound &&
        std::any_of(ls_running_.begin(), ls_running_.end(),
                    [](const gpusim::KernelDesc* ls) {
                      return ls->memory_bound;
                    })) {
      ++rej_resource_;
      continue;
    }

    ++admitted_;
    p.launch(be_job.id, Allocation::all());
  }
  return p;
}

}  // namespace sgdrc::baselines
