// The Fig. 17 baselines, each as a plan-emitting control::Controller over
// the same serving engine:
//
//  * Temporal   — one kernel owns the GPU at a time; LS preempts BE
//                 (TGS/Clockwork-style exclusivity, Fig. 1a / Fig. 4a).
//  * MultiStream— two priority streams, everything launches immediately
//                 and shares the whole GPU (§9.2 baseline 1, Fig. 4b).
//  * MPS        — static 50/50 active-thread split between an LS and a BE
//                 instance; no VRAM isolation (§9.2 baseline 3).
//  * TGS        — container-level time sharing with switch overhead and
//                 feedback-style dwell (§9.2 baseline 2).
//  * Orion      — interference-aware admission of BE kernels next to an
//                 unrestricted LS stream (§9.2 baseline 4; the paper, like
//                 us, reimplements Orion's policy on its own substrate).
//
// None of them knows about vGPU guarantees (they predate the quotas), so
// each reports guarantee_aware() == false: the enforcer counts their
// trespasses in ServingMetrics::guarantee_violations instead of
// rejecting the plan.
#pragma once

#include <cstdint>
#include <vector>

#include "control/controller.h"
#include "gpusim/resources.h"

namespace sgdrc::baselines {

class TemporalPolicy : public control::Controller {
 public:
  std::string name() const override { return "Temporal (TGS-like)"; }
  bool guarantee_aware() const override { return false; }
  control::ResourcePlan plan(const control::SimView& sim) override;
};

class MultiStreamPolicy : public control::Controller {
 public:
  std::string name() const override { return "Multi-streaming"; }
  bool guarantee_aware() const override { return false; }
  control::ResourcePlan plan(const control::SimView& sim) override;
};

class MpsPolicy : public control::Controller {
 public:
  explicit MpsPolicy(const gpusim::GpuSpec& spec);
  std::string name() const override { return "MPS"; }
  bool guarantee_aware() const override { return false; }
  control::ResourcePlan plan(const control::SimView& sim) override;

 private:
  /// The instances' thread slices; a slice with no TPC (the BE half of
  /// a 1-TPC device) runs on the whole device.
  control::Allocation ls_, be_;
};

class TgsPolicy : public control::Controller {
 public:
  /// Feedback-control reaction time.
  static constexpr TimeNs kDwell = 2 * kNsPerMs;
  /// CUDA context switch (§9.3).
  static constexpr TimeNs kSwitchCost = 300 * kNsPerUs;

  std::string name() const override { return "TGS"; }
  bool guarantee_aware() const override { return false; }
  control::ResourcePlan plan(const control::SimView& sim) override;

 private:
  enum class Container { kLs, kBe };
  Container active_ = Container::kLs;
  TimeNs last_switch_ = 0;
  TimeNs frozen_until_ = 0;
};

class OrionPolicy : public control::Controller {
 public:
  /// Max queued+running LS kernels for BE co-execution to be allowed.
  static constexpr size_t kLsPressureLimit = 1;
  /// BE kernel runtime must not exceed this multiple of the shortest
  /// running LS kernel's runtime. Orion's duration-based co-execution
  /// vetting admits kernels a few times longer than the LS kernel —
  /// throughput-oriented, at some cost to the LS tail under load.
  static constexpr double kRuntimeRatio = 3.0;

  std::string name() const override { return "Orion"; }
  bool guarantee_aware() const override { return false; }
  control::ResourcePlan plan(const control::SimView& sim) override;

  /// Constraint rejection counters (Fig. 5b's Res / SM / Runtime bars).
  uint64_t rejected_resource() const { return rej_resource_; }
  uint64_t rejected_sm() const { return rej_sm_; }
  uint64_t rejected_runtime() const { return rej_runtime_; }
  uint64_t admitted() const { return admitted_; }

 private:
  uint64_t rej_resource_ = 0;
  uint64_t rej_sm_ = 0;
  uint64_t rej_runtime_ = 0;
  uint64_t admitted_ = 0;
  /// plan()'s scratch, kept between plans: the LS kernels a BE kernel
  /// admitted now would co-run with.
  std::vector<const gpusim::KernelDesc*> ls_running_;
};

}  // namespace sgdrc::baselines
