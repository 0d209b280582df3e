// Shared test helpers: a control::Controller whose plan() is a
// std::function, so a test scripts the plans it needs inline, and a tiny
// best-effort model for serving-mechanics tests.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "control/controller.h"
#include "core/serving.h"

namespace sgdrc::tests {

class FnController : public control::Controller {
 public:
  using PlanFn =
      std::function<control::ResourcePlan(const control::SimView&)>;
  explicit FnController(PlanFn fn) : fn_(std::move(fn)) {}
  std::string name() const override { return "test-fn"; }
  control::ResourcePlan plan(const control::SimView& view) override {
    return fn_(view);
  }

 private:
  PlanFn fn_;
};

/// Launch every waiting kernel, LS first, each on the whole device.
inline control::ResourcePlan launch_all_waiting(
    const control::SimView& view) {
  control::ResourcePlan p;
  for (const auto qos : {workload::QosClass::kLatencySensitive,
                         workload::QosClass::kBestEffort}) {
    for (const auto& job : view.waiting_jobs(qos)) {
      p.launch(job.id, control::Allocation::all());
    }
  }
  return p;
}

/// A controller that never launches anything.
inline FnController idle_controller() {
  return FnController([](const control::SimView&) {
    return control::ResourcePlan{};
  });
}

/// A small synthetic BE model whose batches finish in tens of
/// microseconds on the 4-TPC test GPU, so round-robin rotation cycles
/// many times within a short simulated run.
inline models::ModelDesc tiny_be_model(const std::string& name,
                                       char letter) {
  models::ModelDesc m;
  m.name = name;
  m.letter = letter;
  m.service = models::ServiceClass::kBestEffort;
  m.batch = 4;
  for (int i = 0; i < 3; ++i) {
    gpusim::KernelDesc k;
    k.name = name + ".k" + std::to_string(i);
    k.flops = 4'000'000;
    k.bytes = 200'000;
    k.blocks = 64;
    k.max_useful_tpcs = 4;
    k.preemptible = true;
    k.memory_bound = i == 1;  // one memory-bound kernel per batch
    k.min_tpcs = 1;
    m.kernels.push_back(std::move(k));
  }
  return m;
}

/// Two tiny BE tenants on the test GPU for 20 ms.
inline core::ServingSimBuilder two_be_builder() {
  return core::ServingSimBuilder()
      .gpu(gpusim::test_gpu())
      .duration(20 * kNsPerMs)
      .add_best_effort(tiny_be_model("tiny-x", 'X'))
      .add_best_effort(tiny_be_model("tiny-y", 'Y'));
}

}  // namespace sgdrc::tests
