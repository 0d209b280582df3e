// Software-defined vGPUs: declare per-tenant guarantees (hard TPC
// quota, channel share, priority) on the TenantSpec, let the control
// plane enforce them, and watch a latency-sensitive tenant hold its SLO
// against a best-effort flood that would otherwise bury it. Also shows
// the declarative Controller API end-to-end: a custom 20-line
// controller that emits ResourcePlans instead of poking the simulator.
//
//   ./vgpu_quota
#include <cstdio>

#include "control/controller.h"
#include "core/harness.h"
#include "core/sgdrc_policy.h"

using namespace sgdrc;
using namespace sgdrc::core;
using control::Allocation;
using control::ResourcePlan;
using control::SimView;

namespace {

// A minimal custom controller, to show what the Controller interface
// asks of you: look at the view, return a plan. This one statically
// splits the device — LS kernels on the guaranteed region, BE on the
// rest — with none of SGDRC's tidal finesse.
class NaiveSplitController : public control::Controller {
 public:
  std::string name() const override { return "naive-split"; }

  ResourcePlan plan(const SimView& view) override {
    ResourcePlan plan;
    const auto full = gpusim::full_tpc_mask(view.spec().num_tpcs);
    const auto all_ch = gpusim::all_channels(view.spec().num_channels);
    const auto ls_region =
        view.guaranteed_union(workload::QosClass::kLatencySensitive);
    for (const auto& job :
         view.waiting_jobs(workload::QosClass::kLatencySensitive)) {
      plan.launch(job.id, Allocation{ls_region ? ls_region : full, all_ch});
    }
    for (const auto& job :
         view.waiting_jobs(workload::QosClass::kBestEffort)) {
      const auto residual = full & ~ls_region;
      if (residual) plan.launch(job.id, Allocation{residual, all_ch});
    }
    return plan;
  }
};

void report(const char* title, const workload::ServingMetrics& m) {
  std::printf("\n=== %s ===\n", title);
  for (const auto& t : m.tenants) {
    if (t.qos == workload::QosClass::kLatencySensitive) {
      std::printf("LS %-14s p99 %6.2f ms (SLO %.2f ms) attainment %5.1f%%\n",
                  t.name.c_str(), t.p99_ms(), to_ms(t.slo),
                  100.0 * t.attainment());
    } else {
      std::printf("BE %-14s %6.1f samples/s\n", t.name.c_str(),
                  t.samples() / to_sec(m.duration));
    }
  }
  std::printf("guarantee violations: %llu\n",
              static_cast<unsigned long long>(m.guarantee_violations));
}

}  // namespace

int main() {
  HarnessOptions options;
  options.spec = gpusim::rtx_a2000();
  options.ls_letters = "A";    // MobileNetV3 serving real-time requests
  options.be_letters = "IJK";  // the batch flood
  options.utilization = 0.3;
  options.duration = 500 * kNsPerMs;
  ServingHarness harness(options);

  // The vGPU: three quarters of the TPCs hard-reserved, 60% of the VRAM
  // channels, top launch priority. The rest is the flood's residual.
  const control::VgpuSpec vgpu{
      .guaranteed_tpcs = (options.spec.num_tpcs * 3) / 4,
      .channel_share = 0.6,
      .priority = 1};

  auto build = [&](control::Controller& controller, bool quota, bool spt) {
    ServingSimBuilder b;
    b.gpu(options.spec)
        .duration(options.duration)
        .slo_multiplier(6.5)
        .best_effort_mode(BeMode::kConcurrent);
    b.add_latency_sensitive(spt ? harness.ls_model_spt(0) : harness.ls_model(0),
                            harness.isolated_latency(0));
    if (quota) b.quota(vgpu);
    for (unsigned i = 0; i < 4; ++i) {  // four concurrent BE tenants
      const size_t m = i % harness.be_count();
      b.add_best_effort(spt ? harness.be_model_spt(m) : harness.be_model(m));
    }
    return b.build(controller);
  };

  std::printf("vGPU quota on %s: %u/%u TPCs + %.0f%% channels guaranteed "
              "to the LS tenant; 4 concurrent BE tenants flood the rest\n",
              options.spec.name.c_str(), vgpu.guaranteed_tpcs,
              options.spec.num_tpcs, 100.0 * vgpu.channel_share);

  {
    SgdrcPolicy sgdrc(options.spec);
    report("SGDRC + vGPU quota",
           build(sgdrc, /*quota=*/true, /*spt=*/true)->run(harness.trace()));
  }
  {
    SgdrcPolicy sgdrc(options.spec);
    report("SGDRC, no quota (pure tidal sharing)",
           build(sgdrc, /*quota=*/false, /*spt=*/true)->run(harness.trace()));
  }
  {
    NaiveSplitController naive;
    report("custom NaiveSplitController + quota",
           build(naive, /*quota=*/true, /*spt=*/false)->run(harness.trace()));
  }
  std::printf(
      "\nThe quota pins the LS tail regardless of the flood; the custom\n"
      "controller shows the Controller/ResourcePlan API in ~20 lines —\n"
      "the enforcer validates its plans against the same guarantees.\n");
  return 0;
}
