#include "baselines/registry.h"

#include <type_traits>

#include "baselines/baseline_policies.h"
#include "control/batch_aware.h"
#include "core/sgdrc_policy.h"

namespace sgdrc::baselines {

namespace {

/// Factory for controller type C, built from the device spec when C
/// takes one.
template <typename C>
control::ControllerFactory factory() {
  return [](const gpusim::GpuSpec& gs)
             -> std::unique_ptr<control::Controller> {
    if constexpr (std::is_constructible_v<C, const gpusim::GpuSpec&>) {
      return std::make_unique<C>(gs);
    } else {
      (void)gs;
      return std::make_unique<C>();
    }
  };
}

std::vector<SystemSpec> build_registry() {
  std::vector<SystemSpec> r;
  r.push_back({"Multi-streaming", false, false, factory<MultiStreamPolicy>()});
  r.push_back({"TGS", false, false, factory<TgsPolicy>()});
  r.push_back({"MPS", false, true, factory<MpsPolicy>()});
  r.push_back({"Orion", false, false, factory<OrionPolicy>()});
  r.push_back(
      {"SGDRC (Static)", true, true, factory<core::SgdrcStaticPolicy>()});
  r.push_back({"SGDRC", true, false, factory<core::SgdrcPolicy>()});
  r.push_back({"Temporal (TGS-like)", false, false, factory<TemporalPolicy>()});
  // SGDRC wrapped with the batch-occupancy feedback loop; identical to
  // plain SGDRC when no tenant batches (floor stays 0).
  r.push_back({"SGDRC (Batch-aware)", true, false,
               factory<control::BatchAwareSgdrc>()});
  return r;
}

}  // namespace

const std::vector<SystemSpec>& system_registry() {
  static const std::vector<SystemSpec> registry = build_registry();
  return registry;
}

const SystemSpec& system(const std::string& name) {
  for (const auto& s : system_registry()) {
    if (s.name == name) return s;
  }
  SGDRC_REQUIRE(false, "unknown system: " + name);
  return system_registry().front();  // unreachable
}

std::unique_ptr<control::Controller> make_system(
    const std::string& name, const gpusim::GpuSpec& spec) {
  return system(name).make(spec);
}

}  // namespace sgdrc::baselines
