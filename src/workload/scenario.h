// The dynamic-scenario engine: a Scenario scripts *time* — piecewise
// per-service rate multipliers (diurnal ramps, step spikes, flash
// crowds), tenant arrivals and departures mid-run, and SLO changes —
// while the substrate (models, rates, policy, placement, routing) stays
// a parameter. run_scenario() compiles the script into an open-loop
// request stream plus a timeline of control actions and drives a
// FleetSim through its begin()/inject()/at()/finish() hooks, optionally
// with a reactive Autoscaler in the loop.
//
// This is the layer that exercises the "dynamic" half of SGDRC's claim:
// every benchmark and test that wants a new workload shape writes a
// Scenario (or picks one from scenario_catalog) instead of hand-rolling
// a trace.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fleet/autoscaler.h"
#include "fleet/fleet.h"
#include "workload/trace.h"

namespace sgdrc::workload {

/// One scripted tenant: the per-device spec, its open-loop base request
/// rate (req/s at multiplier 1.0; LS only), and its replica count.
struct ScenarioTenant {
  core::TenantSpec spec;
  double base_rate = 0.0;
  unsigned replicas = 1;
};

/// A named, scripted dynamic serving scenario. Times are absolute within
/// [0, duration). Tenant indices refer to the combined fleet list: the
/// initial tenants passed to run_scenario() in order, then arrivals in
/// arrival order. LS *service* indices (for rate()) count only LS
/// tenants, in the same combined order — matching FleetSim's service
/// numbering.
class Scenario {
 public:
  /// rate() target meaning "every LS service".
  static constexpr unsigned kAllServices = ~0u;

  Scenario(std::string name, std::string description, TimeNs duration)
      : name_(std::move(name)),
        description_(std::move(description)),
        duration_(duration) {}

  // ------------------------------------------------ timeline builders ----
  /// Set the rate multiplier of one LS service (or kAllServices) from
  /// `at` onward. Each timeline is piecewise constant starting at 1.0,
  /// and the two kinds compose multiplicatively: a service's effective
  /// multiplier is (kAllServices baseline) × (its own overlay), so a
  /// per-service flash crowd rides on top of a diurnal ramp instead of
  /// being clobbered by its next step.
  Scenario& rate(unsigned service, TimeNs at, double multiplier);
  /// Diurnal ramp for every service: one sine period over the run,
  /// sampled as `steps` equal segments between `low` and `high`.
  Scenario& diurnal(double low, double high, unsigned steps);
  /// A tenant arrives mid-run; LS arrivals join the open-loop trace at
  /// `tenant.base_rate` from `at` and take the next service index.
  Scenario& arrive(TimeNs at, ScenarioTenant tenant);
  /// A tenant departs: its traffic stops and its replicas drain.
  /// `tenant_index` is the combined fleet index (see class comment).
  Scenario& depart(TimeNs at, unsigned tenant_index);
  /// Multiply every LS SLO by `factor` from `at` (< 1 tightens).
  Scenario& slo_factor(TimeNs at, double factor);
  /// Re-plan one tenant's vGPU guarantees from `at` (scripted quota
  /// change: grow/shrink a hard TPC reservation or channel share
  /// mid-run). `tenant_index` is the combined fleet index.
  Scenario& set_quota(TimeNs at, unsigned tenant_index,
                      control::VgpuSpec vgpu);
  /// Fleet size the scenario expects (default 2).
  Scenario& devices(unsigned n);
  /// Heterogeneous fleet: one GpuSpec per device (also sets the device
  /// count). run_scenario forwards these as FleetConfig::device_specs;
  /// perf-aware placement/routing normalize by the engine-config
  /// baseline spec.
  Scenario& hardware(std::vector<gpusim::GpuSpec> specs);
  /// Arm the overload front door (admission control, QoS-ordered
  /// shedding, retry storms) for this scenario's fleet.
  Scenario& front_door(fleet::FrontDoorConfig cfg);
  /// Cordon a device mid-run (FleetSim::fail_device): its replicas
  /// drain, routing and scaling avoid it from `at` on.
  Scenario& fail_device(TimeNs at, fleet::DeviceId device);
  /// Shed-protection tier of an *initial* tenant (VgpuSpec::priority;
  /// higher sheds later). Applied to the tenant spec before the fleet
  /// is built — no control event, no effect unless the front door (or
  /// a priority-sensitive controller) reads it.
  Scenario& priority(unsigned tenant_index, int priority);
  /// Put a reactive autoscaler in the loop.
  Scenario& autoscale(fleet::AutoscalerOptions opt);
  /// Arm dynamic request batching on every LS tenant of the run (initial
  /// and scripted arrivals) that does not declare its own BatchPolicy —
  /// the scenario-level switch the stock `batching` scenario uses, so
  /// one catalog entry turns the throughput-for-latency trade on for
  /// every system under test identically.
  Scenario& batch_ls(BatchPolicy policy);
  /// Model GPU memory on every device of the run (weight residency,
  /// cold-start loads, eviction; src/memory) — the scenario-level switch
  /// the stock `model-zoo` scenario uses. Overrides the engine-config
  /// default only when `opt.enabled`; other scenarios stay untouched.
  Scenario& memory(memory::MemoryOptions opt);

  // ------------------------------------------------------- accessors ----
  struct RateStep {
    TimeNs at = 0;
    unsigned service = 0;  // kAllServices = every LS service
    double multiplier = 1.0;
  };
  struct Arrival {
    TimeNs at = 0;
    ScenarioTenant tenant;
  };
  struct Departure {
    TimeNs at = 0;
    unsigned tenant = 0;
  };
  struct SloChange {
    TimeNs at = 0;
    double factor = 1.0;
  };
  struct QuotaChange {
    TimeNs at = 0;
    unsigned tenant = 0;
    control::VgpuSpec vgpu;
  };
  struct DeviceFailure {
    TimeNs at = 0;
    fleet::DeviceId device = 0;
  };
  struct PriorityChange {
    unsigned tenant = 0;
    int priority = 0;
  };

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  TimeNs duration() const { return duration_; }
  unsigned device_count() const { return devices_; }
  bool autoscaled() const { return autoscale_; }
  /// The scenario-wide LS batching policy (disabled unless batch_ls()).
  const BatchPolicy& ls_batch_policy() const { return ls_batching_; }
  /// The scenario-wide memory model (disabled unless memory()).
  const memory::MemoryOptions& memory_options() const { return memory_; }
  const fleet::AutoscalerOptions& autoscaler_options() const {
    return autoscaler_opt_;
  }
  const std::vector<RateStep>& rate_steps() const { return rate_steps_; }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }
  const std::vector<Departure>& departures() const { return departures_; }
  const std::vector<SloChange>& slo_changes() const { return slo_changes_; }
  const std::vector<QuotaChange>& quota_changes() const {
    return quota_changes_;
  }
  /// Empty = homogeneous (the engine-config spec on every device).
  const std::vector<gpusim::GpuSpec>& device_specs() const {
    return device_specs_;
  }
  const fleet::FrontDoorConfig& front_door_config() const {
    return front_door_;
  }
  const std::vector<DeviceFailure>& device_failures() const {
    return failures_;
  }
  const std::vector<PriorityChange>& priorities() const {
    return priorities_;
  }

 private:
  std::string name_;
  std::string description_;
  TimeNs duration_;
  unsigned devices_ = 2;
  bool autoscale_ = false;
  fleet::AutoscalerOptions autoscaler_opt_;
  BatchPolicy ls_batching_;        // default: disabled
  memory::MemoryOptions memory_;   // default: disabled
  std::vector<gpusim::GpuSpec> device_specs_;  // empty = homogeneous
  fleet::FrontDoorConfig front_door_;          // default: disabled
  std::vector<RateStep> rate_steps_;
  std::vector<Arrival> arrivals_;
  std::vector<Departure> departures_;
  std::vector<SloChange> slo_changes_;
  std::vector<QuotaChange> quota_changes_;
  std::vector<DeviceFailure> failures_;
  std::vector<PriorityChange> priorities_;
};

/// The substrate a scenario runs on. slo_multiplier must be explicit
/// (> 0): tenants arrive and depart mid-run, so the per-device default
/// (n = co-resident tenants at init) would drift across scenarios.
struct ScenarioEngineConfig {
  gpusim::GpuSpec spec;
  gpusim::ExecutorParams exec_params;
  unsigned ls_instances = 4;
  double slo_multiplier = 0.0;
  core::BeMode be_mode = core::BeMode::kRoundRobin;
  uint64_t seed = 0x5ce0;
  TimeNs dispatch_latency = 0;
  TimeNs dispatch_jitter = 0;
  /// Trace shape knobs (forwarded to generate_apollo_like_trace).
  double burstiness = 0.35;
  TimeNs frame_interval = 10 * kNsPerMs;
  /// Fleet-wide memory model default (OFF). A scenario that calls
  /// Scenario::memory() with an enabled config overrides this.
  memory::MemoryOptions memory;
};

struct ScenarioOutcome {
  fleet::FleetMetrics metrics;
  size_t requests = 0;  // open-loop requests compiled from the script
  std::vector<fleet::Autoscaler::Decision> scaling;
};

/// Compile a scenario's rate script into the open-loop request stream:
/// per LS service, piecewise segments between its arrival, every rate
/// step, and its departure, each generated with a seed derived from
/// (cfg.seed, service, segment) so runs are reproducible bit-for-bit.
/// Exposed separately so tests can assert on the stream itself.
std::vector<Request> build_scenario_trace(
    const Scenario& scenario, const std::vector<ScenarioTenant>& initial,
    const ScenarioEngineConfig& cfg);

/// Run one scenario end-to-end on a fleet. `initial` lists the tenants
/// present at t=0 (LS first is conventional but not required); `router`
/// and `placement` must outlive the call. The placement policy is also
/// reused to place mid-run arrivals.
ScenarioOutcome run_scenario(const Scenario& scenario,
                             const std::vector<ScenarioTenant>& initial,
                             const ScenarioEngineConfig& cfg,
                             const fleet::PlacementPolicy& placement,
                             fleet::Router& router,
                             const fleet::ControllerFactory& make_controller);

/// Options for the stock scenario library. The factories mint tenants
/// for churn arrivals (index = arrival ordinal); they may be empty when
/// the caller skips the scenarios that need them.
struct ScenarioCatalogOptions {
  TimeNs duration = 1 * kNsPerSec;
  unsigned devices = 2;
  /// Size of the initial tenant list run_scenario() will receive
  /// (LS + BE), used to index departures of scripted arrivals.
  unsigned initial_tenants = 0;
  std::function<ScenarioTenant(unsigned)> make_ls_arrival;
  std::function<ScenarioTenant(unsigned)> make_be_arrival;
  /// Memory model for the `model-zoo` scenario (high-churn fleet under
  /// VRAM pressure). Leave disabled to get the scenario without memory
  /// modeling (it then degenerates to a churn workload).
  memory::MemoryOptions model_zoo_memory;
  /// Per-device specs for the heterogeneous scenarios (hetero-diurnal,
  /// flash-overload). Empty = those scenarios run homogeneous on
  /// `devices` devices, like the rest of the catalog.
  std::vector<gpusim::GpuSpec> hetero_specs;
  /// Shed-oriented front door for the overload scenarios
  /// (flash-overload, device-failure): queue-depth BE pause + LS shed
  /// bounds and the retry model. Leave disabled to watch them degrade
  /// by unbounded queueing instead (the pre-front-door behaviour).
  fleet::FrontDoorConfig front_door;
  /// Admission-oriented front door for `retry-storm`: a tight
  /// per-service token bucket whose rejections drive the retry herd.
  fleet::FrontDoorConfig admission_door;
};

/// The stock scenario names scenario_catalog() emits, in order — the
/// single source docs/scenarios.md and the sweep's gates key on.
inline constexpr unsigned kStockScenarioCount = 12;

/// The stock library of 12 named dynamic scenarios (docs/scenarios.md
/// catalogs each): steady, diurnal, flash-crowd (5× spike +
/// autoscaler), tenant-churn, BE-backfill-surge, SLO-tighten, batching,
/// model-zoo (weight residency under VRAM pressure), hetero-diurnal
/// (the sine day on a mixed fleet), flash-overload (beyond-capacity
/// spike through the front door), retry-storm (tight admission + client
/// backoff), and device-failure (mid-run cordon + recovery).
std::vector<Scenario> scenario_catalog(const ScenarioCatalogOptions& opt);

}  // namespace sgdrc::workload
