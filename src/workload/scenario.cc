#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sgdrc::workload {

// ------------------------------------------------------------ builders ----

Scenario& Scenario::rate(unsigned service, TimeNs at, double multiplier) {
  SGDRC_REQUIRE(multiplier >= 0.0, "rate multiplier must be non-negative");
  SGDRC_REQUIRE(at < duration_, "rate step past the scenario end");
  rate_steps_.push_back({at, service, multiplier});
  return *this;
}

Scenario& Scenario::diurnal(double low, double high, unsigned steps) {
  SGDRC_REQUIRE(steps >= 2 && low >= 0.0 && high >= low,
                "diurnal needs ≥2 steps and 0 ≤ low ≤ high");
  constexpr double kPi = 3.14159265358979323846;
  for (unsigned i = 0; i < steps; ++i) {
    const double phase = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(steps);
    const double m = low + (high - low) * 0.5 * (1.0 - std::cos(phase));
    rate(kAllServices, duration_ * i / steps, m);
  }
  return *this;
}

Scenario& Scenario::arrive(TimeNs at, ScenarioTenant tenant) {
  SGDRC_REQUIRE(at < duration_, "arrival past the scenario end");
  // Arrival order must equal time order: FleetSim assigns service
  // indices as arrivals fire, and the compiled trace assumes they match.
  SGDRC_REQUIRE(arrivals_.empty() || arrivals_.back().at <= at,
                "arrivals must be scripted in time order");
  arrivals_.push_back({at, std::move(tenant)});
  return *this;
}

Scenario& Scenario::depart(TimeNs at, unsigned tenant_index) {
  SGDRC_REQUIRE(at < duration_, "departure past the scenario end");
  departures_.push_back({at, tenant_index});
  return *this;
}

Scenario& Scenario::slo_factor(TimeNs at, double factor) {
  SGDRC_REQUIRE(factor > 0.0, "SLO factor must be positive");
  SGDRC_REQUIRE(at < duration_, "SLO change past the scenario end");
  slo_changes_.push_back({at, factor});
  return *this;
}

Scenario& Scenario::set_quota(TimeNs at, unsigned tenant_index,
                              control::VgpuSpec vgpu) {
  SGDRC_REQUIRE(at < duration_, "quota change past the scenario end");
  quota_changes_.push_back({at, tenant_index, vgpu});
  return *this;
}

Scenario& Scenario::devices(unsigned n) {
  SGDRC_REQUIRE(n >= 1, "scenario needs at least one device");
  devices_ = n;
  return *this;
}

Scenario& Scenario::hardware(std::vector<gpusim::GpuSpec> specs) {
  SGDRC_REQUIRE(!specs.empty(), "hardware needs at least one device spec");
  devices_ = static_cast<unsigned>(specs.size());
  device_specs_ = std::move(specs);
  return *this;
}

Scenario& Scenario::front_door(fleet::FrontDoorConfig cfg) {
  SGDRC_REQUIRE(cfg.enabled, "Scenario::front_door needs an enabled config");
  front_door_ = std::move(cfg);
  return *this;
}

Scenario& Scenario::fail_device(TimeNs at, fleet::DeviceId device) {
  SGDRC_REQUIRE(at < duration_, "device failure past the scenario end");
  failures_.push_back({at, device});
  return *this;
}

Scenario& Scenario::priority(unsigned tenant_index, int priority) {
  priorities_.push_back({tenant_index, priority});
  return *this;
}

Scenario& Scenario::autoscale(fleet::AutoscalerOptions opt) {
  autoscale_ = true;
  autoscaler_opt_ = opt;
  return *this;
}

Scenario& Scenario::batch_ls(BatchPolicy policy) {
  SGDRC_REQUIRE(policy.enabled(), "batch_ls needs max_batch > 1");
  ls_batching_ = policy;
  return *this;
}

Scenario& Scenario::memory(memory::MemoryOptions opt) {
  SGDRC_REQUIRE(opt.enabled, "Scenario::memory needs an enabled config");
  memory_ = opt;
  return *this;
}

// ------------------------------------------------------------ compiler ----

namespace {

/// The open-loop lifetime of one LS service within a scenario.
struct ServiceWindow {
  unsigned service = 0;  // LS service index (fleet numbering)
  double base_rate = 0.0;
  TimeNs from = 0;  // arrival (0 for initial tenants)
  TimeNs to = 0;    // departure, or the scenario end
};

TimeNs departure_of(const Scenario& sc, unsigned tenant_index) {
  TimeNs t = sc.duration();
  for (const auto& d : sc.departures()) {
    if (d.tenant == tenant_index) t = std::min(t, d.at);
  }
  return t;
}

std::vector<ServiceWindow> service_windows(
    const Scenario& sc, const std::vector<ScenarioTenant>& initial) {
  std::vector<ServiceWindow> out;
  unsigned service = 0;
  for (size_t i = 0; i < initial.size(); ++i) {
    if (initial[i].spec.qos != QosClass::kLatencySensitive) continue;
    out.push_back({service++, initial[i].base_rate, 0,
                   departure_of(sc, static_cast<unsigned>(i))});
  }
  for (size_t a = 0; a < sc.arrivals().size(); ++a) {
    const auto& arr = sc.arrivals()[a];
    const unsigned tenant = static_cast<unsigned>(initial.size() + a);
    if (arr.tenant.spec.qos != QosClass::kLatencySensitive) continue;
    out.push_back(
        {service++, arr.tenant.base_rate, arr.at, departure_of(sc, tenant)});
  }
  return out;
}

uint64_t segment_seed(uint64_t base, unsigned service, size_t segment) {
  return splitmix64(splitmix64(base + kGoldenSeedStride *
                                          (static_cast<uint64_t>(service) +
                                           1)) +
                    static_cast<uint64_t>(segment));
}

}  // namespace

std::vector<Request> build_scenario_trace(
    const Scenario& scenario, const std::vector<ScenarioTenant>& initial,
    const ScenarioEngineConfig& cfg) {
  // Piecewise-constant timeline lookup: the last step at or before `t`
  // wins (steps are time-sorted, stable, so the later-scripted of two
  // same-time steps prevails); 1.0 before the first step.
  const auto value_at = [](const std::vector<std::pair<TimeNs, double>>& v,
                           TimeNs t) {
    double m = 1.0;
    for (const auto& s : v) {
      if (s.first <= t) m = s.second;
    }
    return m;
  };

  std::vector<Request> out;
  for (const ServiceWindow& w : service_windows(scenario, initial)) {
    if (w.base_rate <= 0.0 || w.from >= w.to) continue;

    // Two independent timelines that compose multiplicatively: the
    // kAllServices baseline (e.g. a diurnal ramp) and the per-service
    // overlay (e.g. a flash crowd on one service) — so an overlay is
    // not clobbered by the next baseline step.
    std::vector<std::pair<TimeNs, double>> all_steps, svc_steps;
    for (const auto& rs : scenario.rate_steps()) {
      if (rs.service == Scenario::kAllServices) {
        all_steps.emplace_back(rs.at, rs.multiplier);
      } else if (rs.service == w.service) {
        svc_steps.emplace_back(rs.at, rs.multiplier);
      }
    }
    const auto by_time = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::stable_sort(all_steps.begin(), all_steps.end(), by_time);
    std::stable_sort(svc_steps.begin(), svc_steps.end(), by_time);

    std::vector<TimeNs> cuts{w.from};
    for (const auto* steps : {&all_steps, &svc_steps}) {
      for (const auto& s : *steps) {
        if (s.first > w.from && s.first < w.to) cuts.push_back(s.first);
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    cuts.push_back(w.to);

    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      const TimeNs from = cuts[i];
      const TimeNs to = cuts[i + 1];
      const double m =
          value_at(all_steps, from) * value_at(svc_steps, from);
      if (m <= 0.0 || to <= from) continue;
      TraceOptions o;
      o.services = 1;
      o.duration = to - from;
      o.per_service_rates = {w.base_rate * m};
      o.burstiness = cfg.burstiness;
      o.frame_interval = cfg.frame_interval;
      o.seed = segment_seed(cfg.seed, w.service, i);
      for (const Request& r : generate_apollo_like_trace(o)) {
        out.push_back({r.arrival + from, w.service});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival
                                  : a.service < b.service;
  });
  return out;
}

// -------------------------------------------------------------- runner ----

ScenarioOutcome run_scenario(const Scenario& scenario,
                             const std::vector<ScenarioTenant>& initial,
                             const ScenarioEngineConfig& cfg,
                             const fleet::PlacementPolicy& placement,
                             fleet::Router& router,
                             const fleet::ControllerFactory& make_controller) {
  SGDRC_REQUIRE(cfg.slo_multiplier > 0.0,
                "scenarios need an explicit SLO multiplier (tenant churn "
                "makes the per-device default drift)");
  SGDRC_REQUIRE(!initial.empty(), "scenario needs initial tenants");
  const unsigned tenant_space =
      static_cast<unsigned>(initial.size() + scenario.arrivals().size());
  for (const auto& d : scenario.departures()) {
    SGDRC_REQUIRE(d.tenant < tenant_space,
                  "departure references an unknown tenant");
    if (d.tenant >= initial.size()) {
      // A scripted arrival can only depart after it has arrived;
      // rejecting here beats throwing from inside the event loop.
      const auto& arr = scenario.arrivals()[d.tenant - initial.size()];
      SGDRC_REQUIRE(arr.at <= d.at,
                    "departure scheduled before its tenant's arrival");
    }
  }

  for (const auto& q : scenario.quota_changes()) {
    SGDRC_REQUIRE(q.tenant < tenant_space,
                  "quota change references an unknown tenant");
  }
  for (const auto& f : scenario.device_failures()) {
    SGDRC_REQUIRE(f.device < scenario.device_count(),
                  "device failure references an unknown device");
  }
  for (const auto& p : scenario.priorities()) {
    SGDRC_REQUIRE(p.tenant < initial.size(),
                  "priority references a non-initial tenant");
  }

  fleet::FleetConfig fcfg;
  fcfg.spec = cfg.spec;
  fcfg.device_specs = scenario.device_specs();  // empty = homogeneous
  fcfg.front_door = scenario.front_door_config();
  fcfg.exec_params = cfg.exec_params;
  fcfg.devices = scenario.device_count();
  fcfg.ls_instances = cfg.ls_instances;
  fcfg.duration = scenario.duration();
  fcfg.slo_multiplier = cfg.slo_multiplier;
  fcfg.be_mode = cfg.be_mode;
  fcfg.seed = cfg.seed;
  fcfg.dispatch_latency = cfg.dispatch_latency;
  fcfg.dispatch_jitter = cfg.dispatch_jitter;
  // The scenario's own memory script wins only when armed, so the seven
  // memory-less stock scenarios replay bit-identically whatever the
  // catalog options carry for model-zoo.
  fcfg.memory =
      scenario.memory_options().enabled ? scenario.memory_options()
                                        : cfg.memory;

  // Scenario-wide LS batching: arm every LS tenant that does not declare
  // its own policy (initial and arriving alike), so one catalog entry
  // flips the throughput-for-latency axis for every system identically.
  const auto armed = [&scenario](core::TenantSpec spec) {
    if (scenario.ls_batch_policy().enabled() &&
        spec.qos == QosClass::kLatencySensitive &&
        !spec.batching.enabled()) {
      spec.batching = scenario.ls_batch_policy();
    }
    return spec;
  };

  std::vector<fleet::FleetTenantSpec> tenants;
  tenants.reserve(initial.size());
  for (const ScenarioTenant& t : initial) {
    tenants.push_back(fleet::replicated(armed(t.spec), t.replicas));
  }
  // Shed-protection tiers are construction state, not events: the spec
  // is amended before the fleet is built, so the door (and any
  // priority-sensitive controller) sees it from the first request.
  for (const auto& p : scenario.priorities()) {
    tenants[p.tenant].spec.vgpu.priority = p.priority;
  }

  fleet::FleetSim sim(fcfg, std::move(tenants), placement, router,
                      make_controller);
  fleet::Autoscaler autoscaler(scenario.autoscaler_options());
  const std::vector<Request> trace =
      build_scenario_trace(scenario, initial, cfg);

  sim.begin();
  if (scenario.autoscaled()) autoscaler.attach(sim);
  // Control actions are scheduled before same-timestamp injections, so
  // an arriving service exists before its first request routes.
  for (const auto& a : scenario.arrivals()) {
    sim.at(a.at, [&sim, &placement, spec = armed(a.tenant.spec),
                  replicas = a.tenant.replicas] {
      sim.add_fleet_tenant(fleet::replicated(spec, replicas), placement);
    });
  }
  for (const auto& d : scenario.departures()) {
    sim.at(d.at, [&sim, d] { sim.remove_fleet_tenant(d.tenant); });
  }
  for (const auto& s : scenario.slo_changes()) {
    sim.at(s.at, [&sim, s] { sim.set_slo_factor(s.factor); });
  }
  for (const auto& q : scenario.quota_changes()) {
    sim.at(q.at, [&sim, q] { sim.set_fleet_vgpu(q.tenant, q.vgpu); });
  }
  for (const auto& f : scenario.device_failures()) {
    sim.at(f.at, [&sim, f] { sim.fail_device(f.device); });
  }
  for (const Request& r : trace) {
    if (r.arrival >= scenario.duration()) continue;
    sim.at(r.arrival, [&sim, r] { sim.inject(r.service, r.arrival); });
  }
  sim.run_until(scenario.duration());

  ScenarioOutcome out;
  out.metrics = sim.finish();
  out.requests = trace.size();
  out.scaling = autoscaler.decisions();
  return out;
}

// ------------------------------------------------------------- catalog ----

std::vector<Scenario> scenario_catalog(const ScenarioCatalogOptions& opt) {
  const TimeNs d = opt.duration;
  std::vector<Scenario> out;

  out.emplace_back("steady",
                   "constant load — the static-world sanity check", d);
  out.back().devices(opt.devices);

  out.emplace_back(
      "diurnal", "one sine day: every rate swings 0.4x..1.6x in 8 steps", d);
  out.back().devices(opt.devices).diurnal(0.4, 1.6, 8);

  {
    Scenario flash("flash-crowd",
                   "service 0 spikes 5x for 30% of the run; a reactive "
                   "autoscaler adds and drops replicas",
                   d);
    flash.devices(opt.devices + 1)
        .rate(0, (2 * d) / 5, 5.0)
        .rate(0, (7 * d) / 10, 1.0);
    fleet::AutoscalerOptions aso;
    aso.interval = d / 50;
    flash.autoscale(aso);
    out.push_back(std::move(flash));
  }

  {
    Scenario churn("tenant-churn",
                   "services arrive and depart mid-run; replicas drain", d);
    churn.devices(opt.devices);
    if (opt.make_ls_arrival) {
      // The late departure targets the first scripted arrival, indexed
      // past the initial list — a forgotten initial_tenants would
      // silently depart initial tenant 0 instead.
      SGDRC_REQUIRE(opt.initial_tenants > 0,
                    "scenario_catalog needs initial_tenants when churn "
                    "arrivals are scripted");
      churn.arrive(d / 4, opt.make_ls_arrival(0));
      churn.arrive((3 * d) / 5, opt.make_ls_arrival(1));
      // The second initial tenant leaves mid-run; the first arrival
      // leaves near the end (initial list is LS-first by convention).
      churn.depart(d / 2, 1);
      churn.depart((17 * d) / 20, opt.initial_tenants);
    }
    out.push_back(std::move(churn));
  }

  {
    Scenario surge("be-backfill-surge",
                   "a wave of best-effort batch tenants lands mid-run and "
                   "stays",
                   d);
    surge.devices(opt.devices);
    if (opt.make_be_arrival) {
      surge.arrive((2 * d) / 5, opt.make_be_arrival(0));
      surge.arrive((9 * d) / 20, opt.make_be_arrival(1));
      surge.arrive(d / 2, opt.make_be_arrival(2));
    }
    out.push_back(std::move(surge));
  }

  out.emplace_back("slo-tighten",
                   "every LS SLO tightens to 0.6x halfway through", d);
  out.back().devices(opt.devices).slo_factor(d / 2, 0.6);

  {
    // The throughput-for-latency axis: every LS tenant batches (up to 8
    // requests, 1 ms assembly) while a 3x surge lands mid-run — batching
    // absorbs the surge by amortising launches and weight traffic.
    Scenario batching("batching",
                      "every LS service batches up to 8 requests (1 ms "
                      "assembly) through a 3x mid-run surge",
                      d);
    batching.devices(opt.devices)
        .batch_ls(batch_up_to(8, 1 * kNsPerMs))
        .rate(Scenario::kAllServices, (2 * d) / 5, 3.0)
        .rate(Scenario::kAllServices, (7 * d) / 10, 1.0);
    out.push_back(std::move(batching));
  }

  {
    // The weight-residency axis: far more registered models than fit
    // resident at once. Services arrive throughout the run while early
    // ones cool off or depart, so the hot set keeps shifting and the
    // memory layer must keep re-deciding which weights stay warm.
    Scenario zoo("model-zoo",
                 "high-churn model fleet under VRAM pressure: services "
                 "arrive all run while early ones cool or depart",
                 d);
    zoo.devices(opt.devices);
    if (opt.model_zoo_memory.enabled) zoo.memory(opt.model_zoo_memory);
    if (opt.make_ls_arrival) {
      SGDRC_REQUIRE(opt.initial_tenants > 0,
                    "scenario_catalog needs initial_tenants when model-zoo "
                    "arrivals are scripted");
      zoo.arrive(d / 6, opt.make_ls_arrival(2));
      zoo.arrive(d / 3, opt.make_ls_arrival(3));
      zoo.arrive(d / 2, opt.make_ls_arrival(4));
      zoo.arrive((2 * d) / 3, opt.make_ls_arrival(5));
      // Early services fade as the newcomers heat up: initial services
      // 0 and 1 cool to a trickle (cold enough to become eviction
      // candidates, warm enough to keep paying cold starts if their
      // weights get dropped), and the first two arrivals depart.
      zoo.rate(0, d / 3, 0.1);
      zoo.rate(1, d / 2, 0.1);
      zoo.depart((5 * d) / 12, opt.initial_tenants);
      zoo.depart((3 * d) / 4, opt.initial_tenants + 1);
    }
    out.push_back(std::move(zoo));
  }

  {
    // The heterogeneity axis: the same sine day as `diurnal`, but on a
    // mixed fleet — perf-aware placement and routing should keep the
    // faster devices proportionally busier through both shoulders.
    Scenario hetero("hetero-diurnal",
                    "the diurnal sine day on a mixed fleet (per-device "
                    "GpuSpecs); perf-aware policies keep big devices "
                    "proportionally busier",
                    d);
    if (!opt.hetero_specs.empty()) {
      hetero.hardware(opt.hetero_specs);
    } else {
      hetero.devices(opt.devices);
    }
    hetero.diurnal(0.4, 1.6, 8);
    out.push_back(std::move(hetero));
  }

  {
    // The overload axis: an 8x all-service spike that no placement can
    // absorb — the interesting question is *how* the fleet degrades.
    // With the front door armed, degradation must be QoS-ordered: BE
    // pauses first, then low-priority LS sheds, and the premium tier
    // (service 0, priority 2) keeps attainment longest.
    Scenario overload("flash-overload",
                      "an 8x beyond-capacity spike on a mixed fleet; the "
                      "front door sheds BE first, then low-priority LS — "
                      "the premium tier degrades last",
                      d);
    if (!opt.hetero_specs.empty()) {
      overload.hardware(opt.hetero_specs);
    } else {
      overload.devices(opt.devices);
    }
    overload.rate(Scenario::kAllServices, (2 * d) / 5, 8.0)
        .rate(Scenario::kAllServices, (7 * d) / 10, 1.0)
        .priority(0, 2);
    if (opt.front_door.enabled) overload.front_door(opt.front_door);
    out.push_back(std::move(overload));
  }

  {
    // The client-behaviour axis: a tight per-service token bucket keeps
    // rejecting a 3x surge, and every rejection schedules a backed-off
    // retry — the herd the backoff-and-jitter model must disperse
    // instead of re-synchronising.
    Scenario storm("retry-storm",
                   "a 3x surge against a tight admission bucket; rejected "
                   "clients retry with exponential backoff + jitter",
                   d);
    storm.devices(opt.devices)
        .rate(Scenario::kAllServices, d / 4, 3.0)
        .rate(Scenario::kAllServices, (3 * d) / 5, 1.0);
    if (opt.admission_door.enabled) storm.front_door(opt.admission_door);
    out.push_back(std::move(storm));
  }

  {
    // The availability axis: a device is cordoned mid-run (replicas
    // drain, routing and the autoscaler avoid it) and the survivors
    // must absorb its share — with the front door shedding whatever
    // they cannot.
    Scenario failure("device-failure",
                     "device 1 is cordoned at 40% of the run; a reactive "
                     "autoscaler re-spreads load onto the survivors",
                     d);
    failure.devices(opt.devices + 1).fail_device((2 * d) / 5, 1);
    fleet::AutoscalerOptions aso;
    aso.interval = d / 50;
    failure.autoscale(aso);
    if (opt.front_door.enabled) failure.front_door(opt.front_door);
    out.push_back(std::move(failure));
  }

  return out;
}

}  // namespace sgdrc::workload
