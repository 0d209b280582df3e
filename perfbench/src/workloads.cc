#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/registry.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "core/harness.h"
#include "core/serving.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet.h"
#include "models/zoo.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using namespace sgdrc;
using core::BeMode;
using core::HarnessOptions;
using core::OfflineProfiler;
using core::ServingHarness;
using core::ServingSim;
using core::ServingSimBuilder;
using models::ModelDesc;
using workload::QosClass;
using workload::Request;
using workload::TenantMetrics;

// Simulated length of each workload's cells. Each workload's SGDRC cells
// serve at least 1000 LS requests (a p99 with ten samples beyond it).
//
// colo-fig17 runs fig17's --quick length over several trace windows: its
// overloaded MPS and Multi-streaming cells grow their backlog (and host
// cost) superlinearly with length, and their cost swings by +-20% with
// the smallest input change, so more short windows are both cheaper and
// steadier than one long one.
constexpr TimeNs kColoDuration = 300 * kNsPerMs;
constexpr unsigned kColoWindows = 4;
// scenario-catalog's p99 over the union of its scenarios is decided by
// retry-storm's slow retries: below ~600 ms they sit at 1% of all
// requests and the p99 flips between ~10 and ~17 ms from seed to seed;
// above ~700 ms model-zoo's peak memory grows in seed-dependent steps.
constexpr TimeNs kScenarioDuration = 600 * kNsPerMs;
constexpr TimeNs kFleetDuration = 20 * kNsPerMs;
constexpr TimeNs kDagDuration = 2000 * kNsPerMs;

// Every random draw inside the library (trace frame phases and burst
// sizes, engine jitter streams) keeps the default seed of the bench each
// workload comes from, so a run without --seed reproduces that bench's
// inputs exactly.
constexpr uint64_t kColoSeed = 0xf17;       // fig17_end_to_end
constexpr uint64_t kFleetSeed = 0xf1ee7;    // fleet_scaling
constexpr uint64_t kScenarioSeed = 0x5ce0;  // scenario_sweep
constexpr uint64_t kDagSeed = 0xda60;       // dag_parallelism

// What --seed changes: each LS service's request rate is scaled by a
// factor drawn from the seed in [1 - kRateSpread, 1 + kRateSpread], which
// moves every arrival time and burst size of the same traffic pattern.
// Re-drawing the trace itself would not repeat the workload: with 3 to 8
// services the trace seed's frame phases decide how the services' bursts
// overlap, and that alone moves p99 latency and BE throughput by 20-40%
// between seeds.
constexpr double kRateSpread = 0.005;
constexpr uint64_t kRateSalt = 0x7a7e5eedull;

/// The seed's factor for one LS request stream (a service, or a service
/// in one trace window); exactly 1 without a seed.
double rate_factor(const std::optional<uint64_t>& seed, size_t stream) {
  if (!seed) return 1.0;
  Rng rng(splitmix64(*seed ^ kRateSalt) +
          kGoldenSeedStride * (static_cast<uint64_t>(stream) + 1));
  return rng.uniform(1.0 - kRateSpread, 1.0 + kRateSpread);
}

constexpr unsigned kFleetDevices = 256;
constexpr unsigned kScenarioDevices = 2;

constexpr const char* kFig17Systems[] = {"Multi-streaming", "TGS",
                                         "MPS",             "Orion",
                                         "SGDRC (Static)",  "SGDRC"};

// ------------------------------------------------------------ helpers ----

double seconds_since(int64_t start) {
  return static_cast<double>(host_ns() - start) / 1e9;
}

/// Adds the host time of a set-up phase to `acc`, under a span when
/// traced.
class Phase {
 public:
  Phase(double& acc, LayerProbe* probe, const char* name)
      : acc_(acc),
        span_(probe ? probe->spans : nullptr,
              probe ? probe->spans->intern(name) : 0),
        start_(host_ns()) {}
  ~Phase() { acc_ += seconds_since(start_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  double& acc_;
  ScopedSpan span_;
  int64_t start_;
};

// Digests hash the exact decimal rendering of counters and raw latency
// samples (the fleet_scaling fingerprint, hashed to 64 bits).
void digest_tenants(std::ostringstream& os,
                    const std::vector<TenantMetrics>& tenants) {
  for (const auto& t : tenants) {
    os << '|' << t.arrived << ':' << t.served << ':' << t.attained << ':'
       << t.kernels_done << ':' << t.evictions << ':' << t.weight_loads
       << ':' << t.paged_requests << ':';
    for (const double s : t.latency.raw()) os << s << ' ';
  }
}

std::string digest(const workload::ServingMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << m.duration << ':' << m.ls_busy_ns << ':' << m.be_busy_ns << ':'
     << m.guarantee_violations;
  digest_tenants(os, m.tenants);
  return fnv1a_hex(os.str());
}

std::string digest(const fleet::FleetMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << m.events << '|';
  for (const uint64_t r : m.routed) os << r << ',';
  const auto& fd = m.front_door;
  os << '|' << fd.arrived << ':' << fd.admitted << ':' << fd.rejected << ':'
     << fd.shed << ':' << fd.retries << ':' << fd.dropped << ':'
     << fd.expired << ':' << fd.pending_retries;
  digest_tenants(os, m.tenants);
  return fnv1a_hex(os.str());
}

/// Collects the first failed check of a cell.
class Gate {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok && failure_.empty()) failure_ = what;
  }
  void finite(double v, const std::string& what) {
    require(std::isfinite(v), what + " is not finite");
  }
  void unit_interval(double v, const std::string& what) {
    finite(v, what);
    require(v >= 0.0 && v <= 1.0, what + " outside [0, 1]");
  }
  const std::string& failure() const { return failure_; }

 private:
  std::string failure_;
};

/// NaN-free metrics and attainment within [0, 1]; counts served requests.
void gate_tenants(Gate& g, CellOutcome& c,
                  const std::vector<TenantMetrics>& tenants,
                  TimeNs duration) {
  bool any_ls = false;
  for (const auto& t : tenants) {
    if (t.qos != QosClass::kLatencySensitive) {
      g.finite(t.samples(), "BE samples of " + t.name);
      continue;
    }
    c.requests_served += t.served;
    g.require(t.served == t.latency.count(),
              "served != latency samples for " + t.name);
    g.require(t.attained <= t.served, "attained > served for " + t.name);
    if (t.served == 0) continue;
    any_ls = true;
    g.unit_interval(t.attainment(), "attainment of " + t.name);
    g.finite(t.p99_ms(), "p99 of " + t.name);
  }
  g.finite(workload::ls_goodput(tenants, duration), "LS goodput");
  g.finite(workload::be_throughput(tenants, duration), "BE throughput");
  if (any_ls) {
    g.unit_interval(workload::mean_attainment(tenants), "mean attainment");
  }
}

void collect_simulated(CellOutcome& c, const std::vector<TenantMetrics>& ts,
                       TimeNs duration) {
  for (const auto& t : ts) {
    if (t.qos == QosClass::kLatencySensitive) {
      c.ls_served += t.served;
      c.ls_attained += t.attained;
      const auto& raw = t.latency.raw();
      c.ls_latency_ns.insert(c.ls_latency_ns.end(), raw.begin(), raw.end());
    } else {
      c.be_samples += t.samples();
    }
  }
  c.sim_duration_ns = static_cast<int64_t>(duration);
}

// ------------------------------------------------------- model set-up ----

/// The ServingHarness constructor's model preparation, phase by phase:
/// profile each Tab. 3 model, take its isolated latency, SPT-transform
/// it, and derive the per-service rates for the target utilisation.
struct ModelSet {
  std::vector<ModelDesc> ls_plain, ls_spt, be_plain, be_spt;
  std::vector<TimeNs> iso;
  std::vector<double> rates;

  void add_kernels(std::vector<gpusim::KernelDesc>& out) const {
    for (const auto* set : {&ls_plain, &ls_spt, &be_plain, &be_spt}) {
      for (const auto& m : *set) {
        out.insert(out.end(), m.kernels.begin(), m.kernels.end());
      }
    }
  }
};

ModelSet build_models(const HarnessOptions& o, SetupTimes& t,
                      LayerProbe* probe) {
  ModelSet s;
  const OfflineProfiler prof(o.spec, o.exec_params);
  const auto prepare = [&](char letter, bool ls) {
    ModelDesc m;
    {
      Phase p(t.profile_s, probe, "setup.profile");
      m = models::make_model(letter);
      prof.profile(m);
      if (ls) s.iso.push_back(prof.isolated_latency(m));
    }
    {
      Phase p(t.spt_transform_s, probe, "setup.spt_transform");
      (ls ? s.ls_spt : s.be_spt)
          .push_back(ServingHarness::transform_for_spt(m, prof));
    }
    (ls ? s.ls_plain : s.be_plain).push_back(std::move(m));
  };
  for (const char c : o.ls_letters) prepare(c, true);
  for (const char c : o.be_letters) prepare(c, false);
  const double n = static_cast<double>(s.ls_plain.size());
  for (const TimeNs iso : s.iso) {
    s.rates.push_back(o.utilization / (n * to_sec(iso)));
  }
  return s;
}

/// The ServingHarness constructor's trace, rates scaled by the seed;
/// `first_stream` numbers the services' rate streams.
std::vector<Request> harness_trace(const HarnessOptions& o, const ModelSet& s,
                                   const std::optional<uint64_t>& seed,
                                   size_t first_stream) {
  workload::TraceOptions topt;
  topt.services = static_cast<unsigned>(s.ls_plain.size());
  topt.duration = o.duration;
  topt.scale = o.load_scale;
  topt.burstiness = o.burstiness;
  topt.seed = o.seed;
  for (size_t i = 0; i < s.rates.size(); ++i) {
    topt.per_service_rates.push_back(s.rates[i] *
                                     rate_factor(seed, first_stream + i));
  }
  return workload::generate_apollo_like_trace(topt);
}

// ------------------------------------------------ single-device cells ----

/// A fleet-mode ServingSim on an EventQueue the harness owns, so the
/// harness can step it one run_next() at a time. Pinned in memory: the
/// sim keeps references to the queue and the controller.
struct DeviceCell {
  std::string name;
  bool sgdrc = false;
  const std::vector<Request>* trace = nullptr;
  std::unique_ptr<control::Controller> controller;
  EventQueue queue;
  std::unique_ptr<ServingSim> sim;
};

std::unique_ptr<DeviceCell> make_device_cell(const ServingSimBuilder& b,
                                             const gpusim::GpuSpec& spec,
                                             const std::string& system,
                                             const std::vector<Request>& trace,
                                             LayerProbe* probe,
                                             std::string name = "") {
  auto cell = std::make_unique<DeviceCell>();
  cell->name = name.empty() ? system : std::move(name);
  cell->sgdrc = system == "SGDRC";
  cell->trace = &trace;
  cell->controller = std::make_unique<ForwardingController>(
      baselines::system(system).make(spec), probe);
  cell->sim = b.build(cell->queue, *cell->controller);
  return cell;
}

/// ServingSim::run, stepped from outside: begin(), the trace injected at
/// its arrival times, events up to the duration one run_next() at a
/// time, then finish().
CellOutcome run_device_cell(DeviceCell& c, LayerProbe* probe,
                            uint32_t cell_id) {
  const std::vector<Request>& trace = *c.trace;
  CellOutcome out;
  out.name = c.name;
  out.sgdrc = c.sgdrc;
  ServingSim& sim = *c.sim;
  EventQueue& q = c.queue;
  const TimeNs duration = sim.config().duration;
  std::vector<workload::TenantId> ls_tenants;  // service -> tenant
  for (workload::TenantId t = 0; t < sim.tenant_count(); ++t) {
    if (sim.tenant(t).qos == QosClass::kLatencySensitive) {
      ls_tenants.push_back(t);
    }
  }

  SpanRecorder* rec = probe ? probe->spans : nullptr;
  if (rec) rec->set_cell(cell_id);
  Gate gate;
  workload::ServingMetrics m;
  try {
    ScopedSpan cell_span(rec, rec ? rec->intern("cell") : 0);
    const int64_t start = host_ns();
    sim.begin();
    for (const Request& r : trace) {
      if (r.arrival >= duration) break;
      q.schedule_at(r.arrival, [&sim, t = ls_tenants.at(r.service),
                                a = r.arrival] { sim.inject(t, a); });
    }
    uint64_t events = 0;
    if (!rec) {
      for (auto t = q.peek_next_time(); t && *t <= duration;
           t = q.peek_next_time()) {
        q.run_next();
        ++events;
      }
    } else {
      const uint32_t n_event = rec->intern("event_queue.run_next");
      for (auto t = q.peek_next_time(); t && *t <= duration;
           t = q.peek_next_time()) {
        ScopedSpan ev(rec, n_event, /*unit=*/true);
        q.run_next();
        ++events;
      }
    }
    if (q.now() < duration) q.advance_to(duration);
    m = sim.finish();
    out.run_s = seconds_since(start);
    out.events = events;
  } catch (const std::exception& e) {
    out.failure = std::string("threw: ") + e.what();
    return out;
  }

  out.digest = digest(m);
  out.peak_pending = q.slot_count();
  out.launches = sim.exec().launches();
  out.evictions = sim.exec().evictions();
  out.kernels_done = sim.exec().completions();
  for (workload::TenantId t = 0; t < m.tenants.size(); ++t) {
    const auto& tm = m.tenants[t];
    if (tm.qos != QosClass::kLatencySensitive) continue;
    gate.require(tm.arrived == tm.served + sim.outstanding(t),
                 "request conservation broken for " + tm.name);
  }
  gate_tenants(gate, out, m.tenants, duration);
  out.failure = gate.failure();
  if (c.sgdrc) collect_simulated(out, m.tenants, duration);
  return out;
}

/// Runs fn, turning an exception into a failed cell.
template <typename Fn>
std::string guarded_digest(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

/// Runs the prepared cells in order, then releases them.
std::vector<CellOutcome> run_device_cells(
    std::vector<std::unique_ptr<DeviceCell>>& cells, LayerProbe* probe) {
  std::vector<CellOutcome> out;
  for (size_t i = 0; i < cells.size(); ++i) {
    out.push_back(
        run_device_cell(*cells[i], probe, static_cast<uint32_t>(i + 1)));
  }
  cells.clear();
  return out;
}

// --------------------------------------------------------- colo-fig17 ----

/// Fig. 17's heavy trace on one RTX A2000: 8 LS services, 3 rotating BE
/// tasks, utilization 1.45, burstiness 0.35, the six Fig. 17 systems
/// back to back — over kColoWindows trace windows (trace seeds kColoSeed,
/// kColoSeed + 1, ...). Window 0 without --seed is fig17 --quick's A2000
/// heavy scenario exactly.
class ColoFig17 final : public Workload {
 public:
  explicit ColoFig17(std::optional<uint64_t> seed) : seed_(seed) {}
  gpusim::GpuSpec spec() const override { return gpusim::rtx_a2000(); }

  HarnessOptions options(unsigned window) const {
    HarnessOptions o;
    o.spec = spec();
    o.utilization = 1.45;
    o.load_scale = 1.0;
    o.burstiness = 0.35;
    o.duration = kColoDuration;
    o.seed = kColoSeed + window;
    return o;
  }

  std::vector<std::string> reference() override {
    prepare(nullptr);
    cells_.clear();
    std::vector<std::string> out;
    for (unsigned w = 0; w < kColoWindows; ++w) {
      for (const char* name : kFig17Systems) {
        out.push_back(guarded_digest([&] {
          const auto controller = baselines::system(name).make(spec());
          return digest(
              builder(options(w), name).build(*controller)->run(traces_[w]));
        }));
      }
    }
    return out;
  }

  SetupTimes prepare(LayerProbe* probe) override {
    SetupTimes t;
    cells_.clear();
    models_ = build_models(options(0), t, probe);
    traces_.assign(kColoWindows, {});
    {
      Phase p(t.trace_gen_s, probe, "setup.trace_gen");
      for (unsigned w = 0; w < kColoWindows; ++w) {
        traces_[w] =
            harness_trace(options(w), models_, seed_, w * models_.iso.size());
        t.requests += traces_[w].size();
      }
    }
    {
      Phase p(t.build_s, probe, "setup.build");
      for (unsigned w = 0; w < kColoWindows; ++w) {
        for (const char* name : kFig17Systems) {
          cells_.push_back(make_device_cell(
              builder(options(w), name), spec(), name, traces_[w], probe,
              std::string(name) + " w" + std::to_string(w)));
        }
      }
    }
    return t;
  }

  std::vector<CellOutcome> run_cells(LayerProbe* probe) override {
    return run_device_cells(cells_, probe);
  }

  std::vector<gpusim::KernelDesc> kernel_mix() const override {
    std::vector<gpusim::KernelDesc> out;
    models_.add_kernels(out);
    return out;
  }

 private:
  /// ServingHarness::run's sim configuration.
  ServingSimBuilder builder(const HarnessOptions& o,
                            const std::string& system) const {
    const bool spt = baselines::system(system).uses_spt;
    ServingSimBuilder b;
    b.gpu(o.spec)
        .executor_params(o.exec_params)
        .default_ls_instances(o.ls_instances)
        .duration(o.duration)
        .best_effort_mode(o.be_mode)
        .slo_multiplier(static_cast<double>(
            models_.ls_plain.size() + (o.be_mode == BeMode::kRoundRobin
                                           ? 1
                                           : models_.be_plain.size())));
    const auto& ls = spt ? models_.ls_spt : models_.ls_plain;
    for (size_t i = 0; i < ls.size(); ++i) {
      b.add_latency_sensitive(ls[i], models_.iso[i]);
    }
    for (const auto& m : spt ? models_.be_spt : models_.be_plain) {
      b.add_best_effort(m);
    }
    return b;
  }

  std::optional<uint64_t> seed_;
  ModelSet models_;
  std::vector<std::vector<Request>> traces_;  // one per window
  std::vector<std::unique_ptr<DeviceCell>> cells_;
};

// ------------------------------------------------------ dag-inception ----

/// inception_ls(dag) + inception_be(dag) on one A2000, concurrent BE
/// mode, every registry system — the DAG Frontier path under load.
class DagInception final : public Workload {
 public:
  explicit DagInception(std::optional<uint64_t> seed) : seed_(seed) {}
  gpusim::GpuSpec spec() const override { return gpusim::rtx_a2000(); }

  std::vector<std::string> reference() override {
    prepare(nullptr);
    cells_.clear();
    std::vector<std::string> out;
    for (const auto& sys : baselines::system_registry()) {
      out.push_back(guarded_digest([&] {
        const auto controller = sys.make(spec());
        return digest(builder(sys.name).build(*controller)->run(trace_));
      }));
    }
    return out;
  }

  SetupTimes prepare(LayerProbe* probe) override {
    SetupTimes t;
    cells_.clear();
    prepare_inputs(t, probe);
    t.requests = trace_.size();
    {
      Phase p(t.build_s, probe, "setup.build");
      for (const auto& sys : baselines::system_registry()) {
        cells_.push_back(make_device_cell(builder(sys.name), spec(), sys.name,
                                          trace_, probe));
      }
    }
    return t;
  }

  std::vector<CellOutcome> run_cells(LayerProbe* probe) override {
    return run_device_cells(cells_, probe);
  }

  std::vector<gpusim::KernelDesc> kernel_mix() const override {
    std::vector<gpusim::KernelDesc> out;
    for (const auto* m : {&ls_, &be_, &ls_spt_, &be_spt_}) {
      out.insert(out.end(), m->kernels.begin(), m->kernels.end());
    }
    return out;
  }

 private:
  // dag_parallelism's load: moderate LS utilisation against one
  // always-on BE partner, SLO 6x isolated.
  static constexpr double kUtilization = 0.30;
  static constexpr double kSloMultiplier = 6.0;

  void prepare_inputs(SetupTimes& t, LayerProbe* probe) {
    const OfflineProfiler prof(spec());
    {
      Phase p(t.profile_s, probe, "setup.profile");
      ls_ = models::inception_ls(true);
      be_ = models::inception_be(true);
      prof.profile(ls_);
      prof.profile(be_);
      iso_ = prof.isolated_latency(ls_);
    }
    {
      Phase p(t.spt_transform_s, probe, "setup.spt_transform");
      ls_spt_ = ServingHarness::transform_for_spt(ls_, prof);
      be_spt_ = ServingHarness::transform_for_spt(be_, prof);
    }
    Phase p(t.trace_gen_s, probe, "setup.trace_gen");
    workload::TraceOptions topt;
    topt.services = 1;
    topt.duration = kDagDuration;
    topt.burstiness = 0.35;
    topt.seed = kDagSeed;
    topt.per_service_rates.push_back(kUtilization / to_sec(iso_) *
                                     rate_factor(seed_, 0));
    trace_ = workload::generate_apollo_like_trace(topt);
  }

  ServingSimBuilder builder(const std::string& system) const {
    const bool spt = baselines::system(system).uses_spt;
    ServingSimBuilder b;
    b.gpu(spec())
        .duration(kDagDuration)
        .slo_multiplier(kSloMultiplier)
        .best_effort_mode(BeMode::kConcurrent)
        .seed(kDagSeed);
    b.add_latency_sensitive(spt ? ls_spt_ : ls_, iso_);
    b.add_best_effort(spt ? be_spt_ : be_);
    return b;
  }

  std::optional<uint64_t> seed_;
  ModelDesc ls_, be_, ls_spt_, be_spt_;
  TimeNs iso_ = 0;
  std::vector<Request> trace_;
  std::vector<std::unique_ptr<DeviceCell>> cells_;
};

// ------------------------------------------------------- fleet cells ----

/// Conservation per device: every LS request a device admitted was
/// served or is still in its system at the cut. Covers retired replicas
/// too, which FleetSim::replicas_of no longer lists.
void gate_fleet(Gate& g, const fleet::FleetSim& sim,
                const fleet::FleetMetrics& m) {
  for (fleet::DeviceId d = 0; d < sim.device_count(); ++d) {
    if (!sim.device_in_use(d)) continue;
    const auto& dm = m.devices.at(d);
    for (workload::TenantId t = 0; t < dm.tenants.size(); ++t) {
      const auto& tm = dm.tenants[t];
      if (tm.qos != QosClass::kLatencySensitive) continue;
      g.require(tm.arrived == tm.served + sim.device(d).outstanding(t),
                "request conservation broken on device " +
                    std::to_string(d) + " for " + tm.name);
    }
  }
  const auto& fd = m.front_door;
  if (sim.front_door()) {
    g.require(fd.arrived == fd.admitted + fd.dropped + fd.pending_retries,
              "front door: arrived != admitted + dropped + pending_retries");
    uint64_t device_arrivals = 0;
    for (const auto& t : m.tenants) {
      if (t.qos == QosClass::kLatencySensitive) device_arrivals += t.arrived;
    }
    g.require(fd.admitted == device_arrivals + fd.expired,
              "front door: admitted != device arrivals + expired");
  }
  g.finite(m.imbalance_cv(), "imbalance_cv");
}

/// Executor counters of every device. FleetSim hands out devices as
/// const; the sims themselves are not const objects, and exec() is only
/// read here.
void collect_fleet(CellOutcome& c, const fleet::FleetSim& sim,
                   const fleet::FleetMetrics& m) {
  c.fleet = true;
  c.events = m.events;
  c.imbalance_cv = m.imbalance_cv();
  for (fleet::DeviceId d = 0; d < sim.device_count(); ++d) {
    if (!sim.device_in_use(d)) continue;
    auto& exec = const_cast<ServingSim&>(sim.device(d)).exec();
    c.launches += exec.launches();
    c.evictions += exec.evictions();
    c.kernels_done += exec.completions();
  }
  const auto& fd = m.front_door;
  c.door_arrived = fd.arrived;
  c.door_admitted = fd.admitted;
  c.door_shed = fd.shed;
  c.door_retries = fd.retries;
  c.door_dropped = fd.dropped;
  c.weight_loads = m.weight_loads();
  c.paged_requests = m.paged_requests();
  c.cold_requests = m.cold_requests();
}

// ---------------------------------------------------------- fleet-256 ----

/// fleet_scaling's throughput cell: 256 A2000s, 3 LS + 2 BE tenants at
/// 0.8 per-device utilisation, spread placement, round-robin routing,
/// SGDRC, serial engine.
class Fleet256 final : public Workload {
 public:
  explicit Fleet256(std::optional<uint64_t> seed) : seed_(seed) {}
  gpusim::GpuSpec spec() const override { return gpusim::rtx_a2000(); }

  HarnessOptions options() const {
    HarnessOptions o;
    o.spec = spec();
    o.ls_letters = "ABC";
    o.be_letters = "IJ";
    o.utilization = 0.8;
    o.burstiness = 0.35;
    o.duration = kFleetDuration;
    o.seed = kFleetSeed;
    return o;
  }

  std::vector<std::string> reference() override {
    return {guarded_digest([&] {
      const ServingHarness h(options());
      ModelSet s;
      for (size_t i = 0; i < h.ls_count(); ++i) {
        s.ls_spt.push_back(h.ls_model_spt(i));
        s.iso.push_back(h.isolated_latency(i));
        s.rates.push_back(h.rate_for(i));
      }
      for (size_t i = 0; i < h.be_count(); ++i) {
        s.be_spt.push_back(h.be_model_spt(i));
      }
      fleet::SpreadPlacement placement;
      fleet::RoundRobinRouter router;
      fleet::FleetSim sim(config(false, 0), tenants(s), placement, router,
                          baselines::system("SGDRC").make);
      return digest(sim.run(trace(s)));
    })};
  }

  SetupTimes prepare(LayerProbe* probe) override {
    SetupTimes t;
    sim_.reset();
    models_ = build_models(options(), t, probe);
    {
      Phase p(t.trace_gen_s, probe, "setup.trace_gen");
      trace_ = trace(models_);
    }
    t.requests = trace_.size();
    {
      Phase p(t.build_s, probe, "setup.build");
      fplacement_ = std::make_unique<ForwardingPlacement>(placement_, probe);
      frouter_ = std::make_unique<ForwardingRouter>(router_, probe);
      sim_ = std::make_unique<fleet::FleetSim>(
          config(false, 0), tenants(models_), *fplacement_, *frouter_,
          forwarding_factory(baselines::system("SGDRC").make, probe));
    }
    return t;
  }

  std::vector<CellOutcome> run_cells(LayerProbe* probe) override {
    std::vector<CellOutcome> out{run_cell(*sim_, probe)};
    sim_.reset();
    return out;
  }

  std::optional<double> parallel_rerun(
      unsigned threads, std::vector<std::string>& digests) override {
    fleet::SpreadPlacement placement;
    fleet::RoundRobinRouter router;
    fleet::FleetSim sim(config(true, threads), tenants(models_), placement,
                        router, baselines::system("SGDRC").make);
    const int64_t start = host_ns();
    const fleet::FleetMetrics m = sim.run(trace_);
    const double s = seconds_since(start);
    digests = {digest(m)};
    return s;
  }

  std::vector<gpusim::KernelDesc> kernel_mix() const override {
    std::vector<gpusim::KernelDesc> out;
    models_.add_kernels(out);
    return out;
  }

 private:
  fleet::FleetConfig config(bool parallel, unsigned threads) const {
    const HarnessOptions o = options();
    fleet::FleetConfig cfg;
    cfg.spec = o.spec;
    cfg.exec_params = o.exec_params;
    cfg.devices = kFleetDevices;
    cfg.duration = kFleetDuration;
    cfg.slo_multiplier = static_cast<double>(o.ls_letters.size() + 1);
    cfg.seed = kFleetSeed;
    cfg.dispatch_latency = 2 * kNsPerUs;
    cfg.dispatch_jitter = 3 * kNsPerUs;
    cfg.engine.parallel = parallel;
    cfg.engine.threads = threads;
    return cfg;
  }

  /// fleet_scaling's make_tenants (SGDRC runs the SPT variants).
  static std::vector<fleet::FleetTenantSpec> tenants(const ModelSet& s) {
    const unsigned replicas = std::max(2u, (kFleetDevices + 1) / 2);
    std::vector<fleet::FleetTenantSpec> out;
    for (size_t i = 0; i < s.ls_spt.size(); ++i) {
      out.push_back(fleet::replicated(
          core::latency_sensitive_tenant(s.ls_spt[i], s.iso[i]), replicas));
    }
    for (const auto& m : s.be_spt) {
      out.push_back(fleet::replicated(core::best_effort_tenant(m), replicas));
    }
    return out;
  }

  /// fleet_scaling's make_trace: load scales with the device count.
  std::vector<Request> trace(const ModelSet& s) const {
    workload::TraceOptions topt;
    topt.services = static_cast<unsigned>(s.rates.size());
    topt.duration = kFleetDuration;
    topt.burstiness = options().burstiness;
    topt.seed = kFleetSeed + kFleetDevices;
    for (size_t i = 0; i < s.rates.size(); ++i) {
      topt.per_service_rates.push_back(s.rates[i] * kFleetDevices *
                                       rate_factor(seed_, i));
    }
    return workload::generate_apollo_like_trace(topt);
  }

  CellOutcome run_cell(fleet::FleetSim& sim, LayerProbe* probe) {
    CellOutcome out;
    out.name = "SGDRC";
    out.sgdrc = true;
    SpanRecorder* rec = probe ? probe->spans : nullptr;
    if (rec) rec->set_cell(1);
    fleet::FleetMetrics m;
    try {
      ScopedSpan cell_span(rec, rec ? rec->intern("cell") : 0);
      const int64_t start = host_ns();
      m = sim.run(trace_);
      out.run_s = seconds_since(start);
    } catch (const std::exception& e) {
      out.failure = std::string("threw: ") + e.what();
      return out;
    }
    out.digest = digest(m);
    Gate gate;
    gate_fleet(gate, sim, m);
    gate_tenants(gate, out, m.tenants, m.duration);
    out.failure = gate.failure();
    collect_fleet(out, sim, m);
    collect_simulated(out, m.tenants, m.duration);
    return out;
  }

  std::optional<uint64_t> seed_;
  ModelSet models_;
  std::vector<Request> trace_;
  fleet::SpreadPlacement placement_;
  fleet::RoundRobinRouter router_;
  std::unique_ptr<ForwardingPlacement> fplacement_;
  std::unique_ptr<ForwardingRouter> frouter_;
  std::unique_ptr<fleet::FleetSim> sim_;
};

// --------------------------------------------------- scenario-catalog ----

/// One stock scenario, driven the way run_scenario drives it but on a
/// FleetSim the harness owns, so post-run state stays queryable.
struct ScenarioCell {
  const workload::Scenario* scenario = nullptr;
  std::unique_ptr<fleet::QosAwarePlacement> placement;
  std::unique_ptr<fleet::QosLoadAwareRouter> router;
  std::unique_ptr<ForwardingPlacement> fplacement;
  std::unique_ptr<ForwardingRouter> frouter;
  std::unique_ptr<fleet::FleetSim> sim;
  std::unique_ptr<fleet::Autoscaler> autoscaler;
  std::vector<Request> trace;
};

/// scenario_sweep's configuration, SGDRC only: 2-device A2000 fleets,
/// QoS-aware placement, QoS-load-aware routing, model-zoo memory
/// oversubscription, the hetero A2000+A100 pair and both front doors.
class ScenarioCatalog final : public Workload {
 public:
  explicit ScenarioCatalog(std::optional<uint64_t> seed) : seed_(seed) {}
  gpusim::GpuSpec spec() const override { return gpusim::rtx_a2000(); }

  std::vector<std::string> reference() override {
    SetupTimes unused;
    prepare_inputs(unused, nullptr);
    std::vector<std::string> out;
    for (const auto& sc : catalog_) {
      out.push_back(guarded_digest([&] {
        const auto placement = placement_for(sc);
        fleet::QosLoadAwareRouter router;
        return digest(workload::run_scenario(sc, initial_, ecfg_, *placement,
                                             router,
                                             baselines::system("SGDRC").make)
                          .metrics);
      }));
    }
    return out;
  }

  SetupTimes prepare(LayerProbe* probe) override {
    SetupTimes t;
    cells_.clear();
    prepare_inputs(t, probe);
    cells_.resize(catalog_.size());
    for (size_t i = 0; i < catalog_.size(); ++i) {
      build_cell(cells_[i], catalog_[i], t, probe);
      t.requests += cells_[i].trace.size();
    }
    return t;
  }

  std::vector<CellOutcome> run_cells(LayerProbe* probe) override {
    std::vector<CellOutcome> out;
    for (size_t i = 0; i < cells_.size(); ++i) {
      out.push_back(run_cell(cells_[i], probe, static_cast<uint32_t>(i + 1)));
    }
    cells_.clear();
    return out;
  }

  std::vector<gpusim::KernelDesc> kernel_mix() const override {
    std::vector<gpusim::KernelDesc> out;
    models_.add_kernels(out);
    for (const auto* m : {&arrival_spt_, &surge_spt_}) {
      out.insert(out.end(), m->kernels.begin(), m->kernels.end());
    }
    return out;
  }

 private:
  HarnessOptions options() const {
    HarnessOptions o;
    o.spec = spec();
    o.ls_letters = "ABC";
    o.be_letters = "IJ";
    o.utilization = 0.4;
    o.burstiness = 0.35;
    o.duration = kScenarioDuration;
    o.seed = kScenarioSeed;
    return o;
  }

  /// scenario_sweep's main(): models, churn/surge arrival models, engine
  /// config, catalog and initial tenants (SPT flavour, for SGDRC).
  void prepare_inputs(SetupTimes& t, LayerProbe* probe) {
    const HarnessOptions ho = options();
    models_ = build_models(ho, t, probe);
    const OfflineProfiler prof(ho.spec, ho.exec_params);
    ModelDesc arrival_model, surge_model;
    TimeNs arrival_iso = 0;
    {
      Phase p(t.profile_s, probe, "setup.profile");
      arrival_model = models::make_model('D');
      prof.profile(arrival_model);
      arrival_iso = prof.isolated_latency(arrival_model);
      surge_model = models::make_model('I');
      prof.profile(surge_model);
    }
    {
      Phase p(t.spt_transform_s, probe, "setup.spt_transform");
      arrival_spt_ = ServingHarness::transform_for_spt(arrival_model, prof);
      surge_spt_ = ServingHarness::transform_for_spt(surge_model, prof);
    }

    ecfg_ = {};
    ecfg_.spec = ho.spec;
    ecfg_.exec_params = ho.exec_params;
    ecfg_.ls_instances = ho.ls_instances;
    ecfg_.slo_multiplier = static_cast<double>(models_.ls_spt.size() + 1);
    ecfg_.seed = kScenarioSeed;
    ecfg_.dispatch_latency = 2 * kNsPerUs;
    ecfg_.dispatch_jitter = 3 * kNsPerUs;
    ecfg_.burstiness = ho.burstiness;

    workload::ScenarioCatalogOptions copt;
    copt.duration = kScenarioDuration;
    copt.devices = kScenarioDevices;
    copt.initial_tenants = static_cast<unsigned>(models_.ls_spt.size() +
                                                 models_.be_spt.size());
    const double arrival_rate =
        ho.utilization /
        (static_cast<double>(models_.ls_spt.size()) * to_sec(arrival_iso)) *
        static_cast<double>(kScenarioDevices) *
        rate_factor(seed_, models_.ls_spt.size());
    const ModelDesc arrival = arrival_spt_;
    const ModelDesc surge = surge_spt_;
    copt.make_ls_arrival = [arrival, arrival_iso, arrival_rate](unsigned) {
      return workload::ScenarioTenant{
          core::latency_sensitive_tenant(arrival, arrival_iso), arrival_rate,
          2};
    };
    copt.make_be_arrival = [surge](unsigned) {
      return workload::ScenarioTenant{core::best_effort_tenant(surge), 0.0,
                                      2};
    };
    copt.model_zoo_memory.enabled = true;
    copt.model_zoo_memory.vram_bytes_override = 256ull << 20;
    copt.model_zoo_memory.oversubscribe = true;
    copt.hetero_specs = {ho.spec, gpusim::a100_sxm4()};
    copt.front_door.enabled = true;
    copt.front_door.be_pause_depth = 12;
    copt.front_door.shed_depth = 20;
    copt.front_door.max_retries = 1;
    copt.admission_door.enabled = true;
    copt.admission_door.admit_rate = 120.0;
    copt.admission_door.admit_burst = 8.0;
    copt.admission_door.max_retries = 3;
    catalog_ = workload::scenario_catalog(copt);

    initial_.clear();
    for (size_t i = 0; i < models_.ls_spt.size(); ++i) {
      initial_.push_back(
          {core::latency_sensitive_tenant(models_.ls_spt[i], models_.iso[i]),
           models_.rates[i] * static_cast<double>(kScenarioDevices) *
               rate_factor(seed_, i),
           2});
    }
    for (const auto& m : models_.be_spt) {
      initial_.push_back({core::best_effort_tenant(m), 0.0, 2});
    }
  }

  std::unique_ptr<fleet::QosAwarePlacement> placement_for(
      const workload::Scenario& sc) const {
    return std::make_unique<fleet::QosAwarePlacement>(
        sc.device_specs().empty()
            ? std::vector<double>{}
            : fleet::device_perf_factors(sc.device_specs(), ecfg_.spec));
  }

  /// run_scenario's scenario-wide LS batching.
  static core::TenantSpec armed(const workload::Scenario& sc,
                                core::TenantSpec spec) {
    if (sc.ls_batch_policy().enabled() &&
        spec.qos == QosClass::kLatencySensitive &&
        !spec.batching.enabled()) {
      spec.batching = sc.ls_batch_policy();
    }
    return spec;
  }

  /// run_scenario up to (not including) sim.begin().
  void build_cell(ScenarioCell& c, const workload::Scenario& sc,
                  SetupTimes& t, LayerProbe* probe) {
    c.scenario = &sc;
    {
      Phase p(t.build_s, probe, "setup.build");
      fleet::FleetConfig fcfg;
      fcfg.spec = ecfg_.spec;
      fcfg.device_specs = sc.device_specs();
      fcfg.front_door = sc.front_door_config();
      fcfg.exec_params = ecfg_.exec_params;
      fcfg.devices = sc.device_count();
      fcfg.ls_instances = ecfg_.ls_instances;
      fcfg.duration = sc.duration();
      fcfg.slo_multiplier = ecfg_.slo_multiplier;
      fcfg.be_mode = ecfg_.be_mode;
      fcfg.seed = ecfg_.seed;
      fcfg.dispatch_latency = ecfg_.dispatch_latency;
      fcfg.dispatch_jitter = ecfg_.dispatch_jitter;
      fcfg.memory = sc.memory_options().enabled ? sc.memory_options()
                                                : ecfg_.memory;
      std::vector<fleet::FleetTenantSpec> tenants;
      for (const auto& it : initial_) {
        tenants.push_back(fleet::replicated(armed(sc, it.spec), it.replicas));
      }
      for (const auto& pr : sc.priorities()) {
        tenants[pr.tenant].spec.vgpu.priority = pr.priority;
      }
      c.placement = placement_for(sc);
      c.router = std::make_unique<fleet::QosLoadAwareRouter>();
      c.fplacement = std::make_unique<ForwardingPlacement>(*c.placement, probe);
      c.frouter = std::make_unique<ForwardingRouter>(*c.router, probe);
      c.sim = std::make_unique<fleet::FleetSim>(
          fcfg, std::move(tenants), *c.fplacement, *c.frouter,
          forwarding_factory(baselines::system("SGDRC").make, probe));
      c.autoscaler =
          std::make_unique<fleet::Autoscaler>(sc.autoscaler_options());
    }
    Phase p(t.trace_gen_s, probe, "setup.trace_gen");
    c.trace = workload::build_scenario_trace(sc, initial_, ecfg_);
  }

  /// run_scenario from sim.begin() to the outcome.
  CellOutcome run_cell(ScenarioCell& c, LayerProbe* probe, uint32_t id) {
    const workload::Scenario& sc = *c.scenario;
    CellOutcome out;
    out.name = sc.name();
    out.sgdrc = true;
    SpanRecorder* rec = probe ? probe->spans : nullptr;
    if (rec) rec->set_cell(id);
    fleet::FleetSim& sim = *c.sim;
    const fleet::PlacementPolicy& placement = *c.fplacement;
    fleet::FleetMetrics m;
    try {
      ScopedSpan cell_span(rec, rec ? rec->intern("cell") : 0);
      const int64_t start = host_ns();
      sim.begin();
      if (sc.autoscaled()) c.autoscaler->attach(sim);
      for (const auto& a : sc.arrivals()) {
        sim.at(a.at, [&sim, &placement, spec = armed(sc, a.tenant.spec),
                      replicas = a.tenant.replicas] {
          sim.add_fleet_tenant(fleet::replicated(spec, replicas), placement);
        });
      }
      for (const auto& d : sc.departures()) {
        sim.at(d.at, [&sim, d] { sim.remove_fleet_tenant(d.tenant); });
      }
      for (const auto& s : sc.slo_changes()) {
        sim.at(s.at, [&sim, s] { sim.set_slo_factor(s.factor); });
      }
      for (const auto& q : sc.quota_changes()) {
        sim.at(q.at, [&sim, q] { sim.set_fleet_vgpu(q.tenant, q.vgpu); });
      }
      for (const auto& f : sc.device_failures()) {
        sim.at(f.at, [&sim, f] { sim.fail_device(f.device); });
      }
      for (const Request& r : c.trace) {
        if (r.arrival >= sc.duration()) continue;
        sim.at(r.arrival, [&sim, r] { sim.inject(r.service, r.arrival); });
      }
      sim.run_until(sc.duration());
      m = sim.finish();
      out.run_s = seconds_since(start);
    } catch (const std::exception& e) {
      out.failure = std::string("threw: ") + e.what();
      return out;
    }
    out.digest = digest(m);
    Gate gate;
    gate_fleet(gate, sim, m);
    gate_tenants(gate, out, m.tenants, m.duration);
    out.failure = gate.failure();
    collect_fleet(out, sim, m);
    collect_simulated(out, m.tenants, m.duration);
    out.autoscaler_decisions = c.autoscaler->decisions().size();
    return out;
  }

  std::optional<uint64_t> seed_;
  ModelSet models_;
  ModelDesc arrival_spt_, surge_spt_;
  workload::ScenarioEngineConfig ecfg_;
  std::vector<workload::Scenario> catalog_;
  std::vector<workload::ScenarioTenant> initial_;
  std::vector<ScenarioCell> cells_;
};

}  // namespace

const std::vector<std::string>& stock_scenario_names() {
  static const std::vector<std::string> names = [] {
    workload::ScenarioCatalogOptions copt;
    std::vector<std::string> out;
    for (const auto& sc : workload::scenario_catalog(copt)) {
      out.push_back(sc.name());
    }
    return out;
  }();
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::optional<uint64_t> seed) {
  if (name == "colo-fig17") return std::make_unique<ColoFig17>(seed);
  if (name == "fleet-256") return std::make_unique<Fleet256>(seed);
  if (name == "scenario-catalog") {
    return std::make_unique<ScenarioCatalog>(seed);
  }
  if (name == "dag-inception") return std::make_unique<DagInception>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
