#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

namespace sgdrc::fleet {

using workload::Request;
using workload::TenantMetrics;

FleetSim::FleetSim(FleetConfig cfg, std::vector<FleetTenantSpec> tenants,
                   const PlacementPolicy& placement, Router& router,
                   const ControllerFactory& make_controller)
    : cfg_(std::move(cfg)),
      tenants_(std::move(tenants)),
      router_(router),
      make_controller_(make_controller) {
  SGDRC_REQUIRE(cfg_.devices >= 1, "fleet needs at least one device");
  SGDRC_REQUIRE(!tenants_.empty(), "fleet needs at least one tenant");
  SGDRC_REQUIRE(make_controller != nullptr,
                "fleet needs a controller factory");
  SGDRC_REQUIRE(cfg_.device_specs.empty() ||
                    cfg_.device_specs.size() == cfg_.devices,
                "device_specs must be empty (homogeneous) or list one "
                "spec per device");
  failed_.assign(cfg_.devices, 0);
  if (cfg_.front_door.enabled) {
    front_door_ = std::make_unique<FrontDoor>(cfg_.front_door, cfg_.seed);
  }

  assignment_ = placement.place(tenants_, cfg_.devices);
  validate_assignment(assignment_, tenants_, cfg_.devices);

  std::vector<std::vector<core::TenantSpec>> per_device(cfg_.devices);
  replicas_.resize(tenants_.size());
  retired_.resize(tenants_.size());
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].spec.qos == QosClass::kLatencySensitive) {
      ls_fleet_tenants_.push_back(t);
    }
    for (const DeviceId d : assignment_[t]) {
      replicas_[t].push_back(
          {d, static_cast<workload::TenantId>(per_device[d].size())});
      per_device[d].push_back(tenants_[t].spec);
    }
  }

  shards_.reserve(cfg_.devices);
  for (DeviceId d = 0; d < cfg_.devices; ++d) {
    shards_.push_back(std::make_unique<EventQueue>());
  }
  controllers_.resize(cfg_.devices);
  devices_.resize(cfg_.devices);
  for (DeviceId d = 0; d < cfg_.devices; ++d) {
    if (per_device[d].empty()) continue;  // idled by pack placement
    controllers_[d] = make_controller_(device_spec(d));
    devices_[d] = core::ServingSimBuilder()
                      .config(device_config(d))
                      .tenants(per_device[d])
                      .build(*shards_[d], *controllers_[d]);
  }

  if (cfg_.engine.parallel && cfg_.devices > 1) {
    size_t threads = cfg_.engine.threads
                         ? cfg_.engine.threads
                         : std::max(1u, std::thread::hardware_concurrency());
    pool_ = std::make_unique<ThreadPool>(
        std::min<size_t>(threads, cfg_.devices));
  }
}

const gpusim::GpuSpec& FleetSim::device_spec(DeviceId d) const {
  SGDRC_REQUIRE(d < cfg_.devices, "device out of range");
  return cfg_.device_specs.empty() ? cfg_.spec : cfg_.device_specs[d];
}

double FleetSim::device_perf(DeviceId d) const {
  if (cfg_.device_specs.empty()) return 1.0;  // exact: homogeneous
  return relative_perf(device_spec(d), cfg_.spec);
}

core::ServingConfig FleetSim::device_config(DeviceId d) const {
  core::ServingConfig scfg;
  scfg.spec = device_spec(d);
  scfg.exec_params = cfg_.exec_params;
  scfg.ls_instances = cfg_.ls_instances;
  scfg.duration = cfg_.duration;
  scfg.slo_multiplier = cfg_.slo_multiplier;
  scfg.be_mode = cfg_.be_mode;
  scfg.seed = device_seed(cfg_.seed, d);
  scfg.memory = cfg_.memory;
  return scfg;
}

core::ServingSim& FleetSim::ensure_device(DeviceId d) {
  SGDRC_REQUIRE(d < devices_.size(), "device out of range");
  SGDRC_REQUIRE(!failed_[d], "cannot place replicas on a failed device");
  if (!devices_[d]) {
    // A zero-tenant sim cannot derive the SLO multiplier from its
    // co-residency (there is none yet); without an explicit n its
    // replicas would get far tighter SLOs than their siblings.
    SGDRC_REQUIRE(cfg_.slo_multiplier > 0.0,
                  "placing replicas on an idle device needs an explicit "
                  "FleetConfig::slo_multiplier");
    // Brought up mid-run (pack placement idled it at construction). Its
    // shard already exists and sits on the fleet frontier — barriers
    // advance every shard's clock, sims or not — so the new sim's first
    // events land at >= now() like any sibling's.
    controllers_[d] = make_controller_(device_spec(d));
    devices_[d] = core::ServingSimBuilder()
                      .config(device_config(d))
                      .build(*shards_[d], *controllers_[d]);
    if (begun_) devices_[d]->begin();
    // A device brought up during an overload inherits the current BE
    // pause state, like its long-lived siblings.
    if (front_door_ && device_be_paused_) devices_[d]->set_be_paused(true);
  }
  return *devices_[d];
}

const core::ServingSim& FleetSim::device(DeviceId d) const {
  SGDRC_REQUIRE(d < devices_.size() && devices_[d] != nullptr,
                "no sim on this device (idle under pack placement)");
  return *devices_[d];
}

size_t FleetSim::fleet_ls_queue_depth() const {
  size_t depth = 0;
  for (const unsigned ft : ls_fleet_tenants_) {
    for (const Replica& r : replicas_[ft]) depth += outstanding(r);
  }
  return depth;
}

void FleetSim::set_be_paused(bool paused) {
  if (device_be_paused_ == paused) return;
  device_be_paused_ = paused;
  for (auto& dev : devices_) {
    if (dev) dev->set_be_paused(paused);
  }
}

void FleetSim::fail_device(DeviceId device) {
  SGDRC_REQUIRE(device < cfg_.devices, "device out of range");
  if (failed_[device]) return;
  failed_[device] = 1;
  // Cordon-and-drain: each replica retires through the normal removal
  // path, so admitted work completes and its history survives. Nothing
  // new routes here — replicas_of() no longer lists this device.
  std::vector<unsigned> stranded;  // lost their ONLY replica here
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    const auto& reps = replicas_[t];
    if (std::any_of(reps.begin(), reps.end(),
                    [&](const Replica& r) { return r.device == device; })) {
      remove_replica(t, device);
      if (reps.empty()) stranded.push_back(t);
    }
  }
  // Recovery: a tenant whose only replica was here gets rescheduled
  // onto the least-loaded eligible survivor (what an orchestrator does
  // when a node dies), so its traffic stays routable. Eligibility
  // mirrors the autoscaler: never a failed device, and never a sim-less
  // one unless the fleet carries an explicit SLO multiplier. When no
  // device qualifies the tenant stays unroutable — the front door sheds
  // its requests, or dispatch fails loudly without one.
  for (const unsigned t : stranded) {
    bool have = false;
    DeviceId best = 0;
    double best_load = 0.0;
    for (DeviceId d = 0; d < cfg_.devices; ++d) {
      if (failed_[d]) continue;
      if (!devices_[d] && cfg_.slo_multiplier <= 0.0) continue;
      const double load = device_ls_load(d) / device_perf(d);
      if (!have || load < best_load) {
        have = true;
        best = d;
        best_load = load;
      }
    }
    if (have) add_replica(t, best);
  }
}

double FleetSim::device_ls_load(DeviceId d) const {
  SGDRC_REQUIRE(d < devices_.size(), "device out of range");
  if (!devices_[d]) return 0.0;
  const core::ServingSim& sim = *devices_[d];
  double load = 0.0;
  for (workload::TenantId t = 0; t < sim.tenant_count(); ++t) {
    const core::TenantSpec& spec = sim.tenant(t);
    if (spec.qos != QosClass::kLatencySensitive) continue;
    load += static_cast<double>(sim.outstanding(t)) *
            static_cast<double>(spec.isolated_latency);
  }
  return load;
}

FleetMetrics FleetSim::run(const std::vector<Request>& trace) {
  begin();
  for (const Request& r : trace) {
    SGDRC_REQUIRE(r.service < ls_fleet_tenants_.size(),
                  "request for unknown fleet service");
    if (r.arrival >= cfg_.duration) continue;
    dispatch_.schedule_at(r.arrival, [this, r] { dispatch(r); });
  }
  run_until(cfg_.duration);
  return finish();
}

void FleetSim::begin() {
  SGDRC_REQUIRE(!begun_, "fleet already began");
  begun_ = true;
  router_.reset(tenants_.size());
  routed_.assign(cfg_.devices, 0);
  for (auto& dev : devices_) {
    if (dev) dev->begin();
  }
  // The overload tick re-evaluates BE pause/resume on the control tier
  // even when arrivals stop, so a drained queue always resumes BE.
  if (front_door_ && cfg_.front_door.tick_interval > 0 &&
      cfg_.front_door.be_pause_depth > 0) {
    front_door_tick(cfg_.front_door.tick_interval);
  }
}

void FleetSim::front_door_tick(TimeNs t) {
  if (t >= cfg_.duration) return;
  at(t, [this, t] {
    front_door_->tick(*this, t);
    front_door_tick(t + cfg_.front_door.tick_interval);
  });
}

void FleetSim::inject(unsigned service, TimeNs arrival) {
  SGDRC_REQUIRE(service < ls_fleet_tenants_.size(),
                "inject for unknown fleet service");
  dispatch({arrival, service});
}

void FleetSim::at(TimeNs t, std::function<void()> fn) {
  control_.schedule_at(t, std::move(fn));
}

// The conservative windowed engine. Canonical order at equal
// timestamps: control actions, then dispatches, then device-shard
// events (docs/determinism.md) — ties across *device* shards never
// matter because shards share no state. Each iteration picks the next
// fleet event at or before `t`, barriers every shard up to it
// (exclusive, so same-time device events take their turn after the
// fleet tier), fires it, and repeats; with a blind router and a
// positive dispatch hop, runs of dispatches coalesce into one window —
// the lookahead that makes the parallel barrier coarse enough to pay.
size_t FleetSim::run_until(TimeNs t) {
  size_t fired = 0;
  // The front door reads live queue depths at every dispatch, so its
  // presence forces the state-reading barrier path just like a
  // state-reading router would.
  const bool coalesce = !router_.reads_device_state() &&
                        cfg_.dispatch_latency > 0 && !front_door_;
  // "No event at or before t" sentinel; real timestamps never reach it.
  static constexpr TimeNs kNone = std::numeric_limits<TimeNs>::max();
  const auto next_in = [](EventQueue& q) {
    return q.peek_next_time().value_or(kNone);
  };
  for (;;) {
    TimeNs tc = next_in(control_);
    TimeNs td = next_in(dispatch_);
    if (tc > t) tc = kNone;
    if (td > t) td = kNone;
    if (tc != kNone && tc <= td) {
      fired += advance_shards(tc, /*inclusive=*/false);
      // Drain every control action at this instant, cascades included
      // (an autoscaler tick scheduling a same-time follow-up).
      while (next_in(control_) <= tc) {
        control_.run_next();
        ++fired;
      }
      continue;
    }
    if (td == kNone) break;
    if (coalesce) {
      // Blind-router window: route() reads no device state and every
      // injection lands at least one dispatch hop in the future, so a
      // whole run of dispatches (up to the next control action) fires
      // with the shards still behind — they catch up at the next
      // barrier and replay the injections in timestamp order.
      for (;;) {
        const TimeNs next = next_in(dispatch_);
        if (next > t || next >= tc) break;
        dispatch_.run_next();
        ++fired;
      }
    } else {
      // The router inspects live device state: barrier the shards up
      // to this dispatch instant so it reads a consistent fleet.
      fired += advance_shards(td, /*inclusive=*/false);
      while (next_in(dispatch_) <= td) {
        dispatch_.run_next();
        ++fired;
      }
    }
  }
  // No fleet event remains at or before t: close the window — shards
  // run to t inclusive and every clock lands on t.
  fired += advance_shards(t, /*inclusive=*/true);
  if (control_.now() < t) control_.advance_to(t);
  if (dispatch_.now() < t) dispatch_.advance_to(t);
  events_ += fired;
  return fired;
}

size_t FleetSim::advance_shards(TimeNs t, bool inclusive) {
  // Even an idle or sim-less shard advances its clock, so control
  // actions and inline injections behind the barrier see a consistent
  // device now().
  if (!pool_) {
    size_t fired = 0;
    for (DeviceId d = 0; d < shards_.size(); ++d) {
      if (devices_[d]) {
        fired += inclusive ? devices_[d]->run_shard_until(t)
                           : devices_[d]->run_shard_until_before(t);
      } else if (shards_[d]->now() < t) {
        shards_[d]->advance_to(t);
      }
    }
    return fired;
  }
  // Parallel window: workers wake once (the pool's condition variable —
  // readiness events, not polling) and claim shard indices from a
  // shared cursor until none remain. Shards are mutually independent,
  // so any interleaving yields the same result as the serial loop; the
  // pool's submit/wait_idle pair is the happens-before on either side
  // of the window. Each run_shard_until* call claims the sim's
  // ShardGuard, so with SGDRC_DEBUG_OWNERSHIP=1 any second thread
  // touching a claimed shard mid-window aborts with both thread ids.
  std::atomic<size_t> next{0};
  std::atomic<size_t> fired{0};
  pool_->parallel_for(std::min(pool_->size(), shards_.size()),
                      [&](size_t) {
                        size_t local = 0;
                        for (;;) {
                          const size_t d =
                              next.fetch_add(1, std::memory_order_relaxed);
                          if (d >= shards_.size()) break;
                          if (devices_[d]) {
                            local += inclusive
                                         ? devices_[d]->run_shard_until(t)
                                         : devices_[d]->run_shard_until_before(
                                               t);
                          } else if (shards_[d]->now() < t) {
                            shards_[d]->advance_to(t);
                          }
                        }
                        fired.fetch_add(local, std::memory_order_relaxed);
                      });
  return fired.load();
}

FleetMetrics FleetSim::finish() {
  FleetMetrics out;
  out.duration = cfg_.duration;
  out.events = events_;
  out.routed = routed_;
  if (front_door_) {
    front_door_->finalize(cfg_.duration);
    out.front_door = front_door_->metrics();
  }
  for (auto& dev : devices_) {
    if (dev) {
      out.devices.push_back(dev->finish());
    } else {
      // Idle device (pack placement): no tenants, but a real duration so
      // its rate accessors stay finite.
      workload::ServingMetrics idle;
      idle.duration = cfg_.duration;
      out.devices.push_back(std::move(idle));
    }
  }
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    // Active replicas first, then retired ones: a churned tenant keeps
    // every request it ever served in its merged history.
    std::vector<Replica> reps = replicas_[t];
    reps.insert(reps.end(), retired_[t].begin(), retired_[t].end());
    SGDRC_CHECK(!reps.empty(), "fleet tenant never had a replica");
    const TenantMetrics& first =
        out.devices[reps.front().device].tenants[reps.front().local_tenant];
    TenantMetrics m;
    m.id = t;
    m.qos = first.qos;
    m.name = first.name;
    m.letter = first.letter;
    m.isolated_p99 = first.isolated_p99;
    m.slo = first.slo;
    m.batch = first.batch;
    m.kernels_per_batch = first.kernels_per_batch;
    for (const Replica& r : reps) {
      m.absorb(out.devices[r.device].tenants[r.local_tenant]);
    }
    out.tenants.push_back(std::move(m));
  }
  return out;
}

// ------------------------------------------- runtime rescale / churn ----

unsigned FleetSim::add_fleet_tenant(FleetTenantSpec spec,
                                    const PlacementPolicy& placement) {
  tenants_.push_back(std::move(spec));
  replicas_.emplace_back();
  retired_.emplace_back();
  const unsigned t = static_cast<unsigned>(tenants_.size() - 1);
  // Re-place the full list; only the newcomer's row takes effect —
  // existing replicas never migrate.
  const Assignment a = placement.place(tenants_, cfg_.devices);
  SGDRC_CHECK(a.size() == tenants_.size(), "placement skipped a tenant");
  for (const DeviceId d : a[t]) add_replica(t, d);
  SGDRC_REQUIRE(!replicas_[t].empty(), "new tenant placed no replicas");
  assignment_.push_back(a[t]);  // keep assignment() covering every tenant
  if (tenants_[t].spec.qos == QosClass::kLatencySensitive) {
    ls_fleet_tenants_.push_back(t);
  }
  return t;
}

void FleetSim::add_replica(unsigned tenant, DeviceId device) {
  SGDRC_REQUIRE(tenant < tenants_.size(), "unknown fleet tenant");
  for (const Replica& r : replicas_[tenant]) {
    SGDRC_REQUIRE(r.device != device,
                  "tenant already has an active replica on this device");
  }
  core::ServingSim& sim = ensure_device(device);
  const workload::TenantId local = sim.add_tenant(tenants_[tenant].spec);
  if (tenants_[tenant].spec.qos == QosClass::kLatencySensitive &&
      slo_factor_ != 1.0) {
    sim.set_slo(local, static_cast<TimeNs>(
                           slo_factor_ *
                           static_cast<double>(sim.slo_of(local))));
  }
  replicas_[tenant].push_back({device, local});
}

void FleetSim::remove_replica(unsigned tenant, DeviceId device) {
  SGDRC_REQUIRE(tenant < tenants_.size(), "unknown fleet tenant");
  auto& reps = replicas_[tenant];
  const auto it =
      std::find_if(reps.begin(), reps.end(),
                   [&](const Replica& r) { return r.device == device; });
  SGDRC_REQUIRE(it != reps.end(), "no active replica on this device");
  devices_[device]->remove_tenant(it->local_tenant);
  retired_[tenant].push_back(*it);
  reps.erase(it);
}

void FleetSim::remove_fleet_tenant(unsigned tenant) {
  SGDRC_REQUIRE(tenant < tenants_.size(), "unknown fleet tenant");
  while (!replicas_[tenant].empty()) {
    remove_replica(tenant, replicas_[tenant].back().device);
  }
}

void FleetSim::set_slo_factor(double factor) {
  SGDRC_REQUIRE(factor > 0.0, "SLO factor must be positive");
  slo_factor_ *= factor;
  for (auto& dev : devices_) {
    if (!dev) continue;
    for (workload::TenantId t = 0; t < dev->tenant_count(); ++t) {
      if (dev->tenant(t).qos != QosClass::kLatencySensitive) continue;
      dev->set_slo(t, static_cast<TimeNs>(
                          factor * static_cast<double>(dev->slo_of(t))));
    }
  }
}

void FleetSim::set_fleet_vgpu(unsigned tenant, const control::VgpuSpec& vgpu) {
  SGDRC_REQUIRE(tenant < tenants_.size(), "unknown fleet tenant");
  tenants_[tenant].spec.vgpu = vgpu;  // future replicas inherit
  for (const Replica& r : replicas_[tenant]) {
    devices_[r.device]->set_vgpu(r.local_tenant, vgpu);
  }
}

void FleetSim::dispatch(const Request& r) {
  dispatch_attempt(r, 0, r.arrival);
}

void FleetSim::dispatch_attempt(const Request& r, unsigned attempt,
                                TimeNs first_arrival) {
  const unsigned ft = ls_fleet_tenants_[r.service];
  const auto& reps = replicas_[ft];
  if (front_door_) {
    if (attempt == 0) front_door_->note_arrival(r.service);
    if (reps.empty()) {
      // Unroutable (device failure / departure raced the request):
      // shed at the door instead of crashing the fleet.
      front_door_->note_unroutable(r.service);
      schedule_retry(r, attempt, first_arrival);
      return;
    }
    const FrontDoor::Decision decision =
        front_door_->admit(*this, r.service, r.arrival);
    if (decision != FrontDoor::Decision::kAdmit) {
      schedule_retry(r, attempt, first_arrival);
      return;
    }
  }
  SGDRC_REQUIRE(!reps.empty(), "request for a tenant with no active replica");
  const size_t pick = router_.route(*this, ft, reps);
  SGDRC_CHECK(pick < reps.size(), "router picked an invalid replica");
  const Replica rep = reps[pick];
  core::ServingSim& sim = *devices_[rep.device];
  TimeNs delay = cfg_.dispatch_latency;
  if (cfg_.dispatch_jitter > 0) {
    delay += static_cast<TimeNs>(sim.rng().exponential(
        1.0 / static_cast<double>(cfg_.dispatch_jitter)));
  }
  // A hop that lands past the measurement window never reaches a device;
  // dropping it here keeps routed == Σ arrived exact.
  if (r.arrival + delay >= cfg_.duration) {
    if (front_door_) front_door_->note_expired();
    return;
  }
  ++routed_[rep.device];
  if (delay == 0) {
    // Zero hop ⇒ the engine barriered this device to the dispatch
    // instant (coalescing requires dispatch_latency > 0), so the
    // request is admitted inline like a standalone sim's arrival.
    sim.inject(rep.local_tenant, first_arrival);
  } else {
    // The cross-shard mailbox: the injection is a timestamped message
    // scheduled onto the *destination* device's shard, replayed in
    // (time, shard-local seq) order whenever its next window opens.
    // Latency still counts from the *first* fleet arrival: dispatch
    // hops and retry backoffs are part of what the client waits for —
    // a request admitted on its second attempt carries its full
    // backoff in its latency sample, so shedding is never free.
    shards_[rep.device]->schedule_at(
        r.arrival + delay, [this, rep, first_arrival] {
          devices_[rep.device]->inject(rep.local_tenant, first_arrival);
        });
  }
}

void FleetSim::schedule_retry(const Request& r, unsigned attempt,
                              TimeNs first_arrival) {
  if (attempt >= cfg_.front_door.max_retries) {
    front_door_->note_dropped(r.service);
    return;
  }
  const TimeNs t = r.arrival + front_door_->retry_delay(attempt);
  if (t >= cfg_.duration) {
    // The re-arrival would land past the horizon — the client gives up
    // as far as this run can observe.
    front_door_->note_dropped(r.service);
    return;
  }
  front_door_->note_retry_scheduled();
  dispatch_.schedule_at(
      t, [this, service = r.service, t, attempt, first_arrival] {
        front_door_->note_retry_fired();
        dispatch_attempt({t, service}, attempt + 1, first_arrival);
      });
}

// ---------------------------------------------------------- metrics ----

std::string run_digest(const FleetMetrics& m, bool tenants_only) {
  std::ostringstream os;
  os.precision(17);
  for (const uint64_t r : m.routed) os << r << ',';
  if (!tenants_only) {
    const auto& fd = m.front_door;
    os << '|' << m.events << '|' << fd.arrived << ':' << fd.admitted << ':'
       << fd.rejected << ':' << fd.shed << ':' << fd.retries << ':'
       << fd.dropped << ':' << fd.expired << ':' << fd.pending_retries << ':'
       << fd.be_pause_events << ':' << fd.be_paused_ns;
    for (const auto* v : {&fd.arrived_by_service, &fd.admitted_by_service,
                          &fd.rejected_by_service, &fd.shed_by_service,
                          &fd.dropped_by_service}) {
      os << '|';
      for (const uint64_t n : *v) os << n << ',';
    }
    for (const auto& d : m.devices) {
      os << '|' << d.ls_busy_ns << ':' << d.be_busy_ns << ':'
         << d.guarantee_violations << ':' << d.memory_trespasses;
    }
  }
  workload::render_tenants(os, m.tenants);
  return workload::fnv1a_hex(os.str());
}

double FleetMetrics::ls_goodput() const {
  return workload::ls_goodput(tenants, duration);
}

double FleetMetrics::be_throughput() const {
  return workload::be_throughput(tenants, duration);
}

uint64_t FleetMetrics::guarantee_violations() const {
  uint64_t n = 0;
  for (const auto& d : devices) n += d.guarantee_violations;
  return n;
}

double FleetMetrics::mean_attainment() const {
  return workload::mean_attainment(tenants);
}

double FleetMetrics::fleet_p99_ms() const {
  Samples all;
  for (const auto& m : tenants) {
    if (m.qos == QosClass::kLatencySensitive) all.add_all(m.latency);
  }
  return all.empty() ? 0.0 : to_ms(static_cast<TimeNs>(all.p99()));
}

uint64_t FleetMetrics::weight_loads() const {
  uint64_t n = 0;
  for (const auto& m : tenants) n += m.weight_loads;
  return n;
}

uint64_t FleetMetrics::weight_evictions() const {
  uint64_t n = 0;
  for (const auto& m : tenants) n += m.weight_evictions;
  return n;
}

uint64_t FleetMetrics::paged_requests() const {
  uint64_t n = 0;
  for (const auto& m : tenants) n += m.paged_requests;
  return n;
}

uint64_t FleetMetrics::memory_trespasses() const {
  uint64_t n = 0;
  for (const auto& d : devices) n += d.memory_trespasses;
  return n;
}

uint64_t FleetMetrics::cold_requests() const {
  uint64_t n = 0;
  for (const auto& m : tenants) n += m.cold_latency.count();
  return n;
}

double FleetMetrics::cold_start_p99_ms() const {
  Samples all;
  for (const auto& m : tenants) all.add_all(m.cold_latency);
  return all.empty() ? std::numeric_limits<double>::quiet_NaN()
                     : to_ms(static_cast<TimeNs>(all.p99()));
}

double FleetMetrics::routed_mean() const {
  if (routed.empty()) return 0.0;
  uint64_t total = 0;
  for (const uint64_t r : routed) total += r;
  return static_cast<double>(total) / static_cast<double>(routed.size());
}

double FleetMetrics::imbalance_cv() const {
  const double mean = routed_mean();
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const uint64_t r : routed) {
    const double d = static_cast<double>(r) - mean;
    var += d * d;
  }
  var /= static_cast<double>(routed.size());
  return std::sqrt(var) / mean;
}

double FleetMetrics::imbalance_max_over_mean() const {
  const double mean = routed_mean();
  if (mean <= 0.0) return 1.0;
  const uint64_t hottest = *std::max_element(routed.begin(), routed.end());
  return static_cast<double>(hottest) / mean;
}

}  // namespace sgdrc::fleet
