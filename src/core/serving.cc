#include "core/serving.h"

#include <algorithm>
#include <utility>

#include "control/controller.h"
#include "models/batching.h"

namespace sgdrc::core {

using gpusim::GpuExecutor;
using gpusim::TpcMask;
using workload::Request;

namespace {
constexpr size_t qos_index(QosClass q) {
  return q == QosClass::kLatencySensitive ? 0 : 1;
}
}  // namespace

// ----------------------------------------------------------- frontier ----

void ServingSim::Frontier::reset(const models::ModelDesc& m) {
  done_count = 0;
  ready.clear();
  running.clear();
  if (m.kernel_deps.empty()) {
    pending.clear();
    ready.push_back(0);  // a chain's only source
    return;
  }
  const size_t n = m.kernels.size();
  pending.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = static_cast<int>(m.kernel_deps[i].size());
    if (pending[i] == 0) ready.push_back(static_cast<int>(i));
  }
}

void ServingSim::Frontier::make_ready(int kernel) {
  ready.insert(std::lower_bound(ready.begin(), ready.end(), kernel), kernel);
}

void ServingSim::Frontier::stop(int kernel) {
  auto it = std::find_if(running.begin(), running.end(),
                         [&](const Running& r) { return r.kernel == kernel; });
  SGDRC_CHECK(it != running.end(), "kernel not in flight");
  running.erase(it);
}

void ServingSim::Frontier::retire(int kernel, const models::ModelDesc& m) {
  ++done_count;
  const auto& deps = m.kernel_deps;
  if (deps.empty()) {
    if (static_cast<size_t>(kernel) + 1 < m.kernels.size()) {
      make_ready(kernel + 1);
    }
    return;
  }
  // Kernels are topologically ordered, so only higher indices can wait
  // on `kernel`.
  for (size_t d = static_cast<size_t>(kernel) + 1; d < deps.size(); ++d) {
    if (!std::binary_search(deps[d].begin(), deps[d].end(), kernel)) {
      continue;
    }
    SGDRC_CHECK(pending[d] > 0, "dependency count underflow");
    if (--pending[d] == 0) make_ready(static_cast<int>(d));
  }
}

ServingSim::Job ServingSim::make_job(TenantId tenant, TimeNs arrival,
                                     const models::ModelDesc* model) {
  Job job;
  job.id = next_job_++;
  job.tenant = tenant;
  job.arrival = arrival;
  job.model = model;
  job.frontier.reset(model_of(job));
  return job;
}

ServingSim::ServingSim(ServingConfig cfg, std::vector<TenantSpec> tenants,
                       control::Controller& controller)
    : cfg_(std::move(cfg)),
      tenants_(std::move(tenants)),
      controller_(&controller),
      owned_queue_(std::make_unique<EventQueue>()),
      queue_(*owned_queue_),
      rng_(cfg_.seed) {
  init();
}

ServingSim::ServingSim(EventQueue& queue, ServingConfig cfg,
                       std::vector<TenantSpec> tenants,
                       control::Controller& controller)
    : cfg_(std::move(cfg)),
      tenants_(std::move(tenants)),
      controller_(&controller),
      queue_(queue),
      rng_(cfg_.seed) {
  init();
}

ServingSim::~ServingSim() = default;

uint64_t ServingSim::effective_vram() const {
  return cfg_.memory.vram_bytes_override ? cfg_.memory.vram_bytes_override
                                         : cfg_.spec.vram_bytes;
}

void ServingSim::init() {
  // An empty tenant list is legal: fleets create device sims lazily when
  // an autoscaler or a scenario places the first replica mid-run.
  for (const auto& spec : tenants_) validate_model(spec.model);
  exec_ = std::make_unique<GpuExecutor>(cfg_.spec, queue_, cfg_.exec_params);

  // Memory virtualization: only when enabled AND the device's capacity
  // is modeled. vram_bytes == 0 (default-constructed GpuSpec) means
  // "unmodeled/unlimited" — charging is skipped entirely, never an
  // instant OOM on a spec that simply didn't declare its VRAM.
  if (cfg_.memory.enabled && effective_vram() > 0) {
    mem_ = std::make_unique<memory::MemoryManager>(
        effective_vram(), cfg_.memory, cfg_.seed ^ 0x9e3779b97f4a7c15ull);
    mem_->on_evict([this](TenantId t) {
      if (!stopped_) ++metrics_.tenants[t].weight_evictions;
    });
    mem_->on_trespass([this](TenantId) {
      if (!stopped_) ++metrics_.memory_trespasses;
    });
  }

  // SLO multiplier n = services concurrently on the GPU (§9.2): all LS
  // tenants plus the resident BE jobs (one rotating slot, or every BE
  // tenant when concurrent). Frozen at init so tenants arriving later
  // get SLOs consistent with the initial co-residency.
  size_t ls = 0, be = 0;
  for (const auto& spec : tenants_) {
    (spec.qos == QosClass::kLatencySensitive ? ls : be) += 1;
  }
  const size_t be_slots =
      cfg_.be_mode == BeMode::kRoundRobin ? (be ? 1 : 0) : be;
  slo_n_ = cfg_.slo_multiplier > 0.0
               ? cfg_.slo_multiplier
               : std::max<double>(1.0, static_cast<double>(ls + be_slots));

  for (TenantId t = 0; t < tenants_.size(); ++t) register_tenant(t);
}

void ServingSim::validate_model(const models::ModelDesc& m) {
  // Messages are only built on failure (SGDRC_REQUIRE evaluates lazily).
  const auto bad = [&](const std::string& why) {
    return "tenant model '" + m.name + "': " + why;
  };
  SGDRC_REQUIRE(!m.kernels.empty(), bad("a model needs at least one kernel"));
  const auto& deps = m.kernel_deps;
  if (deps.empty()) return;  // a chain
  SGDRC_REQUIRE(deps.size() == m.kernels.size(),
                bad("kernel_deps must hold one list per kernel"));
  for (size_t i = 0; i < deps.size(); ++i) {
    for (size_t e = 0; e < deps[i].size(); ++e) {
      const int d = deps[i][e];
      SGDRC_REQUIRE(d >= 0 && static_cast<size_t>(d) < i,
                    bad("kernel " + std::to_string(i) + " waits on " +
                        std::to_string(d) +
                        "; every edge must name an earlier kernel"));
      SGDRC_REQUIRE(e == 0 || deps[i][e - 1] < d,
                    bad("kernel " + std::to_string(i) +
                        "'s dependency list is not strictly ascending "
                        "(unsorted or duplicate edge)"));
    }
  }
}

void ServingSim::register_tenant(TenantId t) {
  const auto& spec = tenants_[t];
  instances_.push_back(0);
  free_instances_.push_back(0);
  backlog_.emplace_back();
  if (spec.batching.enabled()) {
    SGDRC_REQUIRE(spec.qos == QosClass::kLatencySensitive,
                  "BatchPolicy applies to LS tenants (BE tasks already "
                  "batch through ModelDesc::batch)");
    SGDRC_REQUIRE(spec.batching.max_batch <= 64,
                  "max_batch above 64 is outside the latency model's range");
    auto bs = std::make_unique<BatchState>();
    bs->variants.reserve(spec.batching.max_batch);
    for (unsigned b = 1; b <= spec.batching.max_batch; ++b) {
      bs->variants.push_back(models::batched_variant(spec.model, b));
    }
    batch_.push_back(std::move(bs));
  } else {
    batch_.push_back(nullptr);
  }
  active_.push_back(1);
  guaranteed_mask_.push_back(0);
  assign_guarantee_region(t);
  validate_vgpu_budget();
  if (mem_) {
    // Registration allocates the replica's weights (evicting idle
    // victims under pressure); the first request pays the cold-start
    // load. Weight bytes come from the model's kWeight tensors.
    mem_->add_replica(t, spec.model.weight_bytes(), spec.vgpu.priority,
                      spec.vgpu.memory_bytes, busy_probe());
  }
  workload::TenantMetrics m;
  m.id = t;
  m.qos = spec.qos;
  m.name = spec.model.name;
  m.letter = spec.model.letter;
  if (spec.qos == QosClass::kLatencySensitive) {
    ls_tenants_.push_back(t);
    const unsigned instances =
        spec.instances ? spec.instances : cfg_.ls_instances;
    SGDRC_REQUIRE(instances >= 1, "need at least one instance");
    instances_[t] = instances;
    free_instances_[t] = instances;
    m.isolated_p99 = spec.isolated_latency;
    m.slo = static_cast<TimeNs>(slo_n_ *
                                static_cast<double>(spec.isolated_latency));
  } else {
    be_tenants_.push_back(t);
    m.batch = spec.model.batch;
    m.kernels_per_batch = spec.model.kernels.size();
    // The BE batch loop is a closed-loop job that lives until removal.
    jobs_.push_back(make_job(t, 0));
  }
  metrics_.tenants.push_back(std::move(m));
  if (mem_ && spec.qos == QosClass::kBestEffort &&
      mem_->residency(t) == memory::Residency::kPaged) {
    // A BE loop that registered straight into the paged degraded mode
    // restreams its weights before the first batch; rotate_be charges
    // the per-batch restream from then on.
    hold_job_for_paging(jobs_.back().id, mem_->page_penalty(t));
  }
}

void ServingSim::assign_guarantee_region(TenantId t) {
  const auto& vgpu = tenants_[t].vgpu;
  if (vgpu.guaranteed_tpcs == 0) return;
  const unsigned n = cfg_.spec.num_tpcs;
  SGDRC_REQUIRE(vgpu.guaranteed_tpcs <= n,
                "tenant guarantees more TPCs than the device has");
  const TpcMask free = gpusim::full_tpc_mask(n) & ~guaranteed_used_;
  SGDRC_REQUIRE(gpusim::tpc_count(free) >= vgpu.guaranteed_tpcs,
                "guaranteed TPCs overcommitted across tenants");
  // LS regions grow down from the top of the mask (SGDRC keeps LS at the
  // high TPCs), BE regions up from the bottom — so the tidal top block
  // and hard LS reservations coincide and BE guarantees stay clear.
  TpcMask region = 0;
  unsigned got = 0;
  const bool ls = tenants_[t].qos == QosClass::kLatencySensitive;
  for (unsigned i = 0; i < n && got < vgpu.guaranteed_tpcs; ++i) {
    const unsigned tpc = ls ? n - 1 - i : i;
    const TpcMask bit = gpusim::tpc_bit(tpc);
    if (!(free & bit)) continue;
    region |= bit;
    ++got;
  }
  guaranteed_used_ |= region;
  guaranteed_mask_[t] = region;
}

void ServingSim::release_guarantee_region(TenantId t) {
  guaranteed_used_ &= ~guaranteed_mask_[t];
  guaranteed_mask_[t] = 0;
}

void ServingSim::validate_vgpu_budget() const {
  double channel_share = 0.0;
  // Bounded by active_: during init() the spec list is already full
  // while the per-tenant state vectors grow one register_tenant at a
  // time — validate what is registered so far.
  for (TenantId t = 0; t < active_.size(); ++t) {
    if (!active_[t]) continue;
    const auto& v = tenants_[t].vgpu;
    SGDRC_REQUIRE(v.channel_share >= 0.0 && v.channel_share < 1.0,
                  "channel_share must be in [0,1)");
    SGDRC_REQUIRE(v.weight > 0.0, "vGPU weight must be positive");
    channel_share += v.channel_share;
  }
  SGDRC_REQUIRE(channel_share <= 1.0 + 1e-9,
                "guaranteed channel shares overcommitted across tenants");
  // Guaranteed memory quotas work like TPC budgets: the sum across
  // active tenants must fit the device. Only on modeled devices —
  // vram_bytes == 0 means capacity is unmodeled and quotas are inert.
  const uint64_t vram = effective_vram();
  if (vram > 0) {
    uint64_t memory_quota = 0;
    for (TenantId t = 0; t < active_.size(); ++t) {
      if (active_[t]) memory_quota += tenants_[t].vgpu.memory_bytes;
    }
    SGDRC_REQUIRE(memory_quota <= vram,
                  "guaranteed memory quotas overcommit device VRAM");
  }
}

gpusim::TpcMask ServingSim::guaranteed_union(QosClass qos) const {
  TpcMask m = 0;
  for (TenantId t = 0; t < guaranteed_mask_.size(); ++t) {
    if (active_[t] && tenants_[t].qos == qos) m |= guaranteed_mask_[t];
  }
  return m;
}

void ServingSim::set_vgpu(TenantId t, const control::VgpuSpec& vgpu) {
  shard_guard_.assert_mutable("set_vgpu");
  SGDRC_REQUIRE(t < tenants_.size(), "unknown tenant");
  SGDRC_REQUIRE(active_[t], "cannot re-plan a removed tenant");
  // Validate the prospective state before touching anything, so a
  // rejected re-plan leaves the tenant's current guarantee intact
  // (strong exception safety — callers treat a throw as "change
  // rejected, old quota still holds").
  SGDRC_REQUIRE(vgpu.guaranteed_tpcs <= cfg_.spec.num_tpcs,
                "tenant guarantees more TPCs than the device has");
  SGDRC_REQUIRE(vgpu.channel_share >= 0.0 && vgpu.channel_share < 1.0,
                "channel_share must be in [0,1)");
  SGDRC_REQUIRE(vgpu.weight > 0.0, "vGPU weight must be positive");
  const TpcMask free_without_us = gpusim::full_tpc_mask(cfg_.spec.num_tpcs) &
                                  ~(guaranteed_used_ & ~guaranteed_mask_[t]);
  SGDRC_REQUIRE(gpusim::tpc_count(free_without_us) >= vgpu.guaranteed_tpcs,
                "guaranteed TPCs overcommitted across tenants");
  double channel_share = vgpu.channel_share;
  for (TenantId o = 0; o < active_.size(); ++o) {
    if (o != t && active_[o]) channel_share += tenants_[o].vgpu.channel_share;
  }
  SGDRC_REQUIRE(channel_share <= 1.0 + 1e-9,
                "guaranteed channel shares overcommitted across tenants");
  const uint64_t vram = effective_vram();
  if (vram > 0) {
    uint64_t memory_quota = vgpu.memory_bytes;
    for (TenantId o = 0; o < active_.size(); ++o) {
      if (o != t && active_[o]) memory_quota += tenants_[o].vgpu.memory_bytes;
    }
    SGDRC_REQUIRE(memory_quota <= vram,
                  "guaranteed memory quotas overcommit device VRAM");
  }
  // Commit: none of the steps below can fail.
  release_guarantee_region(t);
  tenants_[t].vgpu = vgpu;
  assign_guarantee_region(t);
  if (mem_) mem_->set_quota(t, vgpu.memory_bytes, vgpu.priority);
  poke();  // the controller re-plans under the new guarantees
}

TenantId ServingSim::add_tenant(const TenantSpec& spec) {
  shard_guard_.assert_mutable("add_tenant");
  validate_model(spec.model);
  tenants_.push_back(spec);
  const TenantId t = static_cast<TenantId>(tenants_.size() - 1);
  register_tenant(t);
  poke();  // a new BE loop starts now; a new LS tenant awaits injects
  return t;
}

void ServingSim::remove_tenant(TenantId t) {
  shard_guard_.assert_mutable("remove_tenant");
  SGDRC_REQUIRE(t < tenants_.size(), "unknown tenant");
  SGDRC_REQUIRE(active_[t], "tenant already removed");
  active_[t] = 0;
  release_guarantee_region(t);  // the reservation dies with the tenant
  if (tenants_[t].qos == QosClass::kBestEffort) {
    // Halt: leave the rotation so round-robin never waits on us...
    auto it = std::find(be_tenants_.begin(), be_tenants_.end(), t);
    SGDRC_CHECK(it != be_tenants_.end(), "BE tenant missing from rotation");
    const size_t idx = static_cast<size_t>(it - be_tenants_.begin());
    be_tenants_.erase(it);
    if (be_resident_ > idx) --be_resident_;
    be_resident_ = be_tenants_.empty() ? 0 : be_resident_ % be_tenants_.size();
    // ...and stop the in-flight kernel(s); the invisible loop job is
    // never launched again.
    for (auto& job : jobs_) {
      if (job.tenant == t && !job.frontier.running.empty()) evict(job);
    }
  }
  // LS tenants drain: the *router* above us must stop sending new work
  // (see the header contract — inject() itself still admits stragglers
  // that were routed before the removal), and jobs stay visible until
  // the backlog empties.
  if (batch_[t]) {
    // A half-assembled batch must not wait out a timer that may never
    // matter again: launch it now (partial) so the drain completes.
    close_batch(t);
  }
  if (mem_) {
    // The weights stay resident while the drain needs them (the busy
    // probe shields them), but the replica drops to the bottom of the
    // eviction order and is freed outright when already idle.
    mem_->retire_replica(t, busy_probe());
  }
  poke();
}

void ServingSim::set_be_paused(bool paused) {
  shard_guard_.assert_mutable("set_be_paused");
  if (be_paused_ == paused) return;
  be_paused_ = paused;
  if (paused) {
    // Mirror remove_tenant's BE halt: stop in-flight BE kernels so the
    // freed TPCs serve the LS backlog now, not after the batch drains.
    for (auto& job : jobs_) {
      if (qos_of(job) == QosClass::kBestEffort &&
          !job.frontier.running.empty()) {
        evict(job);
      }
    }
  }
  poke();  // paused: re-plan without BE; resumed: restart the loops
}

void ServingSim::set_slo(TenantId t, TimeNs slo) {
  shard_guard_.assert_mutable("set_slo");
  SGDRC_REQUIRE(t < tenants_.size() &&
                    tenants_[t].qos == QosClass::kLatencySensitive,
                "SLOs apply to LS tenants");
  metrics_.tenants[t].slo = slo;
}

TimeNs ServingSim::slo_of(TenantId t) const {
  return metrics_.tenants.at(t).slo;
}

workload::ServingMetrics ServingSim::run(
    const std::vector<Request>& trace) {
  begin();
  for (const Request& r : trace) {
    if (r.arrival >= cfg_.duration) break;
    queue_.schedule_at(r.arrival, [this, r] { arrive(r); });
  }
  queue_.run_until(cfg_.duration);
  return finish();
}

void ServingSim::begin() {
  shard_guard_.assert_mutable("begin");
  metrics_.duration = cfg_.duration;
  poke();  // let the controller start the BE closed loops immediately
}

workload::ServingMetrics ServingSim::finish() {
  shard_guard_.assert_mutable("finish");
  stopped_ = true;
  return metrics_;
}

// ------------------------------------------- shard-local driver API ----
// Thin forwards onto the (fleet-mode: shard) event queue, so the fleet
// engine drives devices through the sim API instead of reaching into
// their queues. Everything a fired event touches — executor, controller,
// memory manager, RNG, metrics — is owned by this sim, so running one
// shard never observes another's state.

size_t ServingSim::run_shard_until_before(TimeNs t) {
  ShardGuard::WindowScope window(shard_guard_, "run_shard_until_before");
  return queue_.run_until_before(t);
}

size_t ServingSim::run_shard_until(TimeNs t) {
  ShardGuard::WindowScope window(shard_guard_, "run_shard_until");
  return queue_.run_until(t);
}

std::optional<TimeNs> ServingSim::next_shard_event() {
  // Mutating despite the name: surfacing tombstones pops the heap.
  ShardGuard::WindowScope window(shard_guard_, "next_shard_event");
  return queue_.peek_next_time();
}

void ServingSim::arrive(const Request& r) {
  SGDRC_REQUIRE(r.service < ls_tenants_.size(),
                "request for unknown service");
  inject(ls_tenants_[r.service], r.arrival);
}

void ServingSim::inject(TenantId t, TimeNs arrival) {
  shard_guard_.assert_mutable("inject");
  SGDRC_REQUIRE(t < tenants_.size() &&
                    tenants_[t].qos == QosClass::kLatencySensitive,
                "inject targets an LS tenant");
  // Removed tenants still accept stragglers: a fleet request routed
  // before the removal may land after it (dispatch hop) and is part of
  // the drain.
  SGDRC_REQUIRE(arrival <= now(), "injected request arrives in the future");
  ++metrics_.tenants[t].arrived;
  if (batch_[t]) {
    enqueue_for_batch(t, arrival);
  } else {
    admit_or_backlog(t, arrival);
  }
  poke();
}

// --------------------------------------------------- dynamic batching ----

void ServingSim::enqueue_for_batch(TenantId t, TimeNs arrival) {
  auto& bs = *batch_[t];
  const auto& policy = tenants_[t].batching;
  bs.assembly.push_back(arrival);
  if (!active_[t]) {
    // A straggler routed before the tenant's removal (fleet dispatch
    // hop): no companions are coming, so launching alone beats waiting
    // out the assembly timer and stretching the drain.
    close_batch(t);
    return;
  }
  if (bs.assembly.size() >= policy.max_batch ||
      policy.assembly_timeout == 0) {
    // Full (or a zero-timeout policy that never waits): launch now.
    close_batch(t);
  } else if (!bs.timer_armed) {
    // First request of a fresh assembly: give it `assembly_timeout` to
    // attract companions, then launch whatever gathered.
    bs.timer = queue_.schedule_after(policy.assembly_timeout, [this, t] {
      batch_[t]->timer_armed = false;
      close_batch(t);
      poke();
    });
    bs.timer_armed = true;
  }
}

void ServingSim::close_batch(TenantId t) {
  auto& bs = *batch_[t];
  if (bs.timer_armed) {
    queue_.cancel(bs.timer);
    bs.timer_armed = false;
  }
  if (bs.assembly.empty()) return;
  std::vector<TimeNs> arrivals = std::move(bs.assembly);
  bs.assembly.clear();
  if (free_instances_[t] > 0) {
    --free_instances_[t];
    admit_batch(t, std::move(arrivals));
  } else {
    bs.ready_requests += arrivals.size();
    bs.ready.push_back(std::move(arrivals));
  }
}

void ServingSim::admit_batch(TenantId t, std::vector<TimeNs> arrivals) {
  auto& bs = *batch_[t];
  const size_t size = arrivals.size();
  SGDRC_CHECK(size >= 1 && size <= bs.variants.size(),
              "batch size outside the tenant's variant range");
  Job job = make_job(t, arrivals.front(), &bs.variants[size - 1]);
  job.batch = std::move(arrivals);
  bs.admitted_requests += size;
  ++bs.launched_batches;
  bs.launched_requests += size;
  bs.recent.push_back(static_cast<unsigned>(size));
  if (bs.recent.size() > kOccupancyWindow) bs.recent.pop_front();
  if (!stopped_) {
    metrics_.tenants[t].batch_sizes.add(static_cast<double>(size));
  }
  apply_memory_gates(job);
  jobs_.push_back(std::move(job));
}

void ServingSim::complete_ls_batch(TenantId t,
                                   const std::vector<TimeNs>& arrivals,
                                   bool cold) {
  auto& bs = *batch_[t];
  // Every request in the batch gets its own latency sample — completion
  // minus its OWN arrival, so assembly/queueing wait counts against the
  // SLO request by request.
  for (const TimeNs arrival : arrivals) {
    if (!stopped_) {
      metrics_.record_latency(t, arrival, now());
      if (cold) {
        metrics_.tenants[t].cold_latency.add(
            static_cast<double>(now() - arrival));
      }
    }
  }
  SGDRC_CHECK(bs.admitted_requests >= arrivals.size(),
              "batch completion underflows admitted-request count");
  bs.admitted_requests -= arrivals.size();
  // Hand the instance to the next closed batch (never re-cut: batches
  // are sized at close time, by the policy, not by instance pressure).
  if (!bs.ready.empty()) {
    std::vector<TimeNs> next = std::move(bs.ready.front());
    bs.ready.pop_front();
    bs.ready_requests -= next.size();
    admit_batch(t, std::move(next));
  } else {
    ++free_instances_[t];
  }
}

void ServingSim::admit_or_backlog(TenantId t, TimeNs arrival) {
  if (free_instances_[t] > 0) {
    --free_instances_[t];
    admit(t, arrival);
  } else {
    backlog_[t].push_back(arrival);
  }
}

void ServingSim::admit(TenantId tenant, TimeNs arrival) {
  Job job = make_job(tenant, arrival);
  apply_memory_gates(job);
  jobs_.push_back(std::move(job));
}

// ------------------------------------------------ memory virtualization ----

bool ServingSim::tenant_busy(TenantId t) const {
  if (t >= tenants_.size()) return false;
  if (tenants_[t].qos == QosClass::kLatencySensitive && outstanding(t) > 0) {
    return true;
  }
  for (const auto& j : jobs_) {
    if (j.tenant == t && !j.frontier.running.empty()) return true;
  }
  return false;
}

memory::MemoryManager::BusyFn ServingSim::busy_probe() {
  return [this](TenantId t) { return tenant_busy(t); };
}

void ServingSim::apply_memory_gates(Job& job) {
  if (!mem_) return;
  switch (mem_->residency(job.tenant)) {
    case memory::Residency::kWarm:
    case memory::Residency::kUnmodeled:
      return;
    case memory::Residency::kCold:
    case memory::Residency::kLoading:
      // Gated tenant-wide until the cold-start DMA lands (the load is
      // started by ensure_residency on the next poke).
      job.cold = true;
      return;
    case memory::Residency::kPaged: {
      // Degraded mode: this request restreams the weights through the
      // UVM staging window before it may launch.
      job.cold = true;
      if (!stopped_) {
        metrics_.tenants[job.tenant].paged_requests +=
            job.batch.empty() ? 1 : job.batch.size();
      }
      hold_job_for_paging(job.id, mem_->page_penalty(job.tenant));
      return;
    }
  }
}

void ServingSim::hold_job_for_paging(JobId id, TimeNs penalty) {
  held_jobs_.insert(id);
  queue_.schedule_after(penalty, [this, id] {
    held_jobs_.erase(id);
    poke();
  });
}

void ServingSim::ensure_residency() {
  if (!mem_) return;
  // Demand is what the scheduler could see modulo memory: start one
  // cold-start DMA per demanded cold tenant, and retry promoting paged
  // tenants to resident. kWaiting (strict mode, no capacity) is retried
  // here on every poke — pokes fire on every completion, so the waiter
  // makes progress as soon as memory frees.
  for (const auto& j : jobs_) {
    if (j.frontier.ready.empty()) continue;
    const auto r = mem_->residency(j.tenant);
    if (r != memory::Residency::kCold && r != memory::Residency::kPaged) {
      continue;
    }
    if (!visible_rotation(j)) continue;
    request_weights(j.tenant);
  }
}

void ServingSim::request_weights(TenantId t) {
  const auto touch = mem_->request(t, now(), busy_probe());
  switch (touch.kind) {
    case memory::MemoryManager::Touch::Kind::kLoadStarted:
      if (!stopped_) ++metrics_.tenants[t].weight_loads;
      queue_.schedule_after(touch.delay, [this, t] {
        mem_->finish_load(t, now());
        poke();
      });
      break;
    case memory::MemoryManager::Touch::Kind::kPagedNow:
      // The replica just degraded cold → paged: every job it already has
      // in the system pays the per-request restream before launching.
      for (auto& j : jobs_) {
        if (j.tenant != t || !j.frontier.running.empty() ||
            held_jobs_.count(j.id)) {
          continue;
        }
        j.cold = true;
        if (!stopped_) {
          metrics_.tenants[t].paged_requests +=
              j.batch.empty() ? 1 : j.batch.size();
        }
        hold_job_for_paging(j.id, touch.delay);
      }
      break;
    case memory::MemoryManager::Touch::Kind::kReady:
    case memory::MemoryManager::Touch::Kind::kLoading:
    case memory::MemoryManager::Touch::Kind::kPagedStill:
    case memory::MemoryManager::Touch::Kind::kWaiting:
      break;
  }
}

bool ServingSim::memory_ready(const Job& j) const {
  if (!mem_) return true;
  switch (mem_->residency(j.tenant)) {
    case memory::Residency::kCold:
    case memory::Residency::kLoading:
      return false;
    default:
      break;
  }
  return held_jobs_.empty() || held_jobs_.count(j.id) == 0;
}

bool ServingSim::visible(const Job& j) const {
  return visible_rotation(j) && memory_ready(j);
}

bool ServingSim::visible_rotation(const Job& j) const {
  // Removed-LS jobs stay visible so admitted work drains; removed-BE
  // loops vanish so the controller never relaunches them.
  if (qos_of(j) == QosClass::kLatencySensitive) return true;
  if (be_paused_) return false;  // fleet overload: BE sheds before LS
  if (!active_[j.tenant] || be_tenants_.empty()) return false;
  return cfg_.be_mode == BeMode::kConcurrent ||
         be_tenants_[be_resident_] == j.tenant;
}

ServingSim::JobView ServingSim::view_of(const Job& j) const {
  // Aggregate frontier view: next_kernel is the lowest-index ready
  // kernel; "in flight" means nothing is launchable right now.
  const auto& f = j.frontier;
  const bool blocked = f.ready.empty();
  bool evicting = false;
  for (const auto& r : f.running) evicting |= r.evicting;
  return {j.id,
          j.tenant,
          qos_of(j),
          j.arrival,
          blocked ? nullptr : &model_of(j).kernels[f.ready.front()],
          blocked,
          evicting};
}

std::vector<ServingSim::JobView> ServingSim::jobs(QosClass qos) const {
  std::vector<JobView> out;
  for (const auto& j : jobs_) {
    if (qos_of(j) == qos && visible(j)) out.push_back(view_of(j));
  }
  return out;
}

std::vector<ServingSim::JobView> ServingSim::jobs() const {
  auto out = jobs(QosClass::kLatencySensitive);
  const auto be = jobs(QosClass::kBestEffort);
  out.insert(out.end(), be.begin(), be.end());
  return out;
}

std::vector<ServingSim::JobView> ServingSim::waiting_jobs(
    QosClass qos) const {
  std::vector<JobView> out;
  for (const auto& j : jobs_) {
    if (qos_of(j) != qos || !visible(j)) continue;
    // One entry per ready kernel, index ascending — the deterministic
    // ready order. launch() consumes the same order, so the i-th entry
    // is exactly what the i-th launch of this job runs.
    const auto& kernels = model_of(j).kernels;
    for (const int k : j.frontier.ready) {
      out.push_back({j.id, j.tenant, qos, j.arrival, &kernels[k],
                     /*in_flight=*/false, /*evicting=*/false});
    }
  }
  return out;
}

std::optional<ServingSim::JobView> ServingSim::find_job(JobId id) const {
  const Job* j = job_ptr(id);
  if (!j) return std::nullopt;
  return view_of(*j);
}

size_t ServingSim::inflight(QosClass qos) const {
  return inflight_[qos_index(qos)];
}

std::vector<const gpusim::KernelDesc*> ServingSim::upcoming_kernels(
    QosClass qos, size_t window) const {
  std::vector<const gpusim::KernelDesc*> out;
  for (const auto& j : jobs_) {
    if (out.size() >= window) break;
    if (qos_of(j) != qos || !visible(j)) continue;
    for (const int k : j.frontier.ready) {
      if (out.size() >= window) break;
      out.push_back(&model_of(j).kernels[k]);
    }
  }
  return out;
}

size_t ServingSim::tenant_count(QosClass qos) const {
  // Active only, for both classes: controllers sizing per-class shares
  // must not reserve capacity for drained tenants. (The all-time slot
  // count is the no-argument tenant_count().)
  size_t n = 0;
  for (TenantId t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].qos == qos && active_[t]) ++n;
  }
  return n;
}

ServingSim::Job* ServingSim::job_ptr(JobId id) {
  auto it = std::find_if(jobs_.begin(), jobs_.end(),
                         [&](const Job& j) { return j.id == id; });
  return it == jobs_.end() ? nullptr : &*it;
}

const ServingSim::Job* ServingSim::job_ptr(JobId id) const {
  auto it = std::find_if(jobs_.begin(), jobs_.end(),
                         [&](const Job& j) { return j.id == id; });
  return it == jobs_.end() ? nullptr : &*it;
}

void ServingSim::note_inflight(QosClass qos, int delta) {
  const size_t i = qos_index(qos);
  if (delta > 0) {
    if (inflight_[i] == 0) busy_since_[i] = now();
    ++inflight_[i];
  } else {
    SGDRC_CHECK(inflight_[i] > 0, "in-flight underflow");
    --inflight_[i];
    if (inflight_[i] == 0) {
      auto& busy = qos == QosClass::kLatencySensitive ? metrics_.ls_busy_ns
                                                      : metrics_.be_busy_ns;
      busy += now() - busy_since_[i];
    }
  }
}

bool ServingSim::trespasses(TenantId owner, TpcMask eff_tpcs) const {
  const TpcMask foreign = guaranteed_used_ & ~guaranteed_mask_[owner];
  return (eff_tpcs & foreign) != 0;
}

ServingSim::LaunchSpec ServingSim::compile_allocation(
    const control::Allocation& a) const {
  SGDRC_REQUIRE(!a.empty(),
                "plan carries an empty Allocation — a zero mask no longer "
                "means \"all\"; use control::Allocation::all()");
  const TpcMask full = gpusim::full_tpc_mask(cfg_.spec.num_tpcs);
  const gpusim::ChannelSet allc =
      gpusim::all_channels(cfg_.spec.num_channels);
  const TpcMask tpcs = a.tpcs & full;
  const gpusim::ChannelSet chans = a.channels & allc;
  SGDRC_REQUIRE(tpcs != 0, "allocation names no TPC this device has");
  SGDRC_REQUIRE(chans != 0, "allocation names no channel this device has");
  // Out-of-range bits are only legal as part of the all() sentinel —
  // a partial in-range mask with stray high bits is a controller bug.
  SGDRC_REQUIRE((a.tpcs & ~full) == 0 || tpcs == full,
                "allocation TPC mask exceeds the device");
  SGDRC_REQUIRE((a.channels & ~allc) == 0 || chans == allc,
                "allocation channel set exceeds the device");
  // Canonical encodings. Channels: a device-covering set compiles to the
  // executor's legacy 0 = "all" (physically identical, and the SGDRC
  // monopolisation check keys on it). TPCs: only the all() *sentinel*
  // compiles to 0 — an explicit device-covering mask stays explicit,
  // because controllers read RunningInfo::tpc_mask back and the historic
  // encoding distinguishes "packed onto every TPC" (explicit, counts as
  // LS occupancy) from "monopolising BE" (0).
  return {a.tpcs == ~TpcMask{0} ? TpcMask{0} : tpcs,
          chans == allc ? gpusim::ChannelSet{0} : chans};
}

void ServingSim::apply(const control::ResourcePlan& plan) {
  shard_guard_.assert_mutable("apply");
  for (const auto& d : plan.directives) {
    switch (d.kind) {
      case control::Directive::Kind::kLaunch: {
        const LaunchSpec spec = compile_allocation(d.alloc);
        Job* job = job_ptr(d.job);
        SGDRC_REQUIRE(job != nullptr, "plan launches an unknown job");
        const TpcMask eff =
            spec.tpc_mask ? spec.tpc_mask
                          : gpusim::full_tpc_mask(cfg_.spec.num_tpcs);
        const bool trespass = trespasses(job->tenant, eff);
        SGDRC_REQUIRE(!trespass || !controller_->guarantee_aware(),
                      "plan puts a kernel inside another tenant's "
                      "guaranteed TPC region");
        launch(*job, spec);
        if (trespass) ++metrics_.guarantee_violations;
        break;
      }
      case control::Directive::Kind::kEvict: {
        Job* job = job_ptr(d.job);
        SGDRC_REQUIRE(job != nullptr, "plan evicts an unknown job");
        evict(*job);
        break;
      }
      case control::Directive::Kind::kWakeAt:
        queue_.schedule_at(std::max(d.at, now()), [this] { poke(); });
        break;
    }
  }
}

void ServingSim::launch(Job& job, LaunchSpec spec) {
  SGDRC_REQUIRE(visible(job),
                "job is not resident (BE rotation or weights not loaded)");
  Frontier& f = job.frontier;
  SGDRC_REQUIRE(!f.ready.empty(),
                "job has no ready kernel (fully in flight, or its "
                "dependencies are still running)");
  if (mem_) mem_->note_use(job.tenant, now());
  const int kidx = f.ready.front();
  const gpusim::KernelDesc& k = model_of(job).kernels[kidx];
  // Only memory-bound kernels are channel-colored (§7.2); others keep the
  // default all-channel mapping.
  const gpusim::ChannelSet ch = k.memory_bound ? spec.channels : 0;
  note_inflight(qos_of(job), +1);
  f.ready.erase(f.ready.begin());
  f.running.push_back({kidx, 0, false});
  // Completion events fire through the queue, never synchronously, so
  // the launch id is recorded before any callback can look for it.
  const JobId id = job.id;
  f.running.back().launch_id =
      exec_->launch({&k, spec.tpc_mask, ch, id},
                    [this, id, kidx](GpuExecutor::LaunchId, TimeNs) {
                      finish_kernel(id, kidx);
                    });
}

void ServingSim::finish_kernel(JobId id, int kernel) {
  auto it = std::find_if(jobs_.begin(), jobs_.end(),
                         [&](const Job& j) { return j.id == id; });
  SGDRC_CHECK(it != jobs_.end(), "completion for unknown job");
  Job& job = *it;
  const QosClass qos = qos_of(job);
  job.frontier.stop(kernel);
  note_inflight(qos, -1);
  const auto& model = model_of(job);
  job.frontier.retire(kernel, model);
  const bool done = job.frontier.done_count >= model.kernels.size();

  if (qos == QosClass::kBestEffort) {
    auto& m = metrics_.tenants[job.tenant];
    if (!stopped_) ++m.kernels_done;
    if (done) {
      if (!stopped_) ++m.batches_completed;
      rotate_be(job);
    }
  } else if (done) {
    complete_ls(it);
  }
  poke();
}

void ServingSim::complete_ls(std::deque<Job>::iterator it) {
  Job& job = *it;
  const TenantId tenant = job.tenant;
  // Erase before re-admitting: admit() push_backs into the deque,
  // which would invalidate `it`.
  const bool cold = job.cold;
  if (!job.batch.empty()) {
    const std::vector<TimeNs> arrivals = std::move(job.batch);
    jobs_.erase(it);
    complete_ls_batch(tenant, arrivals, cold);
  } else {
    const TimeNs arrival = job.arrival;
    jobs_.erase(it);
    complete_ls_job(tenant, arrival, cold);
  }
}

void ServingSim::complete_ls_job(TenantId tenant, TimeNs arrival, bool cold) {
  if (!stopped_) {
    metrics_.record_latency(tenant, arrival, now());
    if (cold) {
      metrics_.tenants[tenant].cold_latency.add(
          static_cast<double>(now() - arrival));
    }
  }
  // Hand the instance to the next queued request.
  if (!backlog_[tenant].empty()) {
    const TimeNs queued = backlog_[tenant].front();
    backlog_[tenant].pop_front();
    admit(tenant, queued);
  } else {
    ++free_instances_[tenant];
  }
}

void ServingSim::rotate_be(Job& job) {
  job.frontier.reset(model_of(job));  // the batch loop restarts
  // A removed tenant's final batch must not advance the rotation: its
  // removal already re-aimed be_resident_ at the next live tenant.
  if (cfg_.be_mode == BeMode::kRoundRobin && active_[job.tenant] &&
      !be_tenants_.empty()) {
    be_resident_ = (be_resident_ + 1) % be_tenants_.size();
  }
  if (mem_ && mem_->residency(job.tenant) == memory::Residency::kPaged) {
    // Paged BE tenant: every batch restreams the weights through the
    // UVM window before its next launch.
    if (!stopped_) ++metrics_.tenants[job.tenant].paged_requests;
    hold_job_for_paging(job.id, mem_->page_penalty(job.tenant));
  }
}

void ServingSim::evict(Job& job) {
  SGDRC_REQUIRE(!job.frontier.running.empty(), "no in-flight kernel to evict");
  const JobId id = job.id;
  const QosClass qos = qos_of(job);
  for (auto& r : job.frontier.running) {
    if (r.evicting) continue;
    r.evicting = true;
    ++metrics_.tenants[job.tenant].evictions;
    exec_->evict(r.launch_id, [this, id, qos, kernel = r.kernel](
                                  GpuExecutor::LaunchId, TimeNs) {
      // Progress lost; the kernel returns to the ready set (§7.1
      // restart) at its sorted position.
      Job* j = job_ptr(id);
      SGDRC_CHECK(j != nullptr, "eviction for unknown job");
      j->frontier.stop(kernel);
      j->frontier.make_ready(kernel);
      note_inflight(qos, -1);
      poke();
    });
  }
}

void ServingSim::poke() {
  if (stopped_) return;
  if (in_schedule_) {
    repoke_ = true;
    return;
  }
  in_schedule_ = true;
  do {
    repoke_ = false;
    // Cold-start loads begin before the controller plans: a gated job
    // never reaches the plan, and the DMA-completion event re-pokes.
    ensure_residency();
    control::ResourcePlan plan = controller_->plan(control::SimView(*this));
    apply(plan);
  } while (repoke_);
  in_schedule_ = false;
}

}  // namespace sgdrc::core
