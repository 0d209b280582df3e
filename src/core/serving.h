// The serving simulation: a set of tenants — open-loop latency-sensitive
// services replaying a trace against per-tenant instance pools, and
// closed-loop best-effort batch tasks — multiplexed over the
// kernel-level executor. Best-effort tenants either rotate round-robin
// (§9.2's testing scenario: one BE task resident at a time) or run
// concurrently (N-way colocation).
//
// Scheduling decisions are delegated to a control::Controller — SGDRC
// and every baseline of Fig. 17 implement this interface, so all systems
// run on exactly the same substrate and workload. Controllers see one
// unified JobView API regardless of QoS class and answer with a
// declarative ResourcePlan; apply() is the only path from plan to
// mechanism (launches, eviction flags, wake-ups), and it hands each
// launch's gpusim::Allocation to the executor in the plan's own encoding.
//
// Every LS request takes one path: it joins its tenant's assembly queue,
// which closes into a batch job (a batch of one when the tenant does not
// batch, max_batch 1) or waits for a free instance as a closed batch.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "common/shard_guard.h"
#include "control/vgpu.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"
#include "memory/memory.h"
#include "models/model.h"
#include "workload/metrics.h"
#include "workload/tenant.h"
#include "workload/trace.h"

namespace sgdrc::control {
class Controller;
class SimView;
struct ResourcePlan;
}  // namespace sgdrc::control

namespace sgdrc::core {

using workload::JobId;
using workload::QosClass;
using workload::TenantId;

/// One workload sharing the GPU: an LS service or a BE batch task.
struct TenantSpec {
  QosClass qos = QosClass::kBestEffort;
  /// Possibly SPT-transformed; immutable and shared by every copy of the
  /// spec, so each replica of a fleet tenant runs the same object.
  std::shared_ptr<const models::ModelDesc> model;
  /// LS only: untransformed isolated p99 (SLO base).
  TimeNs isolated_latency = 0;
  /// LS only: instance-pool size; 0 ⇒ ServingConfig::ls_instances.
  unsigned instances = 0;
  /// vGPU guarantees (§4): hard TPC reservation, channel share, weight,
  /// priority. Default: no guarantees (pure tidal sharing).
  control::VgpuSpec vgpu;
  /// LS only: dynamic request batching (assembly queue + batched jobs).
  /// Default max_batch 1 — each request is a batch of one, served on the
  /// same path.
  workload::BatchPolicy batching;
};

/// The two spec constructors wrap `model` once; build or transform it
/// before the call.
inline TenantSpec latency_sensitive_tenant(models::ModelDesc model,
                                           TimeNs isolated_latency,
                                           unsigned instances = 0) {
  return {QosClass::kLatencySensitive,
          std::make_shared<const models::ModelDesc>(std::move(model)),
          isolated_latency, instances, {}, {}};
}
inline TenantSpec best_effort_tenant(models::ModelDesc model) {
  return {QosClass::kBestEffort,
          std::make_shared<const models::ModelDesc>(std::move(model)), 0, 0,
          {}, {}};
}
/// Attach a vGPU guarantee to a tenant declaration:
///   with_vgpu(best_effort_tenant(m), {.guaranteed_tpcs = 2})
inline TenantSpec with_vgpu(TenantSpec spec, control::VgpuSpec vgpu) {
  spec.vgpu = vgpu;
  return spec;
}

/// How best-effort tenants share the GPU among themselves.
enum class BeMode {
  /// §9.2: one BE tenant resident at a time, rotating at batch
  /// boundaries — controllers see at most one BE job.
  kRoundRobin,
  /// Every BE tenant has its own always-on job; controllers arbitrate.
  kConcurrent,
};

struct ServingConfig {
  gpusim::GpuSpec spec;
  gpusim::ExecutorParams exec_params;
  unsigned ls_instances = 4;   // §9.2: 4 instances per LS model
  TimeNs duration = 2 * kNsPerSec;
  /// SLO = slo_multiplier × isolated p99; 0 ⇒ #tenants concurrently on
  /// the GPU (#LS + 1 rotating BE slot, or #LS + #BE when concurrent).
  double slo_multiplier = 0.0;
  BeMode be_mode = BeMode::kRoundRobin;
  /// Seed of this sim's private RNG stream. Fleets salt it per device
  /// (fleet::device_seed) so replicas never share a jitter stream.
  uint64_t seed = 0x5eed;
  /// GPU memory virtualization (weight residency, cold starts,
  /// eviction; src/memory). OFF by default — and even when enabled, a
  /// device whose GpuSpec::vram_bytes is 0 (default-constructed specs)
  /// stays *unmodeled*: memory charging is silently skipped, never an
  /// instant OOM.
  memory::MemoryOptions memory;
};

class ServingSim {
 public:
  /// Standalone sim driven by a declarative controller: owns its event
  /// queue; the enforcer compiles each plan into launches/evictions.
  ServingSim(ServingConfig cfg, std::vector<TenantSpec> tenants,
             control::Controller& controller);
  /// Fleet mode: shares `queue` with sibling devices so an outer
  /// simulation (fleet::FleetSim) can interleave N GPUs on one clock and
  /// route requests by live per-device state. The caller drives the
  /// queue and uses begin()/inject()/finish() instead of run().
  ServingSim(EventQueue& queue, ServingConfig cfg,
             std::vector<TenantSpec> tenants,
             control::Controller& controller);
  ~ServingSim();

  /// Replay the trace; returns the metrics after `duration`.
  workload::ServingMetrics run(const std::vector<workload::Request>& trace);

  // -------------------------------------------- external-driver API ----
  // run() is begin() + per-request inject() + queue drain + finish();
  // fleets call the pieces directly.
  /// Start metrics collection and let the controller boot the BE loops.
  void begin();
  /// Admit a routed LS request for `tenant`. `arrival` is the upstream
  /// (fleet) arrival time — it may predate now() so queueing at the
  /// router counts against the SLO; it must not be in the future.
  void inject(TenantId tenant, TimeNs arrival);
  /// Stop recording (late completions no longer count) and take the
  /// metrics.
  workload::ServingMetrics finish();

  // ------------------------------------------ shard-local driver API ----
  // In the sharded fleet engine each device sim's `queue` (the fleet-mode
  // constructor argument) is private to the device — one shard of the
  // fleet's conservative time-window loop. The fleet barrier drives the
  // shard with these; exactly one thread may run a given sim at a time
  // (the pool's submit/wait_idle pair provides the happens-before).
  // That exclusivity is asserted by shard_guard() when armed
  // (common/shard_guard.h): the three methods below claim the shard for
  // the call, and every mutating entry point checks the claim.
  /// Fire this shard's events strictly before `t`, then advance its
  /// clock to `t` — the barrier's exclusive edge, so same-timestamp
  /// events wait for the canonical fleet-before-device turn.
  size_t run_shard_until_before(TimeNs t);
  /// Fire this shard's events up to and including `t` (the inclusive
  /// drain that closes a window).
  size_t run_shard_until(TimeNs t);
  /// Earliest pending event on this shard (nullopt when idle).
  std::optional<TimeNs> next_shard_event();

  // ------------------------------------------ runtime tenant churn ----
  // Dynamic scenarios (workload::Scenario) and fleet autoscaling add and
  // remove tenants while the simulation runs.
  /// Register a new tenant mid-run. LS tenants get an instance pool and
  /// an SLO derived from the same multiplier the initial set used; BE
  /// tenants get a batch loop that the controller starts on its next
  /// plan. Throws ConfigError, leaving the sim unchanged, for a malformed
  /// model (no kernels, or kernel_deps that are not one ascending
  /// in-range list per kernel), a BatchPolicy on a BE tenant or outside
  /// [1, 64], an empty instance pool, a vGPU guarantee that is invalid or
  /// overcommits the live tenants' TPC, channel or memory budgets, or
  /// weights that cannot fit the device's VRAM. Returns the new dense
  /// TenantId (existing ids never shift).
  TenantId add_tenant(const TenantSpec& spec);
  /// add_tenant's whole check on its own: throws ConfigError in each case
  /// add_tenant lists and changes nothing. A fleet runs it on every
  /// device of a new tenant's row before it registers the first replica.
  void validate_tenant(const TenantSpec& spec) const;
  /// Retire a tenant. LS tenants drain: routers must stop sending new
  /// work (stragglers already in a dispatch hop are still admitted), and
  /// admitted + backlogged requests complete and are recorded. BE
  /// tenants halt: the batch loop leaves the rotation and its in-flight
  /// kernel (if any) is evicted. The metrics slot survives removal.
  void remove_tenant(TenantId t);
  /// False once remove_tenant(t) has been called.
  bool tenant_active(TenantId t) const { return active_.at(t) != 0; }
  /// Runtime SLO changes (scenario scripting, e.g. an SLO tighten).
  void set_slo(TenantId t, TimeNs slo);
  TimeNs slo_of(TenantId t) const;
  /// The SLO add_tenant gives an LS tenant of this isolated latency: the
  /// SLO multiplier frozen at init × the latency. Throws ConfigError
  /// when it does not fit in TimeNs.
  TimeNs initial_slo(TimeNs isolated_latency) const;
  /// Runtime vGPU re-plan (scenario set_quota): swap a tenant's
  /// guarantees. The old TPC region is released, a new one is carved,
  /// and the controller re-plans. The new spec passes the same check as
  /// registration, with the tenant's own share excluded; a rejected
  /// re-plan throws ConfigError and keeps the old guarantee.
  void set_vgpu(TenantId t, const control::VgpuSpec& vgpu);
  /// Fleet overload lever (the front door's BE-before-LS degradation
  /// order): while paused, every BE loop is invisible to the controller
  /// — nothing launches — and in-flight BE kernels are evicted so their
  /// TPCs free immediately. Resuming pokes the controller; loops restart
  /// where their rotation left off. Idempotent.
  void set_be_paused(bool paused);
  bool be_paused() const { return be_paused_; }

  // --------------------------------------------- controller read API ----
  const gpusim::GpuSpec& spec() const { return cfg_.spec; }
  const ServingConfig& config() const { return cfg_; }
  gpusim::GpuExecutor& exec() { return *exec_; }
  TimeNs now() const { return queue_.now(); }

  struct JobView {
    JobId id;
    TenantId tenant;
    QosClass qos;
    TimeNs arrival;
    const gpusim::KernelDesc* next_kernel;  // null when in flight
    bool in_flight;
    bool evicting;
  };
  // Views are spans into buffers the sim owns, one per accessor and
  // class (and the executor's one for running_infos()): each call
  // clears and refills its own buffer, so the per-event path reuses
  // their capacity instead of allocating. A view is valid until the sim
  // changes state or the same accessor is called again for the same
  // class; the other accessors leave it intact. A caller that keeps one
  // across a mutation copies it.
  /// Visible jobs of one class, arrival order — one view per job. In
  /// round-robin mode only the resident BE tenant's job is visible. The
  /// view aggregates the job's frontier: next_kernel is the lowest-index
  /// ready kernel (null, with in_flight set, when every runnable kernel
  /// is already launched).
  std::span<const JobView> jobs(QosClass qos);
  /// Waiting work of one class: one view per launchable kernel, kernel
  /// index ascending within a job, each with next_kernel pointing at
  /// that kernel (a chain job contributes at most one). A plan's
  /// launches of a job consume its entries in the same order, so
  /// "launch every waiting entry" co-schedules the frontier.
  std::span<const JobView> waiting_jobs(QosClass qos);
  /// Look a job up by id — e.g. classify a RunningInfo by its tag.
  std::optional<JobView> find_job(JobId id) const;
  /// In-flight kernels of one class.
  size_t inflight(QosClass qos) const;

  /// All tenant slots ever registered (metrics/TenantId space; removal
  /// never shrinks it).
  size_t tenant_count() const { return tenants_.size(); }
  /// Active tenants of one class (drained/halted tenants excluded).
  size_t tenant_count(QosClass qos) const;
  bool has_class(QosClass qos) const { return tenant_count(qos) > 0; }
  const TenantSpec& tenant(TenantId t) const { return tenants_.at(t); }
  /// Requests in the system for an LS tenant (0 for BE tenants): admitted
  /// (inside a job holding an instance) plus queued ahead of the GPU —
  /// counted in *requests*, so a batching tenant's assembly queue and
  /// closed-but-waiting batches are visible to routers, not hidden behind
  /// a single instance slot.
  size_t outstanding(TenantId t) const {
    if (!batch_.at(t)) return 0;
    return batch_[t]->admitted_requests + batch_queue_depth(t);
  }

  // ------------------------------------------------ batching read API ----
  /// True when the tenant runs under a BatchPolicy with max_batch > 1.
  bool batching_enabled(TenantId t) const {
    return tenants_.at(t).batching.enabled();
  }
  /// Requests of an LS tenant queued ahead of the GPU (0 for BE
  /// tenants): the assembly queue plus closed batches waiting for a free
  /// instance. For an unbatched tenant that is its requests waiting for
  /// an instance. Routers and the batch-aware controller read this.
  size_t batch_queue_depth(TenantId t) const {
    if (!batch_.at(t)) return 0;
    return batch_[t]->assembly.size() + batch_[t]->ready_requests;
  }
  /// Observed batch occupancy: mean requests per batch over the most
  /// recently launched batches (a sliding window, so the signal follows
  /// the workload — a surge of full batches raises it, a return to
  /// singleton traffic decays it; 0 before the first batch launches, and
  /// always 0 for a tenant that does not batch).
  /// The batch-aware controller widens and narrows the tenant's
  /// allocation from this.
  double batch_occupancy(TenantId t) const {
    if (!batch_.at(t) || batch_[t]->recent.empty()) return 0.0;
    size_t sum = 0;
    for (const unsigned s : batch_[t]->recent) sum += s;
    return static_cast<double>(sum) /
           static_cast<double>(batch_[t]->recent.size());
  }
  /// This sim's private deterministic RNG stream (device-salted in
  /// fleets); outer simulations draw jitter from it.
  Rng& rng() { return rng_; }
  /// The shard-ownership race detector (dormant unless armed — see
  /// common/shard_guard.h). Tests claim it to fake a mid-window worker.
  ShardGuard& shard_guard() { return shard_guard_; }

  // ------------------------------------------------ memory read API ----
  /// This device's VRAM residency tracker; null unless the device
  /// models VRAM capacity (memory virtualization enabled AND the spec
  /// declares a non-zero vram_bytes).
  const memory::MemoryManager* memory() const { return mem_.get(); }
  /// Where tenant t's weights live (kUnmodeled on unmodeled devices).
  /// Routers use this to prefer warm replicas.
  memory::Residency residency_of(TenantId t) const {
    return mem_ ? mem_->residency(t) : memory::Residency::kUnmodeled;
  }

  // ----------------------------------------- vGPU guarantee geometry ----
  /// The concrete TPC region backing tenant t's guarantee (0 when the
  /// tenant has none or was removed). LS regions are carved from the top
  /// of the mask, BE regions from the bottom, so SGDRC's LS-at-the-top
  /// tidal convention and hard reservations compose.
  gpusim::TpcMask guaranteed_mask(TenantId t) const {
    return guaranteed_mask_.at(t);
  }
  /// Union of active guaranteed regions of one class.
  gpusim::TpcMask guaranteed_union(QosClass qos) const;

  // -------------------------------------------------------- enforcer ----
  /// Enforce a declarative plan: validate each directive and compile it
  /// into launches / eviction flags / wake-ups, strictly in emission
  /// order. Launches need a grant GpuExecutor::resolve() accepts (no
  /// zero-means-all) and a waiting job: one that is resident (BE
  /// rotation, loaded weights) with a ready kernel — anything else throws
  /// ConfigError. A launch whose resolved TPC mask trespasses on another
  /// tenant's guaranteed region is rejected when the controller is
  /// guarantee_aware(), and counted in
  /// ServingMetrics::guarantee_violations otherwise. This is the only
  /// path from plan to mechanism.
  void apply(const control::ResourcePlan& plan);

 private:
  /// A job's execution state: the frontier of its model's operator DAG
  /// — the dependency-satisfied kernels ready to launch and the ones in
  /// flight, any number at once (multi-launch into the executor's
  /// concurrent-kernel support). A chain (no kernel_deps) is the
  /// degenerate DAG whose kernel k has the one dependent k + 1, so it
  /// keeps no pending counts and has at most one kernel ready or in
  /// flight. Ready order is kernel index ascending (docs/models.md), so
  /// reruns are bit-identical whatever completion order the executor
  /// produces.
  struct Frontier {
    /// (Re)derive the initial frontier from the model — also how a BE
    /// batch loop restarts at rotation.
    void reset(const models::ModelDesc& m);
    /// Return an evicted/unblocked kernel to the ready set, keeping the
    /// ascending order.
    void make_ready(int kernel);
    /// Drop a launch from the in-flight set (completed or evicted) and
    /// return its kernel.
    int stop(gpusim::GpuExecutor::LaunchId launch);
    /// Count `kernel` done and unlock its dependents.
    void retire(int kernel, const models::ModelDesc& m);

    std::vector<int> pending;  // DAG only: unmet dep count per kernel
    size_t done_count = 0;
    std::vector<int> ready;    // launchable kernel indices, ascending
    struct Running {
      int kernel = -1;
      gpusim::GpuExecutor::LaunchId launch_id = 0;
      bool evicting = false;
    };
    std::vector<Running> running;  // in-flight kernels, launch order
  };

  /// One admitted unit of work.
  struct Job {
    JobId id = 0;
    TenantId tenant = 0;
    TimeNs arrival = 0;  // batched jobs: the oldest request's arrival
    Frontier frontier;
    /// Batches of two or more run a batch-size-scaled kernel sequence
    /// (owned by the tenant's BatchState; stable storage). Null = the
    /// tenant spec model (BE loops and batches of one).
    const models::ModelDesc* model = nullptr;
    /// Arrival time of every request in an LS batch (empty for BE
    /// loops); each gets its own latency sample.
    std::vector<TimeNs> batch;
    /// The job found cold/paged weights when it entered the system: its
    /// request latencies are also recorded into TenantMetrics::
    /// cold_latency (the cold-start tail).
    bool cold = false;
    /// Serving out a demand-paging penalty: invisible until its hold
    /// event fires.
    bool held = false;
  };

  /// Per-LS-tenant request state: the assembly queue, the closed batches
  /// waiting for an instance, and the instance pool. Every LS tenant
  /// carries one; an unbatched tenant (max_batch 1) closes a batch of one
  /// per request.
  struct BatchState {
    /// variants[b-2] = the batch-size-b model for b >= 2 (a batch of one
    /// runs the tenant's own model); built once at tenant registration
    /// so kernel-descriptor pointers stay stable.
    std::vector<models::ModelDesc> variants;
    std::vector<TimeNs> assembly;           // arrivals being assembled
    std::deque<std::vector<TimeNs>> ready;  // closed, awaiting an instance
    size_t ready_requests = 0;              // Σ sizes over `ready`
    size_t admitted_requests = 0;           // requests inside live jobs
    unsigned free_instances = 0;            // idle slots of the pool
    EventId timer = 0;                      // assembly-timeout event
    bool timer_armed = false;
    /// Sizes of the most recent launches (sliding occupancy window;
    /// batching tenants only).
    std::deque<unsigned> recent;
  };
  /// Occupancy window length: long enough to smooth burst-to-burst
  /// noise, short enough that a surge's full batches age out within a
  /// few frames of singleton traffic.
  static constexpr size_t kOccupancyWindow = 16;

  QosClass qos_of(const Job& j) const { return tenants_[j.tenant].qos; }
  const models::ModelDesc& model_of(const Job& j) const {
    return j.model ? *j.model : *tenants_[j.tenant].model;
  }
  /// A new job of `tenant` (next id, frontier at the model's sources).
  /// `model` is a batch variant, or null for the tenant's own model.
  Job make_job(TenantId tenant, TimeNs arrival,
               const models::ModelDesc* model = nullptr);
  bool visible(const Job& j) const;
  /// The pre-memory visibility rule (LS always; BE per rotation/churn).
  bool visible_rotation(const Job& j) const;
  /// Memory gate: false while the tenant's weights are cold/loading, or
  /// while this specific job serves out a demand-paging penalty.
  bool memory_ready(const Job& j) const;
  JobView view_of(const Job& j) const;
  Job* job_ptr(JobId id);
  const Job* job_ptr(JobId id) const;

  void init();
  /// Validate `spec` against the live tenant set, then give it the next
  /// TenantId. Throws ConfigError before changing any state.
  TenantId register_tenant(TenantSpec spec);
  /// Reject a model the frontier cannot run (ConfigError).
  static void validate_model(const models::ModelDesc& m);
  /// Reject a vGPU spec that is malformed or, together with every active
  /// tenant other than `self`, overcommits the TPC, channel or memory
  /// budget. Registration passes the id the new tenant will get;
  /// set_vgpu passes the tenant whose guarantee it replaces.
  void validate_vgpu(const control::VgpuSpec& vgpu, TenantId self) const;
  /// Carve (or release + re-carve) the TPC region backing a guarantee.
  void assign_guarantee_region(TenantId t);
  void release_guarantee_region(TenantId t);
  /// True when `tpcs` trespasses on another active tenant's region.
  bool trespasses(TenantId owner, gpusim::TpcMask tpcs) const;
  /// Launch the job's lowest-index ready kernel (the order
  /// waiting_jobs() exposed) on a resolve()d grant. Non-memory-bound
  /// kernels keep every channel (only memory-bound tensors are colored,
  /// §7.2).
  void launch(Job& job, const gpusim::Allocation& grant);
  /// Preempt the job's in-flight kernels via the eviction flag (§7.1).
  /// Restart-from-scratch semantics: progress is lost and each evicted
  /// kernel returns to the ready set. Kernels already evicting are left
  /// alone. Only preemptible (best-effort) kernels accept this.
  void evict(Job& job);
  void arrive(const workload::Request& r);
  /// Completion: retire the launch's kernel from the job's frontier,
  /// unlock its dependents, and finish the job when every kernel has
  /// run.
  void finish_kernel(JobId id, gpusim::GpuExecutor::LaunchId launch);
  // ---- LS request path (assembly queue → batch job) ----
  void enqueue_for_batch(TenantId t, TimeNs arrival);
  /// Move the assembly queue into a batch job (or the ready queue when no
  /// instance is free); cancels the assembly timer. No-op when empty.
  void close_batch(TenantId t);
  void admit_batch(TenantId t, std::vector<TimeNs> arrivals);
  /// LS completion tail: erase the job, record one latency sample per
  /// request, and hand the instance to the next closed batch.
  void complete_ls(std::deque<Job>::iterator it);
  void rotate_be(Job& job);
  void note_inflight(QosClass qos, int delta);
  void poke();
  // ---- memory virtualization ----
  /// GpuSpec::vram_bytes unless the MemoryOptions override is set.
  uint64_t effective_vram() const;
  /// True when tenant t has work in the system (jobs or admitted
  /// requests) — the evictor must not yank weights out from under it.
  bool tenant_busy(TenantId t) const;
  memory::MemoryManager::BusyFn busy_probe();
  /// Start cold-start loads for every tenant whose gated jobs demand
  /// weights; called at the top of each poke so strict-mode waiters are
  /// retried whenever anything completes.
  void ensure_residency();
  void request_weights(TenantId t);
  /// Tag a freshly created job cold/paged and, for paged replicas,
  /// schedule its per-request demand-paging penalty.
  void apply_memory_gates(Job& job);
  void hold_job_for_paging(Job& job, TimeNs penalty);

  ServingConfig cfg_;
  std::vector<TenantSpec> tenants_;
  control::Controller* controller_;  // the scheduling brain

  std::unique_ptr<EventQueue> owned_queue_;  // null in fleet mode
  EventQueue& queue_;
  /// Asserts the engine's one-thread-per-shard-per-window contract on
  /// every mutating entry point (no-op until armed).
  ShardGuard shard_guard_;
  Rng rng_;
  std::unique_ptr<gpusim::GpuExecutor> exec_;
  /// Null unless memory virtualization is on AND the device's VRAM is
  /// modeled (effective_vram() > 0).
  std::unique_ptr<memory::MemoryManager> mem_;
  workload::ServingMetrics metrics_;

  std::deque<Job> jobs_;                 // BE loops first, then LS jobs
  std::vector<JobView> job_views_[2];    // jobs()'s buffer per QosClass
  std::vector<JobView> waiting_views_[2];  // waiting_jobs()'s, likewise
  std::vector<TenantId> ls_tenants_;     // trace service index → tenant
  std::vector<TenantId> be_tenants_;     // rotation order (active only)
  size_t be_resident_ = 0;               // round-robin position
  std::vector<std::unique_ptr<BatchState>> batch_;  // per tenant; null: BE
  std::vector<char> active_;             // per tenant; 0 after removal
  std::vector<gpusim::TpcMask> guaranteed_mask_;  // per tenant; 0 = none
  gpusim::TpcMask guaranteed_used_ = 0;  // union of carved regions
  double slo_n_ = 1.0;                   // SLO multiplier used at init
  size_t inflight_[2] = {0, 0};          // per QosClass
  TimeNs busy_since_[2] = {0, 0};
  JobId next_job_ = 1;

  bool in_schedule_ = false;
  bool repoke_ = false;
  bool stopped_ = false;
  bool be_paused_ = false;  // front-door overload lever (set_be_paused)
};

/// Fluent setup for a serving simulation, so drivers stop hand-assembling
/// ServingConfig + TenantSpec vectors:
///
///   auto sim = ServingSimBuilder()
///                  .gpu(gpusim::rtx_a2000())
///                  .duration(1 * kNsPerSec)
///                  .add_latency_sensitive(model_a, iso_a)
///                  .add_best_effort(model_i)
///                  .add_best_effort(model_j)
///                  .best_effort_mode(BeMode::kConcurrent)
///                  .build(controller);
class ServingSimBuilder {
 public:
  /// Seed the whole ServingConfig at once (fleet drivers deriving a
  /// per-device config); individual setters still apply on top.
  ServingSimBuilder& config(const ServingConfig& cfg) {
    cfg_ = cfg;
    return *this;
  }
  /// Replace the tenant list wholesale (fleet drivers with a placement-
  /// derived per-device list).
  ServingSimBuilder& tenants(std::vector<TenantSpec> specs) {
    tenants_ = std::move(specs);
    return *this;
  }
  ServingSimBuilder& gpu(const gpusim::GpuSpec& spec) {
    cfg_.spec = spec;
    return *this;
  }
  ServingSimBuilder& executor_params(const gpusim::ExecutorParams& p) {
    cfg_.exec_params = p;
    return *this;
  }
  ServingSimBuilder& duration(TimeNs d) {
    cfg_.duration = d;
    return *this;
  }
  ServingSimBuilder& default_ls_instances(unsigned n) {
    cfg_.ls_instances = n;
    return *this;
  }
  ServingSimBuilder& slo_multiplier(double n) {
    cfg_.slo_multiplier = n;
    return *this;
  }
  ServingSimBuilder& best_effort_mode(BeMode mode) {
    cfg_.be_mode = mode;
    return *this;
  }
  ServingSimBuilder& seed(uint64_t s) {
    cfg_.seed = s;
    return *this;
  }
  /// Turn on GPU memory virtualization (weight residency + cold starts).
  ServingSimBuilder& memory(const memory::MemoryOptions& opt) {
    cfg_.memory = opt;
    return *this;
  }
  ServingSimBuilder& add_tenant(TenantSpec spec) {
    tenants_.push_back(std::move(spec));
    return *this;
  }
  ServingSimBuilder& add_latency_sensitive(models::ModelDesc model,
                                           TimeNs isolated_latency,
                                           unsigned instances = 0) {
    return add_tenant(latency_sensitive_tenant(std::move(model),
                                               isolated_latency, instances));
  }
  ServingSimBuilder& add_best_effort(models::ModelDesc model) {
    return add_tenant(best_effort_tenant(std::move(model)));
  }
  /// Attach a vGPU guarantee to the most recently added tenant:
  ///   builder.add_latency_sensitive(m, iso).quota({.guaranteed_tpcs = 6})
  ServingSimBuilder& quota(control::VgpuSpec vgpu) {
    SGDRC_REQUIRE(!tenants_.empty(), "quota() needs a tenant to attach to");
    tenants_.back().vgpu = vgpu;
    return *this;
  }
  /// Attach a request-batching policy to the most recently added tenant:
  ///   builder.add_latency_sensitive(m, iso)
  ///          .batching(workload::batch_up_to(8, 2 * kNsPerMs))
  ServingSimBuilder& batching(workload::BatchPolicy policy) {
    SGDRC_REQUIRE(!tenants_.empty(),
                  "batching() needs a tenant to attach to");
    tenants_.back().batching = policy;
    return *this;
  }

  /// The sim keeps a reference to the controller; both must outlive
  /// run(). (unique_ptr because the sim's executor holds a reference
  /// into the sim-owned event queue — the sim must not move.)
  std::unique_ptr<ServingSim> build(control::Controller& controller) const {
    return std::make_unique<ServingSim>(cfg_, tenants_, controller);
  }
  /// Fleet mode: the device sim shares `queue` with its siblings and is
  /// driven through begin()/inject()/finish() by the fleet layer.
  std::unique_ptr<ServingSim> build(EventQueue& queue,
                                    control::Controller& controller) const {
    return std::make_unique<ServingSim>(queue, cfg_, tenants_, controller);
  }

 private:
  ServingConfig cfg_;
  std::vector<TenantSpec> tenants_;
};

}  // namespace sgdrc::core
