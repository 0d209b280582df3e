// GPU memory virtualization: per-device weight residency on top of the
// MMU model (gpusim/page_table.h). SGDRC virtualizes SMs (tidal TPC
// masks) and VRAM *bandwidth* (channel coloring); this layer virtualizes
// VRAM *capacity* — the third axis real spatial-sharing deployments are
// capped by. A MemoryManager tracks every replica's weight bytes against
// GpuSpec::vram_bytes: registering a replica reserves its one VA range
// and allocates its weights (each load maps fresh frames into that range
// and each eviction unmaps them), a replica's first request (or any
// request after eviction) pays a cold-start load (weight bytes /
// PCIe-class bandwidth, modeled as an event on the shared clock, never a
// stall of the whole sim), and an LRU-by-tenant-priority evictor frees
// cold replicas under pressure.
//
// Two degraded modes when weights do not fit:
//   * strict (default): the load WAITS for capacity — the serving layer
//     retries on every poke, so the request is gated until an eviction
//     frees frames (or forever, if the fleet overcommitted hard);
//   * oversubscribed: the replica degrades to UVM-style demand paging —
//     a staging window of frames is reserved through the same
//     take_free_frame() primitive driver::UvmMemoryPool uses, and every
//     request restreams the weights through it at paging bandwidth.
//
// Everything is deterministic: decisions depend only on simulated time,
// registration order, and the seeded PageTable frame shuffle, so fleet
// runs stay bit-identical across reruns. The subsystem is OFF by
// default (MemoryOptions::enabled = false) and a device whose spec has
// vram_bytes == 0 is *unmodeled* — memory charging silently disabled,
// never an instant OOM on a default-constructed GpuSpec.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"
#include "common/sim_time.h"
#include "gpusim/page_table.h"
#include "workload/tenant.h"

namespace sgdrc::memory {

/// Where one replica's weights live right now.
enum class Residency : uint8_t {
  /// No memory modeling on this device (subsystem disabled, or
  /// GpuSpec::vram_bytes == 0 ⇒ capacity unmodeled/unlimited).
  kUnmodeled,
  /// Registered but weights not on the device (never loaded, evicted,
  /// or waiting for capacity in strict mode).
  kCold,
  /// Cold-start DMA in flight; requests are gated until finish_load().
  kLoading,
  /// Weights resident; requests run at full speed.
  kWarm,
  /// Oversubscribed degraded mode: weights stream through the UVM
  /// staging window on every request (demand paging).
  kPaged,
};


/// How the evictor picks victims under pressure.
enum class EvictPolicy : uint8_t {
  /// SGDRC: evict idle replicas in (tenant priority asc, last use asc)
  /// order; replicas with work in flight and replicas within their own
  /// declared memory quota are never evicted.
  kLruPriority,
  /// Naive baseline: first-loaded is first-evicted, blind to priority,
  /// quota, and whether the replica is mid-request.
  kFifo,
};

struct MemoryOptions {
  /// Master switch; false ⇒ no MemoryManager is created and every
  /// replica reports Residency::kUnmodeled (bit-identical to the
  /// pre-memory simulator).
  bool enabled = false;
  /// Overrides GpuSpec::vram_bytes when non-zero — the sim-level knob
  /// benchmarks use to sweep memory pressure without minting GpuSpecs.
  uint64_t vram_bytes_override = 0;
  /// Cold-start weight-load bandwidth (PCIe-class host→device DMA).
  double load_gbps = 16.0;
  /// Degrade to demand paging instead of waiting when weights can't fit.
  bool oversubscribe = false;
  EvictPolicy evict = EvictPolicy::kLruPriority;
};

/// Per-device VRAM residency tracker. One instance per ServingSim,
/// created only when modeling is enabled and the device has a modeled
/// capacity. TenantIds are the owning sim's dense ids.
class MemoryManager {
 public:
  using TenantId = workload::TenantId;
  /// "Does tenant t have work in the system right now?" — supplied by
  /// the serving layer at each call that may evict, so draining and
  /// mid-request replicas are never yanked out from under their jobs
  /// (kLruPriority only; the naive kFifo baseline ignores it).
  using BusyFn = std::function<bool(TenantId)>;

  /// Demand-paging bandwidth in oversubscribed mode (UVM migration is
  /// far below a pipelined bulk DMA).
  static constexpr double kPageGbps = 4.0;
  /// Fraction of VRAM reserved as the UVM staging window when
  /// oversubscribing (frames taken via PageTable::take_free_frame, the
  /// same reservation primitive driver::UvmMemoryPool uses).
  static constexpr double kPagingWindow = 0.05;

  MemoryManager(uint64_t vram_bytes, const MemoryOptions& opt, uint64_t seed);

  /// Invoked once per pressure eviction / quota trespass, with the
  /// affected tenant — the serving layer wires these into its metrics.
  void on_evict(std::function<void(TenantId)> fn) { evict_hook_ = std::move(fn); }
  void on_trespass(std::function<void(TenantId)> fn) {
    trespass_hook_ = std::move(fn);
  }

  /// Throws ConfigError when a replica of `weight_bytes` could never
  /// become resident: oversubscription is off and the weights exceed the
  /// VRAM left for them. The one check add_replica makes, so callers
  /// can run it before changing anything of their own.
  void check_fits(uint64_t weight_bytes) const;

  /// Register a replica and allocate its weights (evicting idle victims
  /// under pressure). When the weights cannot fit: oversubscribed mode
  /// degrades the replica to kPaged; strict mode leaves it kCold and the
  /// first request waits for capacity. `quota_bytes` is the tenant's
  /// declared VgpuSpec::memory_bytes (0 = none); `priority` orders the
  /// evictor (higher = kept longer).
  void add_replica(TenantId t, uint64_t weight_bytes, int priority,
                   uint64_t quota_bytes, const BusyFn& busy);

  /// The tenant is being removed. Its weights stay resident while the
  /// drain needs them (the busy probe protects them), but the replica
  /// drops to the bottom of the eviction order and is freed outright
  /// when already idle.
  void retire_replica(TenantId t, const BusyFn& busy);

  /// Runtime re-plan (set_vgpu): swap the tenant's quota and priority.
  void set_quota(TenantId t, uint64_t quota_bytes, int priority);

  struct Touch {
    enum class Kind : uint8_t {
      kReady,        ///< warm — run now
      kLoadStarted,  ///< cold-start DMA begins; warm after `delay`
      kLoading,      ///< a DMA is already in flight — keep waiting
      kPagedNow,     ///< just degraded to paging; charge `delay` to the
                     ///< requests already in the system
      kPagedStill,   ///< remains paged (promotion failed); per-request
                     ///< penalties are charged at admission instead
      kWaiting,      ///< strict mode, no capacity — retry on next poke
    };
    Kind kind = Kind::kReady;
    TimeNs delay = 0;
  };

  /// Demand touches tenant t's weights at `now`. Drives the residency
  /// state machine: starts the cold-start DMA for cold replicas (the
  /// caller schedules finish_load(t) after `delay`), retries promoting
  /// paged replicas to resident when pressure has eased, and degrades
  /// cold replicas to paging when oversubscribed and out of capacity.
  Touch request(TenantId t, TimeNs now, const BusyFn& busy);

  /// Cold-start DMA completed: kLoading → kWarm.
  void finish_load(TenantId t, TimeNs now);

  /// LRU touch without a state change (each kernel launch of t).
  void note_use(TenantId t, TimeNs now);

  /// Per-request restream cost of a paged replica.
  TimeNs page_penalty(TenantId t) const;
  /// Cold-start DMA duration for `bytes` at load bandwidth.
  TimeNs load_time(uint64_t bytes) const;

  Residency residency(TenantId t) const;
  uint64_t weight_bytes(TenantId t) const;
  /// Bytes currently allocated to resident (warm/loading/cold-allocated)
  /// weights.
  uint64_t resident_bytes() const { return resident_bytes_; }
  uint64_t loads() const { return loads_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t trespasses() const { return trespasses_; }
  const gpusim::PageTable& page_table() const { return pt_; }
  const MemoryOptions& options() const { return opt_; }

 private:
  struct Replica {
    uint64_t weight_bytes = 0;
    uint64_t quota_bytes = 0;
    int priority = 0;
    Residency state = Residency::kCold;
    bool allocated = false;       // frames held in pt_
    bool registered = false;
    bool retired = false;
    gpusim::VirtAddr va = 0;      // reserved at registration
    TimeNs last_use = 0;
    uint64_t load_order = 0;      // FIFO stamp (allocation order)
  };

  Replica& rep(TenantId t);
  const Replica& rep(TenantId t) const;
  /// Evict victims until `bytes` fit, then allocate. False when the
  /// eviction order ran out of legal victims first.
  bool try_allocate(TenantId t, const BusyFn& busy);
  void free_replica(TenantId t);
  /// Within its own declared quota ⇒ shielded from pressure eviction.
  bool quota_protected(const Replica& r) const {
    return !r.retired && r.quota_bytes > 0 && r.weight_bytes <= r.quota_bytes;
  }
  void begin_load(TenantId t);

  MemoryOptions opt_;
  gpusim::PageTable pt_;
  uint64_t capacity_bytes_ = 0;
  uint64_t usable_bytes_ = 0;    // capacity minus the UVM staging window
  uint64_t resident_bytes_ = 0;
  uint64_t loads_ = 0;
  uint64_t evictions_ = 0;
  uint64_t trespasses_ = 0;
  uint64_t next_load_order_ = 1;
  std::vector<Replica> replicas_;  // dense by TenantId
  std::vector<uint64_t> staging_;  // reserved UVM window frames (PFNs)
  std::function<void(TenantId)> evict_hook_;
  std::function<void(TenantId)> trespass_hook_;
};

}  // namespace sgdrc::memory
