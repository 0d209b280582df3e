#include "memory/memory.h"

#include <algorithm>
#include <limits>
#include <tuple>

namespace sgdrc::memory {

namespace {
/// Bytes / (GB/s) → integer nanoseconds (1 GB/s = 1 byte/ns).
TimeNs transfer_ns(uint64_t bytes, double gbps) {
  SGDRC_REQUIRE(gbps > 0.0, "transfer bandwidth must be positive");
  return static_cast<TimeNs>(static_cast<double>(bytes) / gbps + 0.5);
}

/// MMU frames needed for `bytes` (page-granular, like PageTable::alloc).
uint64_t frames_for(uint64_t bytes) {
  return (bytes + gpusim::kPageBytes - 1) >> gpusim::kPageBits;
}
}  // namespace

MemoryManager::MemoryManager(uint64_t vram_bytes, const MemoryOptions& opt,
                             uint64_t seed)
    : opt_(opt), pt_(vram_bytes, seed), capacity_bytes_(vram_bytes) {
  SGDRC_REQUIRE(vram_bytes >= gpusim::kPageBytes,
                "modeled VRAM smaller than one page (vram_bytes == 0 means "
                "unmodeled — do not construct a MemoryManager for it)");
  usable_bytes_ = capacity_bytes_;
  if (opt_.oversubscribe) {
    // The UVM staging window: a slice of frames reserved through the
    // same take_free_frame() primitive driver::UvmMemoryPool builds its
    // colored pool from. Paged replicas stream through these frames, so
    // they are never available to resident weights.
    const uint64_t want = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(pt_.total_frames()) *
                                 kPagingWindow));
    staging_.reserve(want);
    for (uint64_t i = 0; i < want; ++i) {
      staging_.push_back(pt_.take_free_frame());
    }
    usable_bytes_ = capacity_bytes_ - want * gpusim::kPageBytes;
  }
}

MemoryManager::Replica& MemoryManager::rep(TenantId t) {
  SGDRC_REQUIRE(t < replicas_.size() && replicas_[t].registered,
                "unknown replica");
  return replicas_[t];
}

const MemoryManager::Replica& MemoryManager::rep(TenantId t) const {
  SGDRC_REQUIRE(t < replicas_.size() && replicas_[t].registered,
                "unknown replica");
  return replicas_[t];
}

void MemoryManager::check_fits(uint64_t weight_bytes) const {
  SGDRC_REQUIRE(
      opt_.oversubscribe ||
          frames_for(weight_bytes) * gpusim::kPageBytes <= usable_bytes_,
      "replica weights exceed device VRAM and oversubscription "
      "is off — the replica could never become resident");
}

void MemoryManager::add_replica(TenantId t, uint64_t weight_bytes,
                                int priority, uint64_t quota_bytes,
                                const BusyFn& busy) {
  SGDRC_REQUIRE(t >= replicas_.size() || !replicas_[t].registered,
                "replica already registered");
  check_fits(weight_bytes);
  if (t >= replicas_.size()) replicas_.resize(t + 1);
  Replica& r = replicas_[t];
  r.registered = true;
  r.weight_bytes = weight_bytes;
  r.quota_bytes = quota_bytes;
  r.priority = priority;
  r.state = Residency::kCold;
  if (weight_bytes == 0) return;
  // The replica's one VA range: every load maps fresh frames into it and
  // every eviction unmaps them, so the page table stays bounded by the
  // registered weight bytes however often the weights reload.
  r.va = pt_.alloc_va(weight_bytes);
  // Registration allocates the weights (best effort): the fleet warms a
  // replica up before traffic reaches it when capacity allows, matching
  // real serving stacks that load at deploy time. Under pressure the
  // allocation may fail — the replica stays cold (strict) or degrades
  // to demand paging (oversubscribed); the first request sorts it out.
  if (!try_allocate(t, busy) && opt_.oversubscribe) {
    r.state = Residency::kPaged;
  }
}

void MemoryManager::retire_replica(TenantId t, const BusyFn& busy) {
  Replica& r = rep(t);
  r.retired = true;
  r.priority = std::numeric_limits<int>::min();
  // Never free under an in-flight DMA (finish_load still needs the
  // frames); a retired kLoading replica is reaped by pressure eviction
  // once the load lands.
  if (r.allocated && r.state != Residency::kLoading && !(busy && busy(t))) {
    free_replica(t);
  }
}

void MemoryManager::set_quota(TenantId t, uint64_t quota_bytes,
                              int priority) {
  Replica& r = rep(t);
  r.quota_bytes = quota_bytes;
  r.priority = priority;
}

MemoryManager::Touch MemoryManager::request(TenantId t, TimeNs now,
                                            const BusyFn& busy) {
  Replica& r = rep(t);
  switch (r.state) {
    case Residency::kWarm:
      r.last_use = now;
      return {Touch::Kind::kReady, 0};
    case Residency::kLoading:
      return {Touch::Kind::kLoading, 0};
    case Residency::kPaged:
      // A paged replica keeps trying to become resident: pressure may
      // have eased since it degraded.
      if (try_allocate(t, busy)) {
        begin_load(t);
        return {Touch::Kind::kLoadStarted, load_time(r.weight_bytes)};
      }
      r.last_use = now;
      return {Touch::Kind::kPagedStill, 0};
    case Residency::kCold: {
      if (r.weight_bytes == 0) {
        r.state = Residency::kWarm;
        r.last_use = now;
        return {Touch::Kind::kReady, 0};
      }
      if (!r.allocated && !try_allocate(t, busy)) {
        if (opt_.oversubscribe) {
          r.state = Residency::kPaged;
          r.last_use = now;
          return {Touch::Kind::kPagedNow, page_penalty(t)};
        }
        return {Touch::Kind::kWaiting, 0};
      }
      begin_load(t);
      return {Touch::Kind::kLoadStarted, load_time(r.weight_bytes)};
    }
    case Residency::kUnmodeled:
      break;
  }
  SGDRC_CHECK(false, "replica in impossible residency state");
  return {Touch::Kind::kReady, 0};
}

void MemoryManager::begin_load(TenantId t) {
  Replica& r = rep(t);
  SGDRC_CHECK(r.allocated, "load without an allocation");
  r.state = Residency::kLoading;
  ++loads_;
  if (r.quota_bytes > 0 && r.weight_bytes > r.quota_bytes) {
    // Loading beyond the tenant's own declared memory quota: allowed
    // (quotas are guarantees, not caps) but counted, exactly like TPC
    // guarantee trespasses.
    ++trespasses_;
    if (trespass_hook_) trespass_hook_(t);
  }
}

void MemoryManager::finish_load(TenantId t, TimeNs now) {
  Replica& r = rep(t);
  SGDRC_CHECK(r.state == Residency::kLoading, "finish_load without a load");
  r.state = Residency::kWarm;
  r.last_use = now;
}

void MemoryManager::note_use(TenantId t, TimeNs now) {
  if (t >= replicas_.size() || !replicas_[t].registered) return;
  replicas_[t].last_use = now;
}

TimeNs MemoryManager::page_penalty(TenantId t) const {
  // Worst-case demand-paging model: the working set is the whole weight
  // tensor set and the staging window is far smaller, so every request
  // restreams the weights at UVM migration bandwidth.
  return transfer_ns(rep(t).weight_bytes, kPageGbps);
}

TimeNs MemoryManager::load_time(uint64_t bytes) const {
  return transfer_ns(bytes, opt_.load_gbps);
}

Residency MemoryManager::residency(TenantId t) const {
  if (t >= replicas_.size() || !replicas_[t].registered) {
    return Residency::kUnmodeled;
  }
  return replicas_[t].state;
}

uint64_t MemoryManager::weight_bytes(TenantId t) const {
  return rep(t).weight_bytes;
}

bool MemoryManager::try_allocate(TenantId t, const BusyFn& busy) {
  Replica& r = rep(t);
  SGDRC_CHECK(!r.allocated, "replica already allocated");
  const uint64_t frames = frames_for(r.weight_bytes);
  if (frames * gpusim::kPageBytes > usable_bytes_) return false;
  // Gather the legal victims first and prove the fit is achievable
  // BEFORE evicting anyone — a strict-mode waiter retried on every poke
  // must not strip the device of everyone else's weights for nothing.
  // kLruPriority: idle, unprotected replicas in (priority asc, last_use
  // asc, id asc) order — retired replicas sort first via their INT_MIN
  // priority. kFifo (the naive baseline): strictly first-loaded-first-
  // evicted, blind to priority, quota, and in-flight work.
  std::vector<TenantId> victims;
  uint64_t attainable = pt_.free_frames();
  for (TenantId v = 0; v < replicas_.size(); ++v) {
    const Replica& c = replicas_[v];
    if (!c.registered || !c.allocated || v == t) continue;
    if (c.state == Residency::kLoading) continue;  // the DMA owns them
    if (opt_.evict == EvictPolicy::kLruPriority) {
      if (quota_protected(c)) continue;
      if (busy && busy(v)) continue;
    }
    victims.push_back(v);
    attainable += frames_for(c.weight_bytes);
  }
  if (attainable < frames) return false;
  std::sort(victims.begin(), victims.end(), [&](TenantId a, TenantId b) {
    const Replica& ra = replicas_[a];
    const Replica& rb = replicas_[b];
    if (opt_.evict == EvictPolicy::kFifo) return ra.load_order < rb.load_order;
    return std::tuple(ra.priority, ra.last_use, a) <
           std::tuple(rb.priority, rb.last_use, b);
  });
  for (size_t i = 0; pt_.free_frames() < frames; ++i) {
    SGDRC_CHECK(i < victims.size(), "eviction order exhausted mid-fit");
    ++evictions_;
    if (evict_hook_) evict_hook_(victims[i]);
    free_replica(victims[i]);
  }
  pt_.map_fresh(r.va, r.weight_bytes);
  r.allocated = true;
  r.load_order = next_load_order_++;
  resident_bytes_ += r.weight_bytes;
  return true;
}

void MemoryManager::free_replica(TenantId t) {
  Replica& r = rep(t);
  SGDRC_CHECK(r.allocated, "freeing an unallocated replica");
  pt_.free(r.va, r.weight_bytes);
  r.allocated = false;
  r.state = Residency::kCold;
  SGDRC_CHECK(resident_bytes_ >= r.weight_bytes, "resident-bytes underflow");
  resident_bytes_ -= r.weight_bytes;
}

}  // namespace sgdrc::memory
