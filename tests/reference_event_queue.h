// Test-only reference event queue: EventQueue as it was before its heap
// held plain keys. Each heap entry carries its std::function, so every
// sift moves a closure; ordering, ids and work counters are what the
// library queue must reproduce. The class body is kept verbatim so
// event_queue_crosscheck_test.cc can diff the library queue against the
// behaviour it replaced. Not part of the sgdrc library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/error.h"
#include "common/event_queue.h"
#include "common/sim_time.h"

namespace sgdrc::reference {

using sgdrc::EventId;

class EventQueue {
 public:
  /// Schedule `fn` to fire at absolute simulated time `when`.
  /// `when` must not be in the past relative to now().
  EventId schedule_at(TimeNs when, std::function<void()> fn) {
    const EventId id = push(when, seq_, std::move(fn));
    ++seq_;  // only once pushed: a rejected event takes no place
    return id;
  }

  /// A place in line held for a later schedule_at(Place, ...).
  struct Place {
    uint64_t seq = 0;    // the sequence number the event will carry
    uint64_t fired = 0;  // fired() at the reservation
  };

  /// Reserve the place in line a schedule_at() issued now would take.
  /// Each place is for one schedule_at(Place, ...) in the same event.
  Place reserve_place() { return {seq_++, fired_}; }

  /// Schedule `fn` at `when` in a place reserved earlier: among events at
  /// `when` it fires as if scheduled at the reservation. Throws
  /// InvariantError when an event has fired since the reservation.
  EventId schedule_at(Place place, TimeNs when, std::function<void()> fn) {
    SGDRC_CHECK(place.fired == fired_,
                "an event fired since this place was reserved");
    return push(when, place.seq, std::move(fn));
  }

  /// Schedule `fn` to fire `delay` after the current time.
  EventId schedule_after(TimeNs delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown id is a no-op (returns false). O(1) via tombstones: the
  /// slot is recycled now; the heap entry fails the generation check when
  /// it surfaces and is dropped.
  bool cancel(EventId id) {
    if (!is_pending(id)) return false;
    retire(static_cast<uint32_t>(id));
    --live_;
    return true;
  }

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live pending events.
  size_t pending() const { return live_; }

  /// Bookkeeping slots allocated (peak concurrent pending events over the
  /// queue's lifetime) — observability for the memory-boundedness tests.
  size_t slot_count() const { return slots_.size(); }

  TimeNs now() const { return now_; }

  /// Heap pushes (schedule_at calls) over the queue's lifetime.
  uint64_t pushes() const { return pushes_; }
  /// Events fired over the queue's lifetime.
  uint64_t fired() const { return fired_; }
  /// Cancelled heap entries dropped when they surfaced.
  uint64_t tombstones_popped() const { return tombstones_popped_; }

  /// Manually advance the clock with no events (e.g. idle gaps driven by an
  /// outer simulation). Must not go backwards.
  void advance_to(TimeNs t) {
    SGDRC_CHECK(t >= now_, "clock cannot go backwards");
    now_ = t;
  }

  /// Pop and run the earliest live event; advances now(). Returns false
  /// when the queue is empty.
  bool run_next() {
    if (!live_top()) return false;
    fire_top();
    return true;
  }

  /// Run events until the queue drains or `until` is reached (events at
  /// exactly `until` still fire). Returns the number of events fired.
  size_t run_until(TimeNs until) {
    size_t fired = 0;
    for (; live_top() && heap_.top().when <= until; ++fired) fire_top();
    now_ = std::max(now_, until);
    return fired;
  }

  /// Timestamp of the earliest live event, or nullopt when none remain.
  /// Non-const: cancelled tombstones surfacing at the top are dropped so
  /// the answer reflects a *live* event. The sharded fleet engine peeks
  /// every shard to compute the next conservative time window.
  std::optional<TimeNs> peek_next_time() {
    if (!live_top()) return std::nullopt;
    return heap_.top().when;
  }

  /// Run events strictly before `until` (events at exactly `until` stay
  /// pending), then advance the clock to `until`. This is the shard-side
  /// half of a conservative time-window barrier: a shard may safely run
  /// everything *before* the next cross-shard event, while same-timestamp
  /// events wait for the canonical fleet-before-device turn. Returns the
  /// number of events fired.
  size_t run_until_before(TimeNs until) {
    size_t fired = 0;
    for (; live_top() && heap_.top().when < until; ++fired) fire_top();
    now_ = std::max(now_, until);
    return fired;
  }

  /// Drain the whole queue.
  size_t run_all() {
    size_t fired = 0;
    while (run_next()) ++fired;
    return fired;
  }

 private:
  struct Slot {
    uint32_t generation = 1;  // 0 is reserved for EventId{}
    bool pending = false;
  };

  struct Entry {
    TimeNs when;
    uint64_t seq;  // monotone issue order: stable FIFO within a timestamp
    EventId id;
    std::function<void()> fn;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  EventId push(TimeNs when, uint64_t seq, std::function<void()> fn) {
    SGDRC_CHECK(when >= now_, "scheduling an event in the past");
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back({});
    }
    slots_[slot].pending = true;
    const EventId id =
        (static_cast<uint64_t>(slots_[slot].generation) << 32) | slot;
    heap_.push(Entry{when, seq, id, std::move(fn)});
    ++live_;
    ++pushes_;
    return id;
  }

  /// Drop cancelled tombstones from the top; true when a live event is
  /// left there.
  bool live_top() {
    for (; !heap_.empty(); heap_.pop(), ++tombstones_popped_) {
      if (is_pending(heap_.top().id)) return true;
    }
    return false;
  }

  /// Pop and run the live event on top.
  void fire_top() {
    Entry e = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = e.when;
    retire(static_cast<uint32_t>(e.id));
    --live_;
    ++fired_;
    e.fn();
  }

  bool is_pending(EventId id) const {
    const uint32_t slot = static_cast<uint32_t>(id);
    return slot < slots_.size() && slots_[slot].pending &&
           slots_[slot].generation == static_cast<uint32_t>(id >> 32);
  }

  /// Free a slot for reuse; the bumped generation invalidates stale ids.
  void retire(uint32_t slot) {
    slots_[slot].pending = false;
    if (++slots_[slot].generation == 0) slots_[slot].generation = 1;
    free_.push_back(slot);
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  TimeNs now_ = 0;
  uint64_t seq_ = 0;
  size_t live_ = 0;
  uint64_t pushes_ = 0;
  uint64_t fired_ = 0;
  uint64_t tombstones_popped_ = 0;
};

}  // namespace sgdrc::reference
