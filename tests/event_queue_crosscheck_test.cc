// Cross-check of the library EventQueue (heap of plain (when, seq, id)
// keys, closures in the slot table) against the test-only reference in
// reference_event_queue.h (closures carried in the heap entries). Seeded
// scripts drive both queues through the same calls: schedule_at and
// schedule_after, reserved places, cancels of live, fired and stale ids
// and of EventId{}, run_next, run_until, run_until_before,
// peek_next_time and advance_to, rejected pushes, and events whose
// closures schedule, reserve and cancel while they fire. Each closure
// logs its captures after those actions, and some are large enough that
// std::function stores them on the heap, so a closure that lost its
// captures to a push into its own slot fails here too. Both queues must
// log the same fired order,
// the same returned ids and results, and after every step the same
// now(), pending(), slot_count() and work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "reference_event_queue.h"

namespace sgdrc {
namespace {

/// Salt of the script generator's seed stream.
constexpr uint64_t kEventQueueCrossCheckSalt = 0xe7e9c05ull;

constexpr size_t kScripts = 48;
constexpr size_t kStepsPerScript = 300;

/// Runs one seeded script on queue type Q and returns its log. Every
/// decision is drawn from the script's own Rng, and a draw only ever
/// depends on values the log records, so two queues that agree on the
/// log so far make the same next call.
template <typename Q>
class ScriptRunner {
 public:
  explicit ScriptRunner(uint64_t index)
      : rng_(splitmix64(kEventQueueCrossCheckSalt +
                        kGoldenSeedStride * (index + 1))) {}

  std::vector<std::string> run() {
    for (size_t step = 0; step < kStepsPerScript; ++step) {
      act(/*inside=*/false);
      note_state();
    }
    note("drain " + std::to_string(q_.run_all()));
    note_state();
    return log_;
  }

 private:
  void note(const std::string& s) { log_.push_back(s); }

  void note_state() {
    note("now " + std::to_string(q_.now()) + " pending " +
         std::to_string(q_.pending()) + " empty " +
         std::to_string(q_.empty()) + " slots " +
         std::to_string(q_.slot_count()) + " pushes " +
         std::to_string(q_.pushes()) + " fired " +
         std::to_string(q_.fired()) + " tombstones " +
         std::to_string(q_.tombstones_popped()));
  }

  /// A delay with many ties: a third land on now().
  TimeNs delay() {
    return rng_.bernoulli(0.33) ? 0 : 1 + rng_.uniform_u64(40);
  }

  /// The closure for a new event: logs its tag when it fires, sometimes
  /// acts on the queue from inside, then logs its captures again. A
  /// closure whose slot an inner push reused must still hold them.
  std::function<void()> closure() {
    const uint64_t tag = next_tag_++;
    if (rng_.bernoulli(0.5)) {
      // Two words: stored inside the std::function.
      return [this, tag] {
        fire(tag);
        note("payload " + std::to_string(tag));
      };
    }
    // Five words: std::function stores it on the heap.
    const std::array<uint64_t, 4> payload{tag, tag * 3, tag * 5, tag * 7};
    return [this, tag, payload] {
      fire(tag);
      note("payload " + std::to_string(tag) + " " +
           std::to_string(payload[0] + payload[1] + payload[2] + payload[3]));
    };
  }

  void fire(uint64_t tag) {
    note("fire " + std::to_string(tag) + " @" + std::to_string(q_.now()));
    // Nested actions stay shallow so scripts do not grow without bound.
    if (!nested_ && rng_.bernoulli(0.4)) {
      nested_ = true;
      note("nested");
      act(/*inside=*/true);
      nested_ = false;
    }
  }

  void remember(EventId id) {
    note("id " + std::to_string(id));
    ids_.push_back(id);
  }

  /// An id to cancel: any id returned so far (live, fired or stale), or
  /// sometimes EventId{} or one never issued.
  EventId pick_id() {
    const uint64_t r = rng_.uniform_u64(10);
    if (r == 0 || ids_.empty()) return EventId{};
    if (r == 1) return (uint64_t{7} << 32) | 100000;  // never issued
    return ids_[rng_.uniform_u64(ids_.size())];
  }

  void act(bool inside) {
    // Queue-running calls are not made from inside a firing closure.
    const uint64_t kinds = inside ? 6 : 12;
    switch (rng_.uniform_u64(kinds)) {
      case 0:
      case 1:
        remember(q_.schedule_at(q_.now() + delay(), closure()));
        break;
      case 2:
        remember(q_.schedule_after(delay(), closure()));
        break;
      case 3: {
        // A reserved place, events scheduled in between, then the push
        // at the place, all within this event.
        const auto place = q_.reserve_place();
        const uint64_t between = rng_.uniform_u64(3);
        for (uint64_t i = 0; i < between; ++i) {
          remember(q_.schedule_at(q_.now() + delay(), closure()));
        }
        remember(q_.schedule_at(place, q_.now() + delay(), closure()));
        break;
      }
      case 4:
      case 5: {
        const EventId id = pick_id();
        note("cancel " + std::to_string(id) + " " +
             std::to_string(q_.cancel(id)));
        break;
      }
      case 6:
        note("run_next " + std::to_string(q_.run_next()));
        break;
      case 7:
        note("run_until " + std::to_string(q_.run_until(q_.now() + delay())));
        break;
      case 8:
        note("run_until_before " +
             std::to_string(q_.run_until_before(q_.now() + delay())));
        break;
      case 9: {
        const std::optional<TimeNs> t = q_.peek_next_time();
        note("peek " + (t ? std::to_string(*t) : std::string("none")));
        break;
      }
      case 10: {
        // Never past the next event, so the clock only moves forward.
        const std::optional<TimeNs> t = q_.peek_next_time();
        TimeNs to = q_.now() + delay();
        if (t && *t < to) to = *t;
        q_.advance_to(to);
        note("advance " + std::to_string(to));
        break;
      }
      case 11: {
        // Rejected pushes change nothing: one in the past, and one at a
        // place an event has fired since.
        const auto place = q_.reserve_place();
        const bool fired = q_.run_next();
        if (q_.now() > 0) expect_rejected(q_.now() - 1, std::nullopt);
        if (fired) expect_rejected(q_.now(), place);
        note("rejected after " + std::to_string(fired));
        break;
      }
    }
  }

  void expect_rejected(TimeNs when,
                       std::optional<typename Q::Place> place) {
    try {
      if (place) {
        q_.schedule_at(*place, when, [] {});
      } else {
        q_.schedule_at(when, [] {});
      }
      note("accepted");
    } catch (const std::exception&) {
      note("threw");
    }
  }

  Q q_;
  Rng rng_;
  std::vector<EventId> ids_;
  std::vector<std::string> log_;
  uint64_t next_tag_ = 0;
  bool nested_ = false;  // inside a closure's actions
};

void expect_same_log(const std::vector<std::string>& lib,
                     const std::vector<std::string>& ref, size_t script) {
  const size_t n = std::min(lib.size(), ref.size());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lib[i], ref[i]) << "script " << script << ", entry " << i;
  }
  ASSERT_EQ(lib.size(), ref.size()) << "script " << script;
}

TEST(EventQueueCrossCheck, SeededScriptsMatchTheReference) {
  // Every kind of call and result shows up across the scripts, actions
  // from inside firing closures included, so the comparison is not
  // vacuous.
  const std::vector<std::string> kinds = {
      "fire ",     "nested",    "payload ", "id ",     "cancel ",
      "run_next ", "run_until ", "peek ",    "advance ", "run_until_before ",
      "threw",     "drain "};
  std::vector<size_t> seen(kinds.size(), 0);
  size_t cancels_hit = 0, cancels_missed = 0;
  for (size_t s = 0; s < kScripts; ++s) {
    const auto lib = ScriptRunner<EventQueue>(s).run();
    const auto ref = ScriptRunner<reference::EventQueue>(s).run();
    expect_same_log(lib, ref, s);
    if (HasFatalFailure()) return;
    for (const auto& line : lib) {
      for (size_t k = 0; k < kinds.size(); ++k) {
        seen[k] += line.rfind(kinds[k], 0) == 0;
      }
      if (line.rfind("cancel ", 0) == 0) {
        ++(line.back() == '1' ? cancels_hit : cancels_missed);
      }
    }
  }
  for (size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_GT(seen[k], 0u) << kinds[k];
  }
  EXPECT_GT(seen[0], kScripts * 100);  // thousands of events fire
  EXPECT_GT(cancels_hit, 0u);
  EXPECT_GT(cancels_missed, 0u);
}

}  // namespace
}  // namespace sgdrc
