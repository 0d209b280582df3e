// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own code, around calls into
// the library's public functions (a controller's plan(), a router's
// route(), one EventQueue::run_next(), a placement, a whole cell). Each
// span has a name, host start/end, a parent (the span open when it
// started) and the id of the simulation cell it belongs to. Spans live in
// memory and are written out once, at exit, as Chrome trace-event JSON
// (opens in Perfetto or chrome://tracing).
//
// A span's self time is its duration minus the time covered by its child
// spans. Spans nest strictly (one thread, stack discipline), so children
// never overlap and "covered" is the sum of child durations.
//
// Hot-path spans (one per event, plan or route call) are opened as
// *units* and sampled: one unit in `stride` is recorded with everything
// nested in it, the others record nothing. Memory stays bounded on runs
// with millions of events while every recorded span keeps its children,
// so self times stay exact.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t name = 0;    // interned name id
  uint32_t parent = 0;  // index + 1 of the enclosing span; 0 = root
  uint32_t cell = 0;    // simulation cell the span belongs to
  int64_t start = 0;    // host ns
  int64_t end = 0;      // host ns; equals start while still open
};

class SpanRecorder {
 public:
  /// Returned by open*() when the span is not recorded.
  static constexpr size_t kSkipped = std::numeric_limits<size_t>::max();

  /// Id of `name`, interning it on first use.
  uint32_t intern(std::string_view name);

  /// Cell id stamped on spans opened from now on.
  void set_cell(uint32_t cell) { cell_ = cell; }
  /// Record one top-level unit in `stride` (1 = all).
  void set_unit_stride(uint64_t stride) { stride_ = stride ? stride : 1; }
  uint64_t unit_stride() const { return stride_; }

  /// Open a span as a child of the innermost open span; returns its index
  /// (kSkipped inside a unit that is not recorded).
  size_t open(uint32_t name) { return open_at(name, host_ns()); }
  size_t open_at(uint32_t name, int64_t start);
  /// Open a sampled unit. Nested in a recorded unit it is recorded like
  /// open(); otherwise one call in `stride` is recorded and the rest are
  /// skipped together with everything opened inside them.
  size_t open_unit(uint32_t name) { return open_unit_at(name, host_ns()); }
  size_t open_unit_at(uint32_t name, int64_t start);
  /// Close span `index`, and any span still open inside it (an exception
  /// inside a forwarded call skips that call's close).
  void close(size_t index) { close_at(index, host_ns()); }
  void close_at(size_t index, int64_t end);

  const std::vector<Span>& spans() const { return spans_; }
  size_t open_depth() const { return stack_.size(); }
  /// Units opened but not recorded.
  uint64_t skipped_units() const { return skipped_units_; }

  /// Self time of every span, index-aligned with spans(): its duration
  /// minus the summed durations of its direct children.
  std::vector<int64_t> self_times() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times
  /// relative to the first span). args carry id, parent and cell.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct Frame {
    size_t index;
    bool unit;
  };
  size_t push(uint32_t name, int64_t start, bool unit);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  uint32_t cell_ = 0;
  uint64_t stride_ = 1;
  uint64_t unit_calls_ = 0;
  uint64_t skipped_units_ = 0;
  size_t skip_depth_ = 0;  // open spans inside a skipped unit (incl. it)
  size_t unit_depth_ = 0;  // recorded units currently open
};

/// RAII span; a null recorder makes it a no-op, so untraced runs pay one
/// branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, uint32_t name, bool unit = false)
      : rec_(rec),
        index_(!rec    ? SpanRecorder::kSkipped
               : unit ? rec->open_unit(name)
                      : rec->open(name)) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  size_t index_;
};

}  // namespace perfbench
