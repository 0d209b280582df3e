// Debug-build shard-ownership race detector for the sharded fleet
// engine (docs/fleet-engine.md).
//
// The engine's concurrency contract is structural: inside a
// conservative time window exactly one worker thread drives a device
// shard (ServingSim::run_shard_until*), and everything that crosses
// shards is a timestamped message scheduled by the main thread
// *between* windows. Nothing in the type system enforces that — a
// future refactor could call inject() from a shard callback of another
// device and the result would be a silent determinism bug long before
// TSan happens to interleave the race.
//
// ShardGuard turns the contract into an assertion. Each ServingSim owns
// one guard; the shard-driving entry points claim it for the duration
// of a window (WindowScope), and every mutating entry point asserts
// that the calling thread either holds the claim (a worker inside its
// own window) or that no claim is held (the engine's main thread
// between windows). A violation prints both thread ids and the entry
// point name, then aborts — loudly, in the test run that introduced
// the bug.
//
// Arming: checks are compiled in unconditionally but dormant (one
// relaxed atomic load per entry point) until armed, either
//   * at run time    — set the SGDRC_DEBUG_OWNERSHIP environment
//     variable to anything but "0" (how the `fleet_parallel_guarded`
//     ctest arms the stock test matrix), or
//   * programmatically — ShardGuard::arm_process() (the deliberate-
//     violation death tests).
// Arming only adds aborts; it never changes a result, which is why this
// is the one environment read the library makes.
//
// TSan-friendliness: the guard's atomics use memory_order_relaxed
// throughout, deliberately. Acquire/release ordering here would create
// happens-before edges between the racing threads and *hide the very
// races from TSan that this guard exists to surface* — the guard
// observes, it must never synchronize. The engine's real
// happens-before (the pool's submit/wait_idle pair) is unaffected.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace sgdrc {

class ShardGuard {
 public:
  /// True when ownership checking is active for this process.
  static bool armed() { return armed_flag().load(std::memory_order_relaxed); }

  /// Arm checking for the rest of the process (tests; idempotent).
  static void arm_process() {
    armed_flag().store(true, std::memory_order_relaxed);
  }

  /// A worker (or the serial engine's main thread) takes exclusive
  /// ownership of the shard for one window. Claiming a shard another
  /// thread currently owns is a violation: two workers are inside the
  /// same shard's window.
  void claim(const char* what) {
    if (!armed()) return;
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // unowned
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
      if (expected != self) violation(what, expected);
    }
    ++depth_;  // same-thread re-entry is benign (nested window drains)
  }

  /// Release the window's claim (same thread that claimed).
  void release() {
    if (!armed()) return;
    const std::thread::id self = std::this_thread::get_id();
    const std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner != self) violation("release", owner);
    if (--depth_ == 0) {
      owner_.store(std::thread::id{}, std::memory_order_relaxed);
    }
  }

  /// Assert the calling thread may mutate the shard right now: it holds
  /// the claim (worker inside its own window), or no claim is held (the
  /// engine's main thread between windows). A foreign claim means some
  /// other thread is mid-window in this shard — a cross-thread mutation
  /// race, the exact bug class behind PR 5's device-0 hot-spotting.
  void assert_mutable(const char* what) const {
    if (!armed()) return;
    const std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner != std::thread::id{} && owner != std::this_thread::get_id()) {
      violation(what, owner);
    }
  }

  /// RAII claim for the shard-driving entry points.
  class WindowScope {
   public:
    WindowScope(ShardGuard& g, const char* what) : g_(g) { g_.claim(what); }
    ~WindowScope() { g_.release(); }
    WindowScope(const WindowScope&) = delete;
    WindowScope& operator=(const WindowScope&) = delete;

   private:
    ShardGuard& g_;
  };

 private:
  static std::atomic<bool>& armed_flag() {
    static std::atomic<bool> armed{[] {
      // sgdrc-lint: allow(env-read) — arming only adds aborts.
      const char* env = std::getenv("SGDRC_DEBUG_OWNERSHIP");
      return env != nullptr && *env != '\0' &&
             !(env[0] == '0' && env[1] == '\0');
    }()};
    return armed;
  }

  [[noreturn]] static void violation(const char* what, std::thread::id owner) {
    char self_buf[32], owner_buf[32];
    format_tid(self_buf, sizeof(self_buf), std::this_thread::get_id());
    format_tid(owner_buf, sizeof(owner_buf), owner);
    std::fprintf(stderr,
                 "SGDRC shard-ownership violation in %s: thread %s touched "
                 "a shard claimed by thread %s (cross-thread mutation "
                 "inside a window — see docs/determinism.md)\n",
                 what, self_buf, owner_buf);
    std::abort();
  }

  static void format_tid(char* buf, size_t n, std::thread::id tid) {
    // std::thread::id has no portable integer view; hash it for display.
    std::snprintf(buf, n, "%zx", std::hash<std::thread::id>{}(tid));
  }

  std::atomic<std::thread::id> owner_{};
  /// Same-thread claim nesting depth; only ever touched by the owning
  /// thread between claim() and release(), so a plain int is race-free.
  int depth_ = 0;
};

}  // namespace sgdrc
