// Cross-check of the library GpuExecutor (occupancy tables, one pending
// completion event) against the test-only reference in
// reference_executor.h (a rescan per TPC and channel, one completion
// event per kernel). Seeded scripts mix launches and evictions; before
// each action the runner pushes probe events at the next few completion
// and eviction times of a reference pre-run. Both executors must log the
// same completions and evictions at the same times, interleaved the same
// way with the probes, so a completion event that fires at a different
// point among same-timestamp events than the reference's fails here.
// Each probe also logs every running kernel's rate bit for bit, so a
// table that drifts by one ulp fails even where rounding to whole
// nanoseconds hides it from the due times.
// The burst scripts run 1–4 actions per step, so one completion or
// eviction callback launches and evicts several times, with probe events
// pushed between the changes: the library executor's one recompute per
// callback must keep the place of the reference's last re-push.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "common/rng.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"
#include "reference_executor.h"

namespace sgdrc::gpusim {
namespace {

/// Salts of the script generator's seed streams: one action per step,
/// and bursts of 1–4 actions per step.
constexpr uint64_t kExecutorCrossCheckSalt = 0xc7055c4ecull;
constexpr uint64_t kExecutorCallbackBurstSalt = 0xca11b0257ull;

constexpr size_t kScriptsPerGpu = 24;
constexpr size_t kActionsPerScript = 160;
constexpr size_t kProbesPerAction = 3;

struct Action {
  bool evict = false;
  // Run inside the next completion or eviction callback (as the serving
  // layer launches follow-on kernels) instead of `gap` after the previous
  // action. Falls back to `gap` when nothing is running.
  bool on_callback = false;
  TimeNs gap = 0;
  size_t kernel = 0;  // launch: index into Script::kernels
  TpcMask tpc_mask = 0;
  ChannelSet channels = 0;
  size_t victim = 0;  // evict: index (mod count) into preemptible launches
  // Actions run in the same step: this one and the next burst - 1.
  size_t burst = 1;
};

struct Script {
  std::vector<KernelDesc> kernels;
  std::vector<Action> actions;
};

Script make_script(const GpuSpec& spec, uint64_t index, bool bursts) {
  const uint64_t salt =
      bursts ? kExecutorCallbackBurstSalt : kExecutorCrossCheckSalt;
  Rng rng(splitmix64(salt + kGoldenSeedStride * index));
  Script s;
  for (int i = 0; i < 12; ++i) {
    KernelDesc k;
    k.name = "k" + std::to_string(i);
    // Solo runtime on the whole device between 5 µs and 400 µs.
    const double solo_ns = 5e3 + rng.uniform() * 395e3;
    k.flops = static_cast<uint64_t>(solo_ns * spec.peak_tflops * 1e3 *
                                    (0.2 + rng.uniform()));
    // Half compute-only, half moving bytes (some memory-bound).
    k.bytes = rng.uniform() < 0.5
                  ? 0
                  : static_cast<uint64_t>(solo_ns * spec.vram_gbps *
                                          (0.2 + rng.uniform()));
    k.blocks = static_cast<unsigned>(rng.uniform_int(1, 4096));
    k.max_useful_tpcs =
        rng.uniform() < 0.5
            ? 1e9
            : static_cast<double>(rng.uniform_int(1, spec.num_tpcs));
    k.spt_transformed = rng.uniform() < 0.3;
    k.preemptible = rng.uniform() < 0.5;
    s.kernels.push_back(k);
  }
  for (size_t i = 0; i < kActionsPerScript; ++i) {
    Action a;
    a.evict = rng.uniform() < 0.25;
    a.on_callback = rng.uniform() < 0.3;
    a.gap = rng.uniform() < 0.15 ? 0 : rng.uniform_int(1, 100'000);
    a.kernel = rng.uniform_u64(s.kernels.size());
    if (rng.uniform() >= 0.25) {  // else 0: every TPC
      const unsigned count =
          static_cast<unsigned>(rng.uniform_int(1, spec.num_tpcs));
      const unsigned first = static_cast<unsigned>(
          rng.uniform_int(0, spec.num_tpcs - count));
      a.tpc_mask = tpc_range(first, count);
    }
    const double ch = rng.uniform();
    if (ch < 0.4) {  // a contiguous run of channels
      const unsigned count =
          static_cast<unsigned>(rng.uniform_int(1, spec.num_channels));
      const unsigned first = static_cast<unsigned>(
          rng.uniform_int(0, spec.num_channels - count));
      for (unsigned c = first; c < first + count; ++c) {
        a.channels |= channel_bit(c);
      }
    } else if (ch < 0.75) {  // any non-empty subset
      a.channels = static_cast<ChannelSet>(
          rng.uniform_u64(all_channels(spec.num_channels)) + 1);
    }  // else 0: every channel
    a.victim = rng.uniform_u64(1u << 16);
    if (bursts) a.burst = rng.uniform_u64(4) + 1;
    s.actions.push_back(a);
  }
  return s;
}

/// An action's launch record for each executor. Scripts use the
/// reference's encoding, where 0 means every TPC / channel; the library
/// spells that Allocation::all().
reference::KernelLaunch launch_record(const reference::GpuExecutor&,
                                      const KernelDesc& k, const Action& a) {
  return {&k, a.tpc_mask, a.channels};
}
KernelLaunch launch_record(const GpuExecutor&, const KernelDesc& k,
                           const Action& a) {
  constexpr Allocation kAll = Allocation::all();
  return {&k, {a.tpc_mask ? a.tpc_mask : kAll.tpcs,
               a.channels ? a.channels : kAll.channels}};
}

/// Runs a script on one executor and logs, in firing order:
/// "C<id>@<t>" completions, "E<id>@<t>" evictions, "e<id>:<accepted>"
/// evict calls, "L<id>@<t>" launches, and "P<n>@<t>" probes, each
/// followed by one "r<bits>" per running kernel in LaunchId order: the
/// hex bit pattern of its rate.
template <class Executor>
class ScriptRunner {
 public:
  ScriptRunner(const GpuSpec& spec, const Script& script,
               std::vector<TimeNs> probe_times)
      : exec_(spec, q_), script_(script), probes_(std::move(probe_times)) {}

  std::vector<std::string> run() {
    q_.schedule_at(0, [this] { step(); });
    q_.run_all();
    EXPECT_EQ(next_, script_.actions.size()) << "script stalled";
    EXPECT_EQ(exec_.running_count(), 0u);
    return log_;
  }

  /// Callbacks whose step launched or evicted at least twice.
  size_t multi_change_callbacks() const { return multi_change_callbacks_; }

  /// Rates logged by probes.
  size_t rates_compared() const { return rates_compared_; }

  /// Completion and eviction times, sorted: the probe times for a run.
  std::vector<TimeNs> event_times() const {
    std::vector<TimeNs> out = event_times_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void note(char tag, uint64_t id) {
    log_.push_back(tag + std::to_string(id) + "@" +
                   std::to_string(q_.now()));
  }

  void on_event(char tag, uint64_t id, TimeNs t) {
    EXPECT_EQ(t, q_.now());
    note(tag, id);
    event_times_.push_back(t);
    if (armed_) {
      armed_ = false;
      multi_change_callbacks_ += step() >= 2;
    }
  }

  void probe(uint64_t n) {
    note('P', n);
    for (const auto& info : exec_.running_infos()) {
      char bits[20];
      std::snprintf(bits, sizeof bits, "r%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<uint64_t>(info.rate)));
      log_.push_back(bits);
      ++rates_compared_;
    }
  }

  void push_probes() {
    auto it = std::lower_bound(probes_.begin(), probes_.end(), q_.now());
    for (size_t i = 0; i < kProbesPerAction && it != probes_.end();
         ++i, ++it) {
      const uint64_t n = probe_count_++;
      q_.schedule_at(*it, [this, n] { probe(n); });
    }
  }

  /// Runs the next action and the rest of its burst; returns how many
  /// launched or had an eviction accepted.
  size_t step() {
    size_t changes = 0;
    for (size_t i = script_.actions[next_].burst;
         i > 0 && next_ < script_.actions.size(); --i) {
      changes += act(script_.actions[next_++]);
    }
    if (next_ == script_.actions.size()) return changes;
    const Action& b = script_.actions[next_];
    if (b.on_callback && exec_.running_count() > 0) {
      armed_ = true;
    } else {
      q_.schedule_after(b.gap, [this] { step(); });
    }
    return changes;
  }

  bool act(const Action& a) {
    push_probes();
    if (a.evict) {
      if (preemptible_.empty()) return false;
      const uint64_t id = preemptible_[a.victim % preemptible_.size()];
      const bool accepted = exec_.evict(
          id, [this](uint64_t lid, TimeNs t) { on_event('E', lid, t); });
      log_.push_back("e" + std::to_string(id) + ":" +
                     std::to_string(accepted));
      return accepted;
    }
    const KernelDesc& k = script_.kernels[a.kernel];
    const uint64_t id = exec_.launch(
        launch_record(exec_, k, a),
        [this](uint64_t lid, TimeNs t) { on_event('C', lid, t); });
    note('L', id);
    if (k.preemptible) preemptible_.push_back(id);
    return true;
  }

  EventQueue q_;
  Executor exec_;
  const Script& script_;
  std::vector<TimeNs> probes_;
  std::vector<std::string> log_;
  std::vector<TimeNs> event_times_;
  std::vector<uint64_t> preemptible_;
  size_t next_ = 0;
  uint64_t probe_count_ = 0;
  size_t multi_change_callbacks_ = 0;
  size_t rates_compared_ = 0;
  bool armed_ = false;
};

struct Coverage {
  size_t completions = 0;
  size_t evictions = 0;
  size_t probe_ties = 0;  // completions at the latest probe's time
  size_t multi_change_callbacks = 0;
  size_t rates = 0;  // running kernels' rates logged by probes
};

void cross_check(const GpuSpec& spec, uint64_t salt_base,
                 bool bursts = false) {
  Coverage cov;
  for (uint64_t i = 0; i < kScriptsPerGpu; ++i) {
    const Script script = make_script(spec, salt_base + i, bursts);
    ScriptRunner<reference::GpuExecutor> pre(spec, script, {});
    pre.run();
    const std::vector<TimeNs> probes = pre.event_times();

    const auto want =
        ScriptRunner<reference::GpuExecutor>(spec, script, probes).run();
    ScriptRunner<GpuExecutor> lib(spec, script, probes);
    const auto got = lib.run();
    ASSERT_EQ(got, want) << spec.name << " script " << i;
    cov.multi_change_callbacks += lib.multi_change_callbacks();
    cov.rates += lib.rates_compared();

    std::string last_time;
    for (const std::string& e : want) {
      const std::string at = e.substr(e.find('@') + 1);
      cov.completions += e[0] == 'C';
      cov.evictions += e[0] == 'E';
      cov.probe_ties += e[0] == 'C' && at == last_time;
      if (e[0] == 'P') last_time = at;
    }
  }
  // The scripts must reach the cases the check exists for.
  EXPECT_GT(cov.completions, kScriptsPerGpu * 50) << spec.name;
  EXPECT_GT(cov.evictions, kScriptsPerGpu * 2) << spec.name;
  EXPECT_GT(cov.probe_ties, kScriptsPerGpu * 10) << spec.name;
  EXPECT_GT(cov.rates, kScriptsPerGpu * 5000) << spec.name;
  if (bursts) {
    EXPECT_GT(cov.multi_change_callbacks, kScriptsPerGpu * 10) << spec.name;
  }
}

TEST(ExecutorCrossCheck, MatchesReferenceOnTestGpu) {
  cross_check(test_gpu(), 0);
}

TEST(ExecutorCrossCheck, MatchesReferenceOnRtxA2000) {
  cross_check(rtx_a2000(), 1000);
}

TEST(ExecutorCrossCheck, MatchesReferenceOnA100) {
  cross_check(a100_sxm4(), 2000);
}

TEST(ExecutorCrossCheck, CallbackBurstsMatchReferenceOnTestGpu) {
  cross_check(test_gpu(), 0, /*bursts=*/true);
}

TEST(ExecutorCrossCheck, CallbackBurstsMatchReferenceOnRtxA2000) {
  cross_check(rtx_a2000(), 1000, /*bursts=*/true);
}

TEST(ExecutorCrossCheck, CallbackBurstsMatchReferenceOnA100) {
  cross_check(a100_sxm4(), 2000, /*bursts=*/true);
}

}  // namespace
}  // namespace sgdrc::gpusim
