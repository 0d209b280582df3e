// Tests for the kernel-level discrete-event executor: roofline math,
// processor sharing, interference terms, isolation, and Reef-style
// eviction/restart semantics.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "common/event_queue.h"
#include "gpusim/executor.h"
#include "gpusim/gpu_spec.h"

namespace sgdrc::gpusim {
namespace {

// test_gpu: 4 TPCs, 2 TFLOPS (500 flops/ns/TPC), 100 GB/s (25 B/ns/chan),
// 4 channels.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(test_gpu(), q_) {}

  KernelDesc compute_kernel(double ms, double useful_tpcs = 1e9) {
    KernelDesc k;
    k.name = "comp";
    k.flops = static_cast<uint64_t>(ms * 1e6 * 2000);  // full GPU: ms
    k.bytes = 0;
    k.blocks = 1u << 16;  // huge grid: occupancy does not cap parallelism
    k.max_useful_tpcs = useful_tpcs;
    return k;
  }

  KernelDesc memory_kernel(double ms) {
    KernelDesc k;
    k.name = "mem";
    k.flops = 1000;  // negligible
    k.bytes = static_cast<uint64_t>(ms * 1e6 * 100);  // full BW: ms
    k.blocks = 1u << 16;
    k.max_useful_tpcs = 1e9;
    return k;
  }

  TimeNs run_to_completion(const KernelLaunch& l) {
    TimeNs done = 0;
    exec_.launch(l, [&](GpuExecutor::LaunchId, TimeNs t) { done = t; });
    q_.run_all();
    return done;
  }

  EventQueue q_;
  GpuExecutor exec_;
};

TEST_F(ExecutorTest, SoloComputeKernelMatchesClosedForm) {
  const KernelDesc k = compute_kernel(1.0);
  const TimeNs start = q_.now();
  const TimeNs done = run_to_completion({&k});
  EXPECT_EQ(done - start, exec_.solo_runtime(k, 4, 4, false));
  EXPECT_NEAR(to_ms(done - start), 1.0, 0.01);
}

TEST_F(ExecutorTest, SoloMemoryKernelMatchesClosedForm) {
  const KernelDesc k = memory_kernel(2.0);
  const TimeNs done = run_to_completion({&k});
  EXPECT_EQ(done, exec_.solo_runtime(k, 4, 4, false));
  EXPECT_NEAR(to_ms(done), 2.0, 0.01);
}

TEST_F(ExecutorTest, ComputeScalesWithTpcsUntilCap) {
  const KernelDesc k = compute_kernel(1.0, /*useful_tpcs=*/2.0);
  const TimeNs t1 = exec_.solo_runtime(k, 1, 4, false);
  const TimeNs t2 = exec_.solo_runtime(k, 2, 4, false);
  const TimeNs t4 = exec_.solo_runtime(k, 4, 4, false);
  EXPECT_GT(t1, t2);
  EXPECT_EQ(t2, t4);  // saturated at min_tpcs = 2 (§7.1's SM_LS)
}

TEST_F(ExecutorTest, MemoryScalesWithChannels) {
  const KernelDesc k = memory_kernel(1.0);
  const TimeNs t4 = exec_.solo_runtime(k, 4, 4, false);
  const TimeNs t2 = exec_.solo_runtime(k, 4, 2, false);
  const TimeNs t1 = exec_.solo_runtime(k, 4, 1, false);
  EXPECT_GT(t2, t4);
  EXPECT_GT(t1, t2);
  // Halving channels at least halves bandwidth, plus the L2-shrink term.
  EXPECT_GT(t2, static_cast<TimeNs>(static_cast<double>(t4) * 1.9));
}

TEST_F(ExecutorTest, SptOverheadApplied) {
  KernelDesc k = memory_kernel(1.0);
  const TimeNs plain = exec_.solo_runtime(k, 4, 4, false);
  const TimeNs spt = exec_.solo_runtime(k, 4, 4, true);
  const double overhead = static_cast<double>(spt - plain) /
                          static_cast<double>(plain);
  EXPECT_NEAR(overhead, 0.029, 0.005);  // §9.1.2
}

TEST_F(ExecutorTest, FullOverlapComputeSharing) {
  // Two identical compute kernels sharing everything: each runs at
  // 1/(2(1+γ)) speed → 2.5× solo with γ=0.25.
  const KernelDesc k = compute_kernel(1.0);
  const TimeNs solo = exec_.solo_runtime(k, 4, 4, false);
  std::vector<TimeNs> done;
  for (int i = 0; i < 2; ++i) {
    exec_.launch({&k}, [&](GpuExecutor::LaunchId, TimeNs t) {
      done.push_back(t);
    });
  }
  q_.run_all();
  ASSERT_EQ(done.size(), 2u);
  const double gamma = exec_.params().intra_sm_gamma;
  const double expected = static_cast<double>(solo) * 2.0 * (1.0 + gamma);
  EXPECT_NEAR(static_cast<double>(done.back()), expected, expected * 0.02);
}

TEST_F(ExecutorTest, FullOverlapMemorySharing) {
  const KernelDesc k = memory_kernel(1.0);
  const TimeNs solo = exec_.solo_runtime(k, 4, 4, false);
  std::vector<TimeNs> done;
  for (int i = 0; i < 2; ++i) {
    exec_.launch({&k}, [&](GpuExecutor::LaunchId, TimeNs t) {
      done.push_back(t);
    });
  }
  q_.run_all();
  const double beta = exec_.params().inter_channel_beta;
  const double expected = static_cast<double>(solo) * 2.0 * (1.0 + beta);
  EXPECT_NEAR(static_cast<double>(done.back()), expected, expected * 0.02);
}

TEST_F(ExecutorTest, DisjointPartitionsGivePerfectIsolation) {
  // The core SGDRC property: disjoint TPC masks + disjoint channel sets
  // ⇒ co-running kernels behave exactly as if alone on their partitions.
  KernelDesc a = memory_kernel(1.0);
  a.max_useful_tpcs = 2.0;
  KernelDesc b = a;
  const TimeNs solo = exec_.solo_runtime(a, 2, 2, false);

  std::vector<TimeNs> done;
  exec_.launch({&a, {tpc_range(0, 2), 0b0011}},
               [&](GpuExecutor::LaunchId, TimeNs t) { done.push_back(t); });
  exec_.launch({&b, {tpc_range(2, 2), 0b1100}},
               [&](GpuExecutor::LaunchId, TimeNs t) { done.push_back(t); });
  q_.run_all();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0]), static_cast<double>(solo), 2.0);
  EXPECT_NEAR(static_cast<double>(done[1]), static_cast<double>(solo), 2.0);
}

TEST_F(ExecutorTest, ChannelOverlapHurtsOnlyMemoryBound) {
  // Disjoint TPCs, overlapping channels: Fig. 3b's inter-SM conflict.
  KernelDesc victim_mem = memory_kernel(1.0);
  victim_mem.max_useful_tpcs = 2.0;
  KernelDesc victim_comp = compute_kernel(1.0, 2.0);
  KernelDesc aggressor = memory_kernel(4.0);
  aggressor.max_useful_tpcs = 2.0;

  auto co_run = [&](const KernelDesc& victim) {
    EventQueue q;
    GpuExecutor exec(test_gpu(), q);
    TimeNs victim_done = 0;
    exec.launch({&aggressor, Allocation::on_tpcs(tpc_range(2, 2))},
                [](GpuExecutor::LaunchId, TimeNs) {});
    exec.launch({&victim, Allocation::on_tpcs(tpc_range(0, 2))},
                [&](GpuExecutor::LaunchId, TimeNs t) { victim_done = t; });
    q.run_all();
    return victim_done;
  };

  const TimeNs mem_solo = exec_.solo_runtime(victim_mem, 2, 4, false);
  const TimeNs comp_solo = exec_.solo_runtime(victim_comp, 2, 4, false);
  EXPECT_GT(co_run(victim_mem),
            static_cast<TimeNs>(static_cast<double>(mem_solo) * 1.5));
  EXPECT_LT(co_run(victim_comp),
            static_cast<TimeNs>(static_cast<double>(comp_solo) * 1.05));
}

TEST_F(ExecutorTest, InterferenceGrowsWithAggressorCount) {
  // Fig. 3's shape: victim latency increases monotonically with the
  // number of co-located interference tasks.
  KernelDesc victim = memory_kernel(0.5);
  victim.max_useful_tpcs = 1.0;
  KernelDesc aggressor = memory_kernel(10.0);
  aggressor.max_useful_tpcs = 1.0;

  TimeNs prev = 0;
  for (unsigned n = 0; n <= 3; ++n) {
    EventQueue q;
    GpuExecutor exec(test_gpu(), q);
    for (unsigned i = 0; i < n; ++i) {
      exec.launch({&aggressor, Allocation::on_tpcs(tpc_bit(1 + i))},
                  [](GpuExecutor::LaunchId, TimeNs) {});
    }
    TimeNs done = 0;
    exec.launch({&victim, Allocation::on_tpcs(tpc_bit(0))},
                [&](GpuExecutor::LaunchId, TimeNs t) { done = t; });
    q.run_all();
    EXPECT_GT(done, prev) << "aggressors=" << n;
    prev = done;
  }
}

TEST_F(ExecutorTest, RateChangeMidFlight) {
  // A runs alone for S/2, then B joins on the same resources; A's
  // completion reflects the slower second half.
  const KernelDesc k = compute_kernel(1.0);
  const double S = static_cast<double>(exec_.solo_runtime(k, 4, 4, false));
  TimeNs a_done = 0;
  exec_.launch({&k}, [&](GpuExecutor::LaunchId, TimeNs t) { a_done = t; });
  q_.schedule_at(static_cast<TimeNs>(S / 2), [&] {
    exec_.launch({&k}, [](GpuExecutor::LaunchId, TimeNs) {});
  });
  q_.run_all();
  const double slowdown = 2.0 * (1.0 + exec_.params().intra_sm_gamma);
  const double expected = S / 2 + (S / 2) * slowdown;
  EXPECT_NEAR(static_cast<double>(a_done), expected, expected * 0.02);
}

TEST_F(ExecutorTest, EvictionKillsAndLosesProgress) {
  KernelDesc be = compute_kernel(1.0);
  be.preemptible = true;
  bool completed = false, evicted = false;
  TimeNs evict_time = 0;
  const auto id = exec_.launch(
      {&be}, [&](GpuExecutor::LaunchId, TimeNs) { completed = true; });
  q_.schedule_at(from_ms(0.5), [&] {
    exec_.evict(id, [&](GpuExecutor::LaunchId, TimeNs t) {
      evicted = true;
      evict_time = t;
    });
  });
  q_.run_all();
  EXPECT_TRUE(evicted);
  EXPECT_FALSE(completed);
  EXPECT_EQ(evict_time, from_ms(0.5) + exec_.params().evict_latency);
  EXPECT_EQ(exec_.evictions(), 1u);
  EXPECT_EQ(exec_.running_count(), 0u);

  // Restart: full runtime again (progress was lost — §7.1).
  TimeNs done = 0;
  exec_.launch({&be}, [&](GpuExecutor::LaunchId, TimeNs t) { done = t; });
  q_.run_all();
  EXPECT_EQ(done - evict_time, exec_.solo_runtime(be, 4, 4, false));
}

TEST_F(ExecutorTest, EvictingNonPreemptibleThrows) {
  const KernelDesc ls = compute_kernel(1.0);  // no eviction-flag poll
  const auto id = exec_.launch({&ls}, nullptr);
  EXPECT_THROW(exec_.evict(id, nullptr), ConfigError);
}

TEST_F(ExecutorTest, EvictCompletionRaceFavoursCompletion) {
  KernelDesc be = compute_kernel(0.01);
  be.preemptible = true;
  bool completed = false, evicted = false;
  const auto id = exec_.launch(
      {&be}, [&](GpuExecutor::LaunchId, TimeNs) { completed = true; });
  // Evict 1ns before natural completion: the kernel finishes during the
  // flag-check latency, so the eviction callback must not fire.
  const TimeNs t_done = exec_.solo_runtime(be, 4, 4, false);
  q_.schedule_at(t_done - 1, [&] {
    exec_.evict(id, [&](GpuExecutor::LaunchId, TimeNs) { evicted = true; });
  });
  q_.run_all();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(evicted);
}

TEST_F(ExecutorTest, RunningInfoReportsResolvedDeviceMasks) {
  // Running kernels report device masks, never the all() sentinel: an
  // explicit grant comes back as given, all() (the KernelLaunch default)
  // and a sentinel field come back as every TPC / channel of the device.
  const KernelDesc k = compute_kernel(1.0);
  EXPECT_TRUE(exec_.running_infos().empty());
  exec_.launch({&k, {tpc_range(0, 2), 0b0011}, 7}, nullptr);
  exec_.launch({&k}, nullptr);
  exec_.launch({&k, Allocation::on_tpcs(tpc_bit(3))}, nullptr);
  const auto infos = exec_.running_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].tpc_mask, tpc_range(0, 2));
  EXPECT_EQ(infos[0].channels, 0b0011u);
  EXPECT_EQ(infos[0].tag, 7u);
  EXPECT_EQ(infos[1].tpc_mask, full_tpc_mask(4));
  EXPECT_EQ(infos[1].channels, all_channels(4));
  EXPECT_EQ(infos[2].tpc_mask, tpc_bit(3));
  EXPECT_EQ(infos[2].channels, all_channels(4));
  // resolve() is the expansion the launches went through.
  const Allocation all = exec_.resolve(Allocation::all());
  EXPECT_EQ(all.tpcs, full_tpc_mask(4));
  EXPECT_EQ(all.channels, all_channels(4));
  q_.run_all();
  EXPECT_TRUE(exec_.running_infos().empty());
}

TEST_F(ExecutorTest, ManySequentialKernelsAllComplete) {
  // Work conservation under a random launch pattern.
  const KernelDesc k = compute_kernel(0.05);
  int completions = 0;
  std::function<void()> next = [&] {
    if (completions >= 50) return;
    exec_.launch({&k}, [&](GpuExecutor::LaunchId, TimeNs) {
      ++completions;
      next();
    });
  };
  next();
  q_.run_all();
  EXPECT_EQ(completions, 50);
  EXPECT_EQ(exec_.completions(), 50u);
}

TEST_F(ExecutorTest, OnePendingCompletionEventPerExecutor) {
  // However many kernels overlap, the executor keeps one completion event
  // pending (one per kernel would be 32 here); an eviction adds its own
  // flag-check event.
  KernelDesc be = compute_kernel(1.0);
  be.preemptible = true;
  std::vector<GpuExecutor::LaunchId> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(exec_.launch({&be}, nullptr));
  EXPECT_EQ(exec_.running_count(), 32u);
  EXPECT_EQ(q_.pending(), 1u);
  exec_.evict(ids[0], nullptr);
  EXPECT_EQ(q_.pending(), 2u);
  q_.run_all();
  EXPECT_EQ(exec_.completions(), 31u);
  EXPECT_EQ(exec_.evictions(), 1u);
}

TEST_F(ExecutorTest, EventSlotsStayConstantThroughChurn) {
  // 20k kernels, eight in flight at a time, each completion launching the
  // next: the queue never needs more than a couple of bookkeeping slots.
  const KernelDesc k = compute_kernel(0.01);
  int launched = 0;
  std::function<void(GpuExecutor::LaunchId, TimeNs)> relaunch =
      [&](GpuExecutor::LaunchId, TimeNs) {
        if (launched < 20'000) {
          ++launched;
          exec_.launch(
              {&k, Allocation::on_tpcs(
                       tpc_bit(static_cast<unsigned>(launched % 4)))},
              relaunch);
        }
      };
  for (int i = 0; i < 8; ++i) relaunch(0, 0);
  q_.run_all();
  EXPECT_EQ(exec_.completions(), 20'000u);
  EXPECT_LE(q_.slot_count(), 2u);
}

TEST_F(ExecutorTest, CallbackChangesShareOneRecompute) {
  // A completion whose callback launches three kernels and evicts a
  // fourth costs one rate recompute (one per change would be four), over
  // the four kernels left running; the flag-check eviction then costs
  // one more, over the three launched.
  const KernelDesc quick = compute_kernel(0.1);
  KernelDesc be = compute_kernel(1.0);
  be.preemptible = true;
  const auto victim = exec_.launch({&be}, nullptr);
  int launched = 0;
  exec_.launch({&quick}, [&](GpuExecutor::LaunchId, TimeNs) {
    for (; launched < 3; ++launched) exec_.launch({&quick}, nullptr);
    EXPECT_TRUE(exec_.evict(victim, nullptr));
  });
  EXPECT_EQ(exec_.recomputes(), 2u);
  EXPECT_EQ(exec_.runtime_evals(), 3u);

  ASSERT_TRUE(q_.run_next());  // the quick kernel completes
  EXPECT_EQ(launched, 3);
  EXPECT_EQ(exec_.recomputes(), 3u);
  EXPECT_EQ(exec_.runtime_evals(), 7u);
  EXPECT_EQ(q_.pending(), 2u);  // the completion event and the flag check

  ASSERT_TRUE(q_.run_next());  // the eviction lands
  EXPECT_EQ(exec_.evictions(), 1u);
  EXPECT_EQ(exec_.recomputes(), 4u);
  EXPECT_EQ(exec_.runtime_evals(), 10u);
  q_.run_all();
  EXPECT_EQ(exec_.completions(), 4u);
}

TEST_F(ExecutorTest, ThrowingCallbackLeavesExecutorLive) {
  // A completion callback launches a kernel and then throws. The
  // exception reaches the caller of the queue, and the executor is left
  // un-held and recomputed: the co-runner and the launched kernel
  // complete exactly when they do after a callback that returns.
  const KernelDesc quick = compute_kernel(0.1);
  const KernelDesc slow = compute_kernel(1.0);
  const auto script = [&](EventQueue& q, GpuExecutor& exec, bool throws) {
    std::vector<TimeNs> done(2, 0);
    exec.launch({&slow}, [&done](GpuExecutor::LaunchId, TimeNs t) {
      done[0] = t;
    });
    exec.launch({&quick}, [&, throws](GpuExecutor::LaunchId, TimeNs) {
      exec.launch({&quick}, [&done](GpuExecutor::LaunchId, TimeNs t) {
        done[1] = t;
      });
      if (throws) throw std::runtime_error("callback failed");
    });
    if (throws) {
      EXPECT_THROW(q.run_all(), std::runtime_error);
      EXPECT_EQ(exec.running_count(), 2u);
      EXPECT_EQ(q.pending(), 1u);  // the recompute pushed the next event
    }
    q.run_all();
    return done;
  };
  EventQueue ref_q;
  GpuExecutor ref_exec(test_gpu(), ref_q);
  const std::vector<TimeNs> want = script(ref_q, ref_exec, false);
  EXPECT_EQ(script(q_, exec_, true), want);
  EXPECT_EQ(exec_.recomputes(), ref_exec.recomputes());

  // Un-held: a launch outside any callback recomputes at once.
  const uint64_t before = exec_.recomputes();
  const TimeNs start = q_.now();
  EXPECT_EQ(run_to_completion({&quick}) - start,
            exec_.solo_runtime(quick, 4, 4, false));
  EXPECT_EQ(exec_.recomputes(), before + 2);  // the launch, its completion
}

TEST_F(ExecutorTest, RejectsInvalidLaunches) {
  const KernelDesc k = compute_kernel(1.0);
  const TpcMask full = full_tpc_mask(4);
  const ChannelSet all_ch = all_channels(4);
  EXPECT_THROW(exec_.launch({nullptr}, nullptr), ConfigError);
  // An empty grant, or an empty field, is not "all".
  EXPECT_THROW(exec_.launch({&k, Allocation{}}, nullptr), ConfigError);
  EXPECT_THROW(exec_.launch({&k, {full, 0}}, nullptr), ConfigError);
  EXPECT_THROW(exec_.launch({&k, {0, all_ch}}, nullptr), ConfigError);
  // Out-of-device bits, with the other field valid and explicit.
  EXPECT_THROW(exec_.launch({&k, {tpc_bit(60), all_ch}}, nullptr),
               ConfigError);
  EXPECT_THROW(exec_.launch({&k, {full, channel_bit(20)}}, nullptr),
               ConfigError);
  // Stray high bits on a full mask are not the all() sentinel.
  EXPECT_THROW(exec_.launch({&k, {full | tpc_bit(63), all_ch}}, nullptr),
               ConfigError);
  EXPECT_EQ(exec_.running_count(), 0u);
  EXPECT_EQ(exec_.launches(), 0u);
}

}  // namespace
}  // namespace sgdrc::gpusim
