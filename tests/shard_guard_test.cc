// The shard-ownership race detector (common/shard_guard.h): dormant by
// default, and — once armed — a deliberate cross-thread mutation inside
// a claimed window must abort the process, while the legitimate
// single-owner flows (serial driving, worker-per-window) stay
// violation-free. Arming is process-sticky, so every armed scenario
// runs inside a death-test/EXPECT_EXIT child process and the parent
// suite keeps exercising the dormant fast path. The full
// fleet_parallel_test matrix additionally runs with the guard armed via
// the `fleet_parallel_guarded` ctest (SGDRC_DEBUG_OWNERSHIP=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/shard_guard.h"
#include "core/profiler.h"
#include "core/serving.h"
#include "models/zoo.h"
#include "test_support.h"

namespace sgdrc::core {
namespace {

/// A minimal fleet-mode sim (external queue, one LS tenant) — the
/// configuration the shard guard exists to police.
struct GuardRig {
  gpusim::GpuSpec spec = gpusim::test_gpu();
  EventQueue queue;
  tests::FnController controller{tests::launch_all_waiting};
  std::unique_ptr<ServingSim> sim;

  GuardRig() {
    OfflineProfiler prof(spec);
    models::ModelDesc ls = models::make_model('A');
    prof.profile(ls);
    const TimeNs iso = prof.isolated_latency(ls);
    sim = ServingSimBuilder()
              .gpu(spec)
              .duration(50 * kNsPerMs)
              .add_latency_sensitive(ls, iso)
              .build(queue, controller);
  }
};

TEST(ShardGuard, DormantByDefault) {
  // Without SGDRC_DEBUG_OWNERSHIP in the environment the guard
  // must cost nothing and tolerate everything — including patterns that
  // would abort when armed. (The guarded ctest re-runs the fleet matrix
  // with checking on; this pins the dormant default.)
  if (ShardGuard::armed()) GTEST_SKIP() << "guard armed via environment";
  ShardGuard g;
  g.claim("window");
  std::thread other([&] { g.assert_mutable("cross-thread touch"); });
  other.join();
  g.release();
}

TEST(ShardGuard, ArmedSingleOwnerFlowsPass) {
  // Claim/release, same-thread re-entry (nested window drains), and the
  // unclaimed-main-thread mutation path are all legal when armed.
  EXPECT_EXIT(
      {
        ShardGuard::arm_process();
        ShardGuard g;
        g.assert_mutable("between windows");  // unclaimed: main thread
        {
          ShardGuard::WindowScope outer(g, "outer");
          g.assert_mutable("inside own window");
          ShardGuard::WindowScope inner(g, "nested");  // same-thread
        }
        g.assert_mutable("after release");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ShardGuard, ArmedServingFlowIsViolationFree) {
  // The whole legitimate shard lifecycle — begin, windowed driving,
  // injections between windows, finish — from one thread, guard armed.
  EXPECT_EXIT(
      {
        ShardGuard::arm_process();
        GuardRig rig;
        rig.sim->begin();
        rig.sim->run_shard_until(1 * kNsPerMs);
        rig.sim->inject(0, rig.sim->now());
        (void)rig.sim->next_shard_event();
        rig.sim->run_shard_until(40 * kNsPerMs);
        const auto m = rig.sim->finish();
        if (m.tenants.at(0).served != 1) std::abort();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ShardGuardDeath, CrossThreadMutationAborts) {
  // The bug class this detector exists for: a window is open (a worker
  // thread owns the shard) and some other thread mutates the sim — here
  // an inject(), i.e. a cross-shard dispatch that skipped the mailbox.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardGuard::arm_process();
        GuardRig rig;
        rig.sim->begin();
        rig.sim->shard_guard().claim("simulated worker window");
        std::thread trespasser([&] { rig.sim->inject(0, rig.sim->now()); });
        trespasser.join();
      },
      "shard-ownership violation in inject");
}

TEST(ShardGuardDeath, SecondThreadEnteringOwnedWindowAborts) {
  // Two workers inside the same shard's window — the claim itself must
  // trip, before any state is touched.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardGuard::arm_process();
        GuardRig rig;
        rig.sim->begin();
        rig.sim->shard_guard().claim("simulated worker window");
        std::thread second([&] { rig.sim->run_shard_until(1 * kNsPerMs); });
        second.join();
      },
      "shard-ownership violation in run_shard_until");
}

TEST(ShardGuardDeath, ControlActionDuringWindowAborts) {
  // Control-plane mutations (SLO changes, pauses) must obey the same
  // window discipline as data-path injections.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ShardGuard::arm_process();
        GuardRig rig;
        rig.sim->begin();
        rig.sim->shard_guard().claim("simulated worker window");
        std::thread trespasser(
            [&] { rig.sim->set_slo(0, 5 * kNsPerMs); });
        trespasser.join();
      },
      "shard-ownership violation in set_slo");
}

}  // namespace
}  // namespace sgdrc::core
