// Allocation gate for the per-event path. Every event pokes the
// controller, so plan() and the views it reads run once per event; they
// are meant to plan in reused scratch over span views and allocate only
// the returned plan's directive list. This executable replaces the
// global operator new with a counting one (which is why it is not part
// of sgdrc_tests: the count must not reach the other suites) and runs
// EngineCounters' Fig. 17 cell under every registry system:
//
//  * a wrapping controller counts the allocations inside each plan()
//    and subtracts the growth steps of the returned directive list
//    (1 + ceil(log2 k) for k >= 1 directives under doubling growth); what
//    is left is scratch or view storage that had to grow, which happens
//    only while buffers reach their working size;
//  * the whole run, request scheduling and completions included, makes
//    little more than the one directive list per plan per fired event.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "common/event_queue.h"
#include "control/controller.h"
#include "core/harness.h"
#include "core/serving.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line, so the compiler does not pair a free() it inlined into an
// operator delete with the operator new that made the pointer.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable form but the over-aligned ones, which nothing in the
// library uses: a sanitizer runtime defines each form itself, so a form
// left out here would free this allocator's memory with its own.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace sgdrc {
namespace {

uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Allocations a vector makes pushing k elements one by one from empty
/// under doubling growth: capacities 1, 2, 4, ... up to k.
uint64_t growth_steps(size_t k) {
  uint64_t steps = 0;
  for (size_t cap = 1; k > 0; cap *= 2) {
    ++steps;
    if (cap >= k) break;
  }
  return steps;
}

/// Forwards to `inner`, counting the allocations each plan() makes
/// beyond its returned directive list.
class CountingController : public control::Controller {
 public:
  explicit CountingController(std::unique_ptr<control::Controller> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  bool guarantee_aware() const override { return inner_->guarantee_aware(); }
  control::ResourcePlan plan(const control::SimView& view) override {
    const uint64_t before = allocations();
    control::ResourcePlan p = inner_->plan(view);
    const uint64_t made = allocations() - before;
    const uint64_t list = growth_steps(p.size());
    extra_ += made - std::min(made, list);
    ++plans_;
    return p;
  }

  uint64_t extra() const { return extra_; }
  uint64_t plans() const { return plans_; }

 private:
  std::unique_ptr<control::Controller> inner_;
  uint64_t extra_ = 0;
  uint64_t plans_ = 0;
};

/// Extra allocations inside plan() allowed over the whole run: buffers
/// growing to their working size, not a per-event cost.
constexpr uint64_t kMaxExtraPlanAllocations = 64;
/// Allocations per fired event over the whole run: about one directive
/// list per plan, plus each request's job.
constexpr double kMaxAllocationsPerEvent = 1.25;

std::vector<std::string> system_names() {
  std::vector<std::string> out;
  for (const auto& s : baselines::system_registry()) out.push_back(s.name);
  return out;
}

class PlanAllocation : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanAllocation, PerEventPathAllocatesOnlyTheDirectiveList) {
  // EngineCounters' Fig. 17 cell: the heavy mix on an A2000 (three LS
  // services, two rotating BE tenants), shortened to 60 ms.
  core::HarnessOptions o;
  o.spec = gpusim::rtx_a2000();
  o.ls_letters = "ABC";
  o.be_letters = "IJ";
  o.utilization = 1.45;
  o.burstiness = 0.35;
  o.duration = 60 * kNsPerMs;
  o.seed = 0xf17;
  const core::ServingHarness h(o);
  core::ServingSimBuilder b;
  b.gpu(o.spec)
      .executor_params(o.exec_params)
      .default_ls_instances(o.ls_instances)
      .duration(o.duration)
      .best_effort_mode(o.be_mode)
      .slo_multiplier(4.0);
  for (size_t i = 0; i < h.ls_count(); ++i) {
    b.add_latency_sensitive(h.ls_model_spt(i), h.isolated_latency(i));
  }
  for (size_t i = 0; i < h.be_count(); ++i) {
    b.add_best_effort(h.be_model_spt(i));
  }
  CountingController controller(baselines::make_system(GetParam(), o.spec));
  EventQueue q;
  const auto sim = b.build(q, controller);

  const uint64_t before = allocations();
  const workload::ServingMetrics m = sim->run(h.trace());
  const uint64_t run_allocations = allocations() - before;

  ASSERT_GT(q.fired(), 0u);
  ASSERT_GT(controller.plans(), 0u);
  uint64_t served = 0;
  for (const auto& t : m.tenants) served += t.served;
  EXPECT_GT(served, 0u);
  const double per_event = static_cast<double>(run_allocations) /
                           static_cast<double>(q.fired());
  RecordProperty("extra_plan_allocations",
                 std::to_string(controller.extra()));
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LE(controller.extra(), kMaxExtraPlanAllocations)
      << controller.plans() << " plans";
  EXPECT_LE(per_event, kMaxAllocationsPerEvent)
      << run_allocations << " allocations over " << q.fired() << " events";
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PlanAllocation, ::testing::ValuesIn(system_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace sgdrc
