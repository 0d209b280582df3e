// Unit tests of the benchmark's own code: the forwarding wrappers, the
// span recorder's self-time arithmetic, and metric naming.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "core/serving.h"
#include "fleet/router.h"
#include "forwarding.h"
#include "gpusim/gpu_spec.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sgdrc::control::Allocation;
using sgdrc::control::Directive;
using sgdrc::control::ResourcePlan;

// ------------------------------------------------------------ router ----

class RecordingRouter : public sgdrc::fleet::Router {
 public:
  std::string name() const override { return "recording"; }
  void reset(size_t fleet_tenants) override { reset_with = fleet_tenants; }
  size_t route(const sgdrc::fleet::FleetSim&, unsigned,
               const std::vector<sgdrc::fleet::Replica>&) override {
    return 0;
  }
  bool reads_device_state() const override { return reads; }

  size_t reset_with = 0;
  bool reads = false;
};

TEST(ForwardingRouter, ForwardsNameResetAndStateReading) {
  RecordingRouter inner;
  for (const bool traced : {false, true}) {
    SpanRecorder rec;
    LayerProbe probe(rec);
    ForwardingRouter fw(inner, traced ? &probe : nullptr);
    EXPECT_EQ(fw.name(), "recording");
    inner.reads = false;
    EXPECT_FALSE(fw.reads_device_state());
    inner.reads = true;
    EXPECT_TRUE(fw.reads_device_state());
    fw.reset(7);
    EXPECT_EQ(inner.reset_with, 7u);
  }
}

TEST(ForwardingRouter, KeepsRoundRobinBlind) {
  // The base class default is true, which would switch off dispatch
  // coalescing and make fleet-256 measure a different engine.
  sgdrc::fleet::RoundRobinRouter rr;
  sgdrc::fleet::LeastOutstandingRouter lo;
  EXPECT_FALSE(ForwardingRouter(rr, nullptr).reads_device_state());
  EXPECT_TRUE(ForwardingRouter(lo, nullptr).reads_device_state());
  EXPECT_EQ(ForwardingRouter(rr, nullptr).name(), "round-robin");
}

// -------------------------------------------------------- controller ----

class FixedController : public sgdrc::control::Controller {
 public:
  explicit FixedController(ResourcePlan plan) : plan_(std::move(plan)) {}
  std::string name() const override { return "fixed"; }
  ResourcePlan plan(const sgdrc::control::SimView&) override { return plan_; }

 private:
  ResourcePlan plan_;
};

ResourcePlan sample_plan(bool pre_applied) {
  ResourcePlan p;
  p.launch(3, Allocation::on(0b1010, 0b11))
      .evict(4)
      .wake_at(12345)
      .launch(5, Allocation::all());
  p.pre_applied = pre_applied;
  return p;
}

void expect_same(const ResourcePlan& a, const ResourcePlan& b) {
  EXPECT_EQ(a.pre_applied, b.pre_applied);
  ASSERT_EQ(a.directives.size(), b.directives.size());
  for (size_t i = 0; i < a.directives.size(); ++i) {
    const Directive& x = a.directives[i];
    const Directive& y = b.directives[i];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.job, y.job);
    EXPECT_EQ(x.alloc.tpcs, y.alloc.tpcs);
    EXPECT_EQ(x.alloc.channels, y.alloc.channels);
    EXPECT_EQ(x.at, y.at);
  }
}

TEST(ForwardingController, ReturnsTheInnerPlanUnchanged) {
  // An empty device sim is enough for a SimView.
  FixedController boot(ResourcePlan{});
  sgdrc::EventQueue q;
  auto sim = sgdrc::core::ServingSimBuilder()
                 .gpu(sgdrc::gpusim::rtx_a2000())
                 .build(q, boot);
  const sgdrc::control::SimView view(*sim);

  for (const bool legacy : {false, true}) {
    for (const bool traced : {false, true}) {
      SpanRecorder rec;
      LayerProbe probe(rec);
      ForwardingController fw(
          std::make_unique<FixedController>(sample_plan(legacy)),
          traced ? &probe : nullptr);
      EXPECT_EQ(fw.name(), "fixed");
      expect_same(fw.plan(view), sample_plan(legacy));
      if (traced) {
        EXPECT_EQ(probe.plan_calls, 1u);
        EXPECT_EQ(probe.launch_directives, 2u);
        EXPECT_EQ(probe.evict_directives, 1u);
        EXPECT_EQ(probe.wake_directives, 1u);
        EXPECT_EQ(probe.corunners.count(), 1u);
        EXPECT_EQ(probe.plan_ns.count(), 1u);
        // Pre-applied (legacy) plans are timed apart from native ones.
        EXPECT_EQ(legacy ? probe.native_plan_ns : probe.legacy_plan_ns, 0);
        EXPECT_EQ(rec.open_depth(), 0u);
      }
    }
  }
}

TEST(ForwardingController, FactoryWrapsEveryController) {
  const sgdrc::control::ControllerFactory inner =
      [](const sgdrc::gpusim::GpuSpec&) {
        return std::make_unique<FixedController>(sample_plan(false));
      };
  const auto factory = forwarding_factory(inner, nullptr);
  const auto c = factory(sgdrc::gpusim::rtx_a2000());
  EXPECT_NE(dynamic_cast<ForwardingController*>(c.get()), nullptr);
  EXPECT_EQ(c->name(), "fixed");
}

// ------------------------------------------------------------- spans ----

TEST(SpanRecorder, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec;
  const uint32_t n = rec.intern("x");
  const size_t root = rec.open_at(n, 0);
  const size_t a = rec.open_at(n, 10);
  rec.close_at(a, 30);
  const size_t b = rec.open_at(n, 40);
  const size_t c = rec.open_at(n, 50);
  rec.close_at(c, 60);
  rec.close_at(b, 90);
  rec.close_at(root, 100);

  const auto self = rec.self_times();
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[root], 100 - 20 - 50);  // grandchild is b's, not root's
  EXPECT_EQ(self[a], 20);
  EXPECT_EQ(self[b], 50 - 10);
  EXPECT_EQ(self[c], 10);
  EXPECT_EQ(rec.spans()[c].parent, b + 1);
  EXPECT_EQ(rec.spans()[root].parent, 0u);
}

TEST(SpanRecorder, ClosingAnOuterSpanEndsOrphanedInnerSpans) {
  SpanRecorder rec;
  const uint32_t n = rec.intern("x");
  const size_t outer = rec.open_at(n, 0);
  rec.open_at(n, 5);  // never closed, as after an exception
  rec.close_at(outer, 20);
  EXPECT_EQ(rec.open_depth(), 0u);
  const auto self = rec.self_times();
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 15);
}

TEST(SpanRecorder, SampledUnitsKeepOrDropTheirWholeSubtree) {
  SpanRecorder rec;
  rec.set_unit_stride(3);
  const uint32_t unit = rec.intern("unit");
  const uint32_t child = rec.intern("child");
  const size_t cell = rec.open_at(rec.intern("cell"), 0);
  for (int64_t i = 0; i < 6; ++i) {
    const size_t u = rec.open_unit_at(unit, 10 * i);
    // A unit nested in a recorded unit is recorded with it.
    const size_t inner = rec.open_unit_at(child, 10 * i + 1);
    rec.close_at(inner, 10 * i + 3);
    rec.close_at(u, 10 * i + 5);
    EXPECT_EQ(u == SpanRecorder::kSkipped, inner == SpanRecorder::kSkipped);
  }
  rec.close_at(cell, 100);
  EXPECT_EQ(rec.skipped_units(), 4u);  // calls 1, 2, 4, 5
  ASSERT_EQ(rec.spans().size(), 5u);   // cell + 2 x (unit + child)
  const auto self = rec.self_times();
  EXPECT_EQ(self[1], 5 - 2);           // unit minus its child
  EXPECT_EQ(rec.spans()[2].parent, 2u);
  EXPECT_EQ(rec.open_depth(), 0u);
}

TEST(SpanRecorder, WritesChromeTraceEvents) {
  SpanRecorder rec;
  rec.set_cell(3);
  const size_t s = rec.open_at(rec.intern("cell"), 1000);
  rec.close_at(s, 3000);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"cell\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(out.find("\"cell\":3"), std::string::npos);
}

// ------------------------------------------------------------ report ----

TEST(Report, MetricNameCharset) {
  EXPECT_TRUE(valid_metric_name("event_queue.event_self_ns_p99"));
  EXPECT_TRUE(valid_metric_name("scenario.flash-overload.run_s"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("run s"));
  EXPECT_FALSE(valid_metric_name("scenario/x"));
  EXPECT_FALSE(valid_metric_name("p99\""));
}

TEST(Report, EveryDeclaredAndGeneratedMetricNameIsValid) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  size_t names = 0;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    EXPECT_TRUE(valid_metric_name((*it)[1].str())) << (*it)[1].str();
    ++names;
  }
  EXPECT_GT(names, 10u);
  ASSERT_EQ(stock_scenario_names().size(), 12u);
  for (const auto& sc : stock_scenario_names()) {
    EXPECT_TRUE(valid_metric_name("scenario." + sc + ".run_s")) << sc;
    EXPECT_NE(json.find("\"scenario." + sc + ".run_s\""), std::string::npos)
        << sc;
  }
}

TEST(Report, HistogramIsExactForSmallValuesAndCloseForLarge) {
  Histogram h;
  EXPECT_EQ(h.percentile(99), 0);
  for (uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 50);
  EXPECT_EQ(h.percentile(99), 99);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);

  Histogram big;
  for (const uint64_t v : {1000ull, 123456ull, 9876543210ull}) {
    big = Histogram();
    big.add(v);
    const double p = big.percentile(50);
    EXPECT_LE(p, static_cast<double>(v));
    EXPECT_GE(p, static_cast<double>(v) * (1.0 - 1.0 / 64)) << v;
  }
}

TEST(Report, NearestRankPercentilesAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({}, 99), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Report, ResultLineKeepsEveryDigit) {
  const std::string line =
      result_line(true, 12, 0, {{"run_s", 1.2345678901234567, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"run_s\": {\"value\": 1.2345678901234567, "
            "\"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
