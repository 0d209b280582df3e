// sgdrc_perfbench — the simulator benchmark harness.
//
//   sgdrc_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                   [--spans-out PATH]
//
// Runs one workload (colo-fig17, fleet-256, scenario-catalog,
// dag-inception) single-threaded in this process: measured passes (set-up
// + every cell through the benchmark harness) for --seconds, checking each
// cell's correctness gate and that its digest repeats. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 first runs every
// cell through the library's own runner for reference digests, then
// alternates untraced and traced passes whose digests must equal the
// reference, and reports the per-layer metrics; the first traced pass's
// spans go to --spans-out as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/event_queue.h"
#include "common/shard_guard.h"
#include "gpusim/executor.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// run_s is the fastest untraced pass: on a shared host, interference
// from other tenants only ever adds time, and it comes in bursts of
// seconds that a median over one run's passes does not wash out.
constexpr int kMinPasses = 1;         // untraced run
constexpr int kMinTracedPairs = 1;    // traced run: untraced + traced pairs
// Set-up is cheap next to the cells, so every untraced pass sets up
// several times (the last set-up feeds the cells) — at least
// kMinSetups times and until kSetupBudgetS of set-up time has passed, at
// most kMaxSetups; setup_s is the median over all of them.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.2;
constexpr size_t kMinP99Samples = 1000;  // >= 10 samples beyond p99
constexpr uint64_t kReplayCompletions = 3000;
// Sampled span units (events, plan and route calls) recorded per traced
// pass: enough for stable self-time percentiles, a few MB of spans.
constexpr uint64_t kSpanUnitBudget = 50000;

struct Args {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sgdrc_perfbench: %s\nusage: sgdrc_perfbench --workload "
               "<name> [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, nullptr, 0);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Why this build must not report timings, or empty when it may.
std::string refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not an optimized build";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
  if (sanitized_build()) return "sanitizer build";
#ifdef SGDRC_DEBUG_OWNERSHIP
  return "compiled with SGDRC_DEBUG_OWNERSHIP";
#endif
  if (sgdrc::ShardGuard::armed()) {
    return "shard-ownership guard armed (SGDRC_DEBUG_OWNERSHIP)";
  }
  return "";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double elapsed_s(int64_t start) {
  return static_cast<double>(host_ns() - start) / 1e9;
}

/// Host ns per kernel completion of a standalone executor replaying the
/// workload's kernel mix with `corunners` kernels always in flight on
/// overlapping (whole-device) allocations.
double replay_cycle_ns(const sgdrc::gpusim::GpuSpec& spec,
                       const std::vector<sgdrc::gpusim::KernelDesc>& mix,
                       unsigned corunners) {
  if (corunners == 0 || mix.empty()) return 0.0;
  sgdrc::EventQueue q;
  sgdrc::gpusim::GpuExecutor exec(spec, q);
  size_t next = 0;
  uint64_t launched = 0, done = 0;
  std::function<void()> launch = [&] {
    sgdrc::gpusim::KernelLaunch l;
    l.kernel = &mix[next++ % mix.size()];
    ++launched;
    exec.launch(l, [&](sgdrc::gpusim::GpuExecutor::LaunchId, sgdrc::TimeNs) {
      ++done;
      if (launched < kReplayCompletions) launch();
    });
  };
  for (unsigned i = 0; i < corunners; ++i) launch();
  const int64_t start = host_ns();
  while (q.run_next()) {
  }
  const double ns = static_cast<double>(host_ns() - start);
  return done ? ns / static_cast<double>(done) : 0.0;
}

struct Totals {
  uint64_t events = 0, peak_pending = 0, launches = 0, evictions = 0,
           kernels_done = 0, requests_served = 0;
  uint64_t door_arrived = 0, door_admitted = 0, door_shed = 0,
           door_retries = 0, door_dropped = 0;
  uint64_t weight_loads = 0, paged_requests = 0, cold_requests = 0,
           fleet_served = 0, autoscaler_decisions = 0;
  std::vector<double> imbalance_cv;

  explicit Totals(const std::vector<CellOutcome>& cells) {
    for (const auto& c : cells) {
      events += c.events;
      peak_pending = std::max(peak_pending, c.peak_pending);
      launches += c.launches;
      evictions += c.evictions;
      kernels_done += c.kernels_done;
      requests_served += c.requests_served;
      door_arrived += c.door_arrived;
      door_admitted += c.door_admitted;
      door_shed += c.door_shed;
      door_retries += c.door_retries;
      door_dropped += c.door_dropped;
      weight_loads += c.weight_loads;
      paged_requests += c.paged_requests;
      cold_requests += c.cold_requests;
      autoscaler_decisions += c.autoscaler_decisions;
      if (c.fleet) {
        fleet_served += c.requests_served;
        imbalance_cv.push_back(c.imbalance_cv);
      }
    }
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Checks every cell of a pass against the gate and the expected digests
/// (`expect` names where they come from). With no expected digests yet,
/// this pass's become them.
void check_pass(const std::vector<CellOutcome>& cells,
                std::vector<std::string>& expected, const char* expect,
                uint64_t& attempted, uint64_t& failed,
                std::vector<std::string>& problems) {
  if (expected.empty()) {
    for (const auto& c : cells) expected.push_back(c.digest);
  }
  if (cells.size() != expected.size()) {
    problems.push_back("pass ran " + std::to_string(cells.size()) +
                       " cells, expected " + std::to_string(expected.size()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    ++attempted;
    std::string why = c.failure;
    if (why.empty() && i < expected.size() && c.digest != expected[i]) {
      why = "digest " + c.digest + " != " + expect + " " + expected[i];
    }
    if (!why.empty()) {
      ++failed;
      problems.push_back(c.name + ": " + why);
    }
  }
}

std::string workload_digest(const std::vector<std::string>& cells) {
  std::string all;
  for (const auto& d : cells) all += d;
  return fnv1a_hex(all);
}

void print_cells(const std::vector<CellOutcome>& cells) {
  std::printf("%-22s %10s  %-16s  %s\n", "cell", "run_s", "digest", "gate");
  for (const auto& c : cells) {
    std::printf("%-22s %10.4f  %-16s  %s\n", c.name.c_str(), c.run_s,
                c.digest.c_str(), c.failure.empty() ? "ok" : c.failure.c_str());
  }
}

void print_metrics(const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int run(const Args& args) {
  const std::string refused = refusal();
  if (!refused.empty()) {
    std::fprintf(stderr, "sgdrc_perfbench: refusing to report: %s\n",
                 refused.c_str());
    return 3;
  }
  std::unique_ptr<Workload> wl;
  try {
    wl = make_workload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("provenance: workload=%s seed=%s nproc=%u compiler=\"%s\" "
              "build_type=%s trace=%d\n",
              args.workload.c_str(),
              args.seed ? std::to_string(*args.seed).c_str() : "default",
              nproc, compiler().c_str(), PERFBENCH_BUILD_TYPE,
              args.trace ? 1 : 0);

  // The traced run checks the harness against the library's own runner;
  // the untraced run checks that every pass repeats the first.
  std::vector<std::string> expected;
  const char* expect = "first pass";
  if (args.trace) {
    const int64_t t_ref = host_ns();
    expected = wl->reference();
    expect = "library path";
    std::printf("reference (library path): %zu cells in %.3f s, digest %s\n",
                expected.size(), elapsed_s(t_ref),
                workload_digest(expected).c_str());
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<SetupTimes> setups;                 // untraced set-ups
  std::vector<std::vector<CellOutcome>> plain;    // untraced passes
  std::vector<std::vector<CellOutcome>> traced;
  SpanRecorder spans;
  std::unique_ptr<LayerProbe> probe;

  const auto untraced_pass = [&] {
    double spent = 0;
    for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudgetS);
         ++i) {
      setups.push_back(wl->prepare(nullptr));
      spent += setups.back().total();
    }
    plain.push_back(wl->run_cells(nullptr));
    check_pass(plain.back(), expected, expect, attempted, failed, problems);
  };
  const auto traced_pass = [&](LayerProbe* p) {
    wl->prepare(p);
    traced.push_back(wl->run_cells(p));
    check_pass(traced.back(), expected, expect, attempted, failed, problems);
  };
  const int64_t start = host_ns();
  if (!args.trace) {
    while (static_cast<int>(plain.size()) < kMinPasses ||
           elapsed_s(start) < args.seconds) {
      untraced_pass();
    }
  } else {
    while (static_cast<int>(traced.size()) < kMinTracedPairs ||
           elapsed_s(start) < args.seconds) {
      untraced_pass();
      if (!probe) {
        // Span units of the first traced pass, estimated from the
        // untraced pass: single-device events; fleet plan + route calls.
        uint64_t units = 0;
        for (const auto& c : plain.back()) {
          units += c.events + (c.fleet ? c.requests_served : 0);
        }
        spans.set_unit_stride((units + kSpanUnitBudget - 1) / kSpanUnitBudget);
        probe = std::make_unique<LayerProbe>(spans);
        traced_pass(probe.get());
      } else {
        // Later traced passes only time the tracing overhead.
        SpanRecorder scratch;
        LayerProbe scratch_probe(scratch);
        traced_pass(&scratch_probe);
      }
    }
  }

  std::printf("\nfirst measured pass:\n");
  print_cells(plain.front());
  std::vector<std::string> digests;
  for (const auto& c : plain.front()) digests.push_back(c.digest);
  std::printf("workload digest %s (%s the %s)\n",
              workload_digest(digests).c_str(),
              digests == expected ? "equals" : "DIFFERS FROM", expect);
  if (!traced.empty()) {
    std::vector<std::string> td;
    for (const auto& c : traced.front()) td.push_back(c.digest);
    std::printf("traced digest   %s (%s the untraced digest)\n",
                workload_digest(td).c_str(),
                td == digests ? "equals" : "DIFFERS FROM");
  }

  std::vector<double> run_s, setup_s, profile_s, spt_s, trace_s;
  std::printf("untraced passes (s):");
  for (const auto& p : plain) {
    run_s.push_back(run_seconds(p));
    std::printf(" %.4f", run_s.back());
  }
  std::printf("\n");
  for (const auto& s : setups) {
    setup_s.push_back(s.total());
    profile_s.push_back(s.profile_s);
    spt_s.push_back(s.spt_transform_s);
    trace_s.push_back(s.trace_gen_s);
  }
  const std::vector<CellOutcome>& first = plain.front();
  std::vector<Metric> metrics;

  if (!args.trace) {
    // Simulated metrics over the SGDRC cells; every pass is identical
    // (digest-checked), so the first one speaks for all.
    std::vector<double> lat;
    uint64_t served = 0, attained = 0;
    double be = 0, sim_s = 0;
    for (const auto& c : first) {
      if (!c.sgdrc) continue;
      lat.insert(lat.end(), c.ls_latency_ns.begin(), c.ls_latency_ns.end());
      served += c.ls_served;
      attained += c.ls_attained;
      be += c.be_samples;
      sim_s += static_cast<double>(c.sim_duration_ns) / 1e9;
    }
    if (lat.size() < kMinP99Samples) {
      problems.push_back("only " + std::to_string(lat.size()) +
                         " LS samples: p99 needs at least " +
                         std::to_string(kMinP99Samples));
    }
    std::printf("\nSGDRC LS latency samples: %zu (p50 and p99 both over "
                "these)\n",
                lat.size());
    const double cells_failed = static_cast<double>(failed);
    metrics = {
        {"run_s", *std::min_element(run_s.begin(), run_s.end()), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"ls_p50_ms", percentile(lat, 50) / 1e6, "ms"},
        {"ls_p99_ms", percentile(lat, 99) / 1e6, "ms"},
        {"slo_attainment", ratio(static_cast<double>(attained),
                                 static_cast<double>(served)),
         "ratio"},
        {"ls_goodput_per_s", ratio(static_cast<double>(attained), sim_s),
         "1/s"},
        {"be_samples_per_s", ratio(be, sim_s), "1/s"},
    };
    std::printf("end-to-end metrics (run_s: fastest of %zu passes; setup_s: "
                "median of %zu set-ups; cells_failed %" PRIu64 " of %" PRIu64
                "):\n",
                plain.size(), setups.size(), failed, attempted);
    print_metrics(metrics);
    std::printf("  %-34s %18.0f %s\n", "cells_failed", cells_failed,
                "count");
  } else {
    const std::vector<CellOutcome>& tp = traced.front();
    const Totals tot(tp);
    std::vector<double> traced_run;
    for (const auto& p : traced) traced_run.push_back(run_seconds(p));
    const double run_best = *std::min_element(run_s.begin(), run_s.end());
    const double run_med = median(run_s);
    const double traced_med = median(traced_run);
    const double traced_run_ns = run_seconds(tp) * 1e9;

    // Self time of the per-event spans (single-device cells).
    const auto self = spans.self_times();
    std::vector<double> event_self;
    const uint32_t n_event = spans.intern("event_queue.run_next");
    for (size_t i = 0; i < spans.spans().size(); ++i) {
      if (spans.spans()[i].name == n_event) {
        event_self.push_back(static_cast<double>(self[i]));
      }
    }
    const double co_p50 = probe->corunners.percentile(50);
    const double co_p99 = probe->corunners.percentile(99);
    const auto mix = wl->kernel_mix();
    const double cycle_p50 =
        replay_cycle_ns(wl->spec(), mix, static_cast<unsigned>(co_p50));
    const double cycle_p99 =
        replay_cycle_ns(wl->spec(), mix, static_cast<unsigned>(co_p99));

    double speedup = 0;
    std::vector<std::string> par_digests;
    const unsigned threads = std::min(4u, nproc);
    if (const auto par = wl->parallel_rerun(threads, par_digests)) {
      const bool match = par_digests == digests;
      speedup = ratio(run_best, *par);
      std::printf("\nparallel rerun: %u threads, %.4f s vs serial %.4f s, "
                  "matches serial: %s\n",
                  threads, *par, run_best, match ? "yes" : "NO");
      ++attempted;
      if (!match) {
        ++failed;
        problems.push_back("parallel rerun diverged from serial");
      }
    }

    const double plan_ns =
        static_cast<double>(probe->legacy_plan_ns + probe->native_plan_ns);
    metrics = {
        {"event_queue.events", static_cast<double>(tot.events), "count"},
        {"event_queue.peak_pending", static_cast<double>(tot.peak_pending),
         "count"},
        {"event_queue.host_ns_per_event",
         ratio(run_best * 1e9, static_cast<double>(tot.events)), "ns"},
        {"event_queue.event_self_ns_p50", percentile(event_self, 50), "ns"},
        {"event_queue.event_self_ns_p99", percentile(event_self, 99), "ns"},
        {"executor.corunners_p50", co_p50, "count"},
        {"executor.corunners_p99", co_p99, "count"},
        {"executor.corunners_mean", probe->corunners.mean(), "count"},
        {"executor.launches", static_cast<double>(tot.launches), "count"},
        {"executor.evictions", static_cast<double>(tot.evictions), "count"},
        {"executor.cycle_ns_at_p50", cycle_p50, "ns"},
        {"executor.cycle_ns_at_p99", cycle_p99, "ns"},
        {"control.plan_calls", static_cast<double>(probe->plan_calls),
         "count"},
        {"control.plan_ns_p50", probe->plan_ns.percentile(50), "ns"},
        {"control.plan_ns_p99", probe->plan_ns.percentile(99), "ns"},
        {"control.plan_share", ratio(plan_ns, traced_run_ns), "ratio"},
        {"control.legacy_plan_share",
         ratio(static_cast<double>(probe->legacy_plan_ns), traced_run_ns),
         "ratio"},
        {"control.native_plan_share",
         ratio(static_cast<double>(probe->native_plan_ns), traced_run_ns),
         "ratio"},
        {"control.empty_plan_frac",
         ratio(static_cast<double>(probe->empty_plans),
               static_cast<double>(probe->plan_calls)),
         "ratio"},
        {"control.launch_directives",
         static_cast<double>(probe->launch_directives), "count"},
        {"control.evict_directives",
         static_cast<double>(probe->evict_directives), "count"},
        {"control.wake_directives", static_cast<double>(probe->wake_directives),
         "count"},
        {"serving.kernels_done", static_cast<double>(tot.kernels_done),
         "count"},
        {"serving.requests_served", static_cast<double>(tot.requests_served),
         "count"},
        {"serving.waiting_depth_p99",
         probe->waiting_depth.percentile(99), "count"},
        {"fleet.route_calls", static_cast<double>(probe->route_ns.count()),
         "count"},
        {"fleet.route_ns_p50", probe->route_ns.percentile(50), "ns"},
        {"fleet.route_ns_p99", probe->route_ns.percentile(99), "ns"},
        {"fleet.place_s", static_cast<double>(probe->place_ns) / 1e9, "s"},
        {"fleet.imbalance_cv", mean(tot.imbalance_cv), "ratio"},
        {"fleet.parallel_speedup", speedup, "x"},
        {"door.admitted_frac",
         ratio(static_cast<double>(tot.door_admitted),
               static_cast<double>(tot.door_arrived)),
         "ratio"},
        {"door.shed", static_cast<double>(tot.door_shed), "count"},
        {"door.retries", static_cast<double>(tot.door_retries), "count"},
        {"door.dropped", static_cast<double>(tot.door_dropped), "count"},
        {"memory.weight_loads", static_cast<double>(tot.weight_loads),
         "count"},
        {"memory.paged_requests", static_cast<double>(tot.paged_requests),
         "count"},
        {"memory.cold_request_frac",
         ratio(static_cast<double>(tot.cold_requests),
               static_cast<double>(tot.fleet_served)),
         "ratio"},
        {"autoscaler.decisions", static_cast<double>(tot.autoscaler_decisions),
         "count"},
        {"setup.profile_s", median(profile_s), "s"},
        {"setup.spt_transform_s", median(spt_s), "s"},
        {"setup.trace_gen_s", median(trace_s), "s"},
        {"setup.requests", static_cast<double>(setups.front().requests),
         "count"},
    };
    for (const auto& sc : stock_scenario_names()) {
      std::vector<double> per_pass;
      for (const auto& p : plain) {
        for (const auto& c : p) {
          if (c.name == sc) per_pass.push_back(c.run_s);
        }
      }
      metrics.push_back({"scenario." + sc + ".run_s", median(per_pass), "s"});
    }
    metrics.push_back({"trace.overhead_frac",
                       ratio(traced_med, run_med) - 1.0, "ratio"});
    metrics.push_back(
        {"trace.spans", static_cast<double>(spans.spans().size()), "count"});

    std::printf("\nper-layer metrics (%zu untraced + %zu traced passes; "
                "untraced run_s median %.4f s, traced %.4f s):\n",
                plain.size(), traced.size(), run_med, traced_med);
    print_metrics(metrics);

    if (!args.spans_out.empty()) {
      std::ofstream os(args.spans_out);
      if (!os) {
        problems.push_back("cannot write span file " + args.spans_out);
      } else {
        spans.write_chrome_trace(os);
        std::printf("spans: %zu written to %s (one unit in %" PRIu64
                    " recorded, %" PRIu64 " units skipped)\n",
                    spans.spans().size(), args.spans_out.c_str(),
                    spans.unit_stride(), spans.skipped_units());
      }
    }
  }

  for (const auto& m : metrics) {
    if (!valid_metric_name(m.name) || !std::isfinite(m.value)) {
      problems.push_back("bad metric " + m.name);
    }
  }
  for (const auto& p : problems) std::printf("PROBLEM: %s\n", p.c_str());
  std::printf("%s\n",
              result_line(problems.empty(), attempted, failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sgdrc_perfbench: %s\n", e.what());
    return 1;
  }
}
