#include "core/harness.h"

#include "coloring/transformer.h"
#include "models/zoo.h"

namespace sgdrc::core {

models::ModelDesc ServingHarness::transform_for_spt(
    const models::ModelDesc& m, const OfflineProfiler& prof) {
  models::ModelDesc out = m;
  EventQueue q;
  gpusim::GpuExecutor exec(prof.spec(), q, prof.exec_params());
  for (auto& k : out.kernels) {
    if (!k.memory_bound) continue;
    const TimeNs iso = exec.solo_runtime(k, prof.spec().num_tpcs,
                                         prof.spec().num_channels, false);
    k = coloring::transform_kernel(k, iso).kernel;
  }
  return out;
}

ServingHarness::ServingHarness(HarnessOptions opt) : opt_(std::move(opt)) {
  SGDRC_REQUIRE(!opt_.ls_letters.empty(), "need at least one LS model");
  profiler_ =
      std::make_unique<OfflineProfiler>(opt_.spec, opt_.exec_params);

  for (const char c : opt_.ls_letters) {
    models::ModelDesc m = models::make_model(c);
    profiler_->profile(m);
    iso_.push_back(profiler_->isolated_latency(m));
    ls_spt_.push_back(transform_for_spt(m, *profiler_));
    ls_plain_.push_back(std::move(m));
  }
  for (const char c : opt_.be_letters) {
    models::ModelDesc m = models::make_model(c);
    profiler_->profile(m);
    be_spt_.push_back(transform_for_spt(m, *profiler_));
    be_plain_.push_back(std::move(m));
  }

  // Per-service rates: each service contributes utilization/n of the
  // serialized LS capacity, so cheap models get proportionally more
  // requests (the paper's trace drives all services simultaneously).
  const double n = static_cast<double>(ls_plain_.size());
  workload::TraceOptions topt;
  topt.services = static_cast<unsigned>(ls_plain_.size());
  topt.duration = opt_.duration;
  topt.scale = opt_.load_scale;
  topt.burstiness = opt_.burstiness;
  topt.seed = opt_.seed;
  for (size_t i = 0; i < ls_plain_.size(); ++i) {
    rates_.push_back(opt_.utilization /
                     (n * to_sec(iso_[i])));
    topt.per_service_rates.push_back(rates_.back());
  }
  trace_ = workload::generate_apollo_like_trace(topt);
}

workload::ServingMetrics ServingHarness::run(control::Controller& controller,
                                             bool spt) const {
  ServingSimBuilder builder;
  builder.gpu(opt_.spec)
      .executor_params(opt_.exec_params)
      .default_ls_instances(opt_.ls_instances)
      .duration(opt_.duration)
      .best_effort_mode(opt_.be_mode)
      // §9.2: n = services concurrently on the GPU = LS models + 1 BE
      // task (the rotation keeps one resident; concurrent mode keeps all).
      .slo_multiplier(static_cast<double>(
          ls_plain_.size() + (opt_.be_mode == BeMode::kRoundRobin
                                  ? 1
                                  : be_plain_.size())));

  const auto& ls_src = spt ? ls_spt_ : ls_plain_;
  for (size_t i = 0; i < ls_src.size(); ++i) {
    builder.add_latency_sensitive(ls_src[i], iso_[i]);
  }
  for (const auto& m : (spt ? be_spt_ : be_plain_)) {
    builder.add_best_effort(m);
  }
  return builder.build(controller)->run(trace_);
}

}  // namespace sgdrc::core
