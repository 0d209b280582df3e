#include "forwarding.h"

#include <utility>

namespace perfbench {

using sgdrc::control::Directive;
using sgdrc::control::ResourcePlan;
using sgdrc::workload::QosClass;

ResourcePlan ForwardingController::plan(const sgdrc::control::SimView& view) {
  if (!probe_) return inner_->plan(view);

  LayerProbe& p = *probe_;
  // The plan span encloses a child span for sampling the sim, so the
  // sampling cost never counts as plan time or as the event's own time.
  const size_t span = p.spans->open_unit(p.n_plan);
  {
    ScopedSpan probe_span(p.spans, p.n_probe);
    p.corunners.add(view.running_infos().size());
    p.waiting_depth.add(view.waiting_jobs(QosClass::kLatencySensitive).size() +
                        view.waiting_jobs(QosClass::kBestEffort).size());
  }
  const int64_t start = host_ns();
  ResourcePlan plan = inner_->plan(view);
  const int64_t end = host_ns();
  p.spans->close_at(span, end);

  ++p.plan_calls;
  p.plan_ns.add(static_cast<uint64_t>(end - start));
  (plan.pre_applied ? p.legacy_plan_ns : p.native_plan_ns) += end - start;
  p.empty_plans += plan.empty();
  p.launch_directives += plan.count(Directive::Kind::kLaunch);
  p.evict_directives += plan.count(Directive::Kind::kEvict);
  p.wake_directives += plan.count(Directive::Kind::kWakeAt);
  return plan;
}

sgdrc::control::ControllerFactory forwarding_factory(
    sgdrc::control::ControllerFactory inner, LayerProbe* probe) {
  return [inner = std::move(inner), probe](const sgdrc::gpusim::GpuSpec& spec)
             -> std::unique_ptr<sgdrc::control::Controller> {
    return std::make_unique<ForwardingController>(inner(spec), probe);
  };
}

size_t ForwardingRouter::route(
    const sgdrc::fleet::FleetSim& fleet, unsigned tenant,
    const std::vector<sgdrc::fleet::Replica>& replicas) {
  if (!probe_) return inner_.route(fleet, tenant, replicas);
  const int64_t start = host_ns();
  const size_t span = probe_->spans->open_unit_at(probe_->n_route, start);
  const size_t pick = inner_.route(fleet, tenant, replicas);
  const int64_t end = host_ns();
  probe_->spans->close_at(span, end);
  probe_->route_ns.add(static_cast<uint64_t>(end - start));
  return pick;
}

sgdrc::fleet::Assignment ForwardingPlacement::place(
    const std::vector<sgdrc::fleet::FleetTenantSpec>& tenants,
    unsigned devices) const {
  if (!probe_) return inner_.place(tenants, devices);
  const int64_t start = host_ns();
  const size_t span = probe_->spans->open_at(probe_->n_place, start);
  sgdrc::fleet::Assignment out = inner_.place(tenants, devices);
  const int64_t end = host_ns();
  probe_->spans->close_at(span, end);
  probe_->place_ns += end - start;
  return out;
}

}  // namespace perfbench
