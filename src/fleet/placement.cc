#include "fleet/placement.h"

#include <algorithm>
#include <limits>

namespace sgdrc::fleet {

namespace {

unsigned clamped_replicas(const FleetTenantSpec& t, unsigned devices) {
  SGDRC_REQUIRE(t.replicas >= 1, "tenant needs at least one replica");
  return std::min(t.replicas, devices);
}

double derived_weight(const FleetTenantSpec& t) {
  if (t.weight > 0.0) return t.weight;
  return t.spec.qos == QosClass::kLatencySensitive
             ? static_cast<double>(t.spec.isolated_latency)
             : 1.0;
}

}  // namespace

double relative_perf(const gpusim::GpuSpec& s, const gpusim::GpuSpec& base) {
  const double tpc = base.num_tpcs > 0
                         ? static_cast<double>(s.num_tpcs) /
                               static_cast<double>(base.num_tpcs)
                         : 1.0;
  const double bw = base.vram_gbps > 0.0 ? s.vram_gbps / base.vram_gbps : 1.0;
  return 0.5 * (tpc + bw);
}

std::vector<double> device_perf_factors(
    const std::vector<gpusim::GpuSpec>& specs, const gpusim::GpuSpec& base) {
  std::vector<double> out;
  out.reserve(specs.size());
  for (const auto& s : specs) out.push_back(relative_perf(s, base));
  return out;
}

Assignment SpreadPlacement::place(const std::vector<FleetTenantSpec>& tenants,
                                  unsigned devices) const {
  std::vector<unsigned> count(devices, 0);
  Assignment out(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    std::vector<bool> used(devices, false);
    for (unsigned r = 0; r < clamped_replicas(tenants[t], devices); ++r) {
      DeviceId best = 0;
      unsigned best_count = std::numeric_limits<unsigned>::max();
      for (DeviceId d = 0; d < devices; ++d) {
        if (!used[d] && count[d] < best_count) {
          best = d;
          best_count = count[d];
        }
      }
      used[best] = true;
      ++count[best];
      out[t].push_back(best);
    }
  }
  return out;
}

Assignment PackPlacement::place(const std::vector<FleetTenantSpec>& tenants,
                                unsigned devices) const {
  SGDRC_REQUIRE(per_device_ >= 1, "pack capacity must be positive");
  std::vector<unsigned> count(devices, 0);
  Assignment out(tenants.size());
  for (size_t t = 0; t < tenants.size(); ++t) {
    std::vector<bool> used(devices, false);
    for (unsigned r = 0; r < clamped_replicas(tenants[t], devices); ++r) {
      // First device with room; when every device is at capacity, fall
      // back to the least-loaded one (capacity is a preference, not an
      // admission limit — the fleet never rejects work).
      DeviceId best = 0;
      bool found = false;
      for (DeviceId d = 0; d < devices && !found; ++d) {
        if (!used[d] && count[d] < per_device_) {
          best = d;
          found = true;
        }
      }
      if (!found) {
        unsigned best_count = std::numeric_limits<unsigned>::max();
        for (DeviceId d = 0; d < devices; ++d) {
          if (!used[d] && count[d] < best_count) {
            best = d;
            best_count = count[d];
          }
        }
      }
      used[best] = true;
      ++count[best];
      out[t].push_back(best);
    }
  }
  return out;
}

Assignment QosAwarePlacement::place(
    const std::vector<FleetTenantSpec>& tenants, unsigned devices) const {
  SGDRC_REQUIRE(perf_.empty() || perf_.size() == devices,
                "perf factors must be empty (homogeneous) or list one "
                "per device");
  std::vector<double> ls_load(devices, 0.0);
  std::vector<unsigned> be_count(devices, 0);
  // Heterogeneity: compare perf-normalized load, so a 2x device looks
  // half as crowded at equal raw load. Homogeneous (empty perf_) values
  // pass through untouched — integer BE counts compare exactly as
  // doubles, so the legacy decisions are reproduced bit-for-bit.
  const auto nls = [&](DeviceId d) {
    return perf_.empty() ? ls_load[d] : ls_load[d] / perf_[d];
  };
  const auto nbe = [&](DeviceId d) {
    const double c = static_cast<double>(be_count[d]);
    return perf_.empty() ? c : c / perf_[d];
  };
  Assignment out(tenants.size());
  // LS first so BE sees the final LS landscape regardless of spec order.
  for (const QosClass qos :
       {QosClass::kLatencySensitive, QosClass::kBestEffort}) {
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (tenants[t].spec.qos != qos) continue;
      const double w = derived_weight(tenants[t]);
      std::vector<bool> used(devices, false);
      for (unsigned r = 0; r < clamped_replicas(tenants[t], devices); ++r) {
        DeviceId best = 0;
        bool have = false;
        for (DeviceId d = 0; d < devices; ++d) {
          if (used[d]) continue;
          if (!have) {
            best = d;
            have = true;
            continue;
          }
          const bool better =
              qos == QosClass::kLatencySensitive
                  ? nls(d) < nls(best) ||
                        (nls(d) == nls(best) && nbe(d) < nbe(best))
                  : nbe(d) < nbe(best) ||
                        (nbe(d) == nbe(best) && nls(d) < nls(best));
          if (better) best = d;
        }
        used[best] = true;
        if (qos == QosClass::kLatencySensitive) {
          ls_load[best] += w;
        } else {
          ++be_count[best];
        }
        out[t].push_back(best);
      }
    }
  }
  return out;
}

Assignment QuotaAwarePlacement::place(
    const std::vector<FleetTenantSpec>& tenants, unsigned devices) const {
  // Per-device bin capacities: uniform from the scalar constructor, or
  // the heterogeneous shapes. The scalar path builds the same vectors,
  // so both run one algorithm and the uniform case is unchanged.
  std::vector<unsigned> cap(devices, capacity_);
  std::vector<uint64_t> capb(devices, capacity_bytes_);
  if (!shapes_.empty()) {
    SGDRC_REQUIRE(shapes_.size() == devices,
                  "device shapes must list one capacity per device");
    for (DeviceId d = 0; d < devices; ++d) {
      cap[d] = shapes_[d].tpcs;
      capb[d] = shapes_[d].vram_bytes;
    }
  }
  unsigned cap_max = 0;
  uint64_t cb = 0;  // max byte bin; 0 = byte dimension disabled
  for (DeviceId d = 0; d < devices; ++d) {
    cap_max = std::max(cap_max, cap[d]);
    cb = std::max(cb, capb[d]);
  }
  SGDRC_REQUIRE(cap_max >= 1, "quota bin capacity must be positive");
  // A replica's expected VRAM footprint: its declared memory quota when
  // it has one, else its model's weight bytes (weights occupy VRAM when
  // resident whether or not the tenant reserved them).
  const auto demand_bytes = [&](size_t t) -> uint64_t {
    if (cb == 0) return 0;
    const auto& spec = tenants[t].spec;
    return spec.vgpu.memory_bytes ? spec.vgpu.memory_bytes
                                  : spec.model->weight_bytes();
  };
  // First-fit-decreasing over (guaranteed TPCs, VRAM bytes) — decreasing
  // in the dominant normalized dimension (against the biggest bin), the
  // classic vector-bin-packing reduction: place the biggest reservations
  // while every bin is still roomy, then balance the unguaranteed
  // tenants onto whatever headroom is left. With cb == 0 the key
  // degenerates to guaranteed TPCs and the order (ties included)
  // matches the TPC-only policy exactly.
  const auto sort_key = [&](size_t t) {
    const double g =
        static_cast<double>(tenants[t].spec.vgpu.guaranteed_tpcs) / cap_max;
    const double m =
        cb ? static_cast<double>(demand_bytes(t)) / static_cast<double>(cb)
           : 0.0;
    return std::max(g, m);
  };
  std::vector<size_t> order(tenants.size());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sort_key(a) > sort_key(b);
  });

  std::vector<unsigned> reserved(devices, 0);  // guaranteed TPCs per bin
  std::vector<uint64_t> bytes(devices, 0);     // placed VRAM demand per bin
  std::vector<unsigned> count(devices, 0);     // replicas per bin
  Assignment out(tenants.size());
  for (const size_t t : order) {
    const unsigned g = tenants[t].spec.vgpu.guaranteed_tpcs;
    const uint64_t mb = cb ? tenants[t].spec.vgpu.memory_bytes : 0;
    const uint64_t db = demand_bytes(t);
    std::vector<bool> used(devices, false);
    for (unsigned r = 0; r < clamped_replicas(tenants[t], devices); ++r) {
      const auto headroom = [&](DeviceId x) {
        return cap[x] > reserved[x] ? cap[x] - reserved[x] : 0u;
      };
      const auto byte_headroom = [&](DeviceId x) {
        return capb[x] > bytes[x] ? capb[x] - bytes[x] : uint64_t{0};
      };
      DeviceId best = 0;
      bool have = false;
      if (g > 0 || mb > 0) {
        // First fit with room for the reservation in both dimensions.
        for (DeviceId d = 0; d < devices && !have; ++d) {
          if (!used[d] && reserved[d] + g <= cap[d] &&
              (cb == 0 || bytes[d] + db <= capb[d])) {
            best = d;
            have = true;
          }
        }
      }
      if (!have) {
        // Unguaranteed replicas — and guaranteed ones no bin can hold
        // (the device sim rejects truly overcommitted reservations at
        // add time, loudly) — go to the most unreserved TPC headroom,
        // breaking ties toward the most byte headroom, then the fewest
        // replicas, then the lowest id.
        for (DeviceId d = 0; d < devices; ++d) {
          if (used[d]) continue;
          if (!have || headroom(d) > headroom(best) ||
              (headroom(d) == headroom(best) &&
               (byte_headroom(d) > byte_headroom(best) ||
                (byte_headroom(d) == byte_headroom(best) &&
                 count[d] < count[best])))) {
            best = d;
            have = true;
          }
        }
      }
      SGDRC_CHECK(have, "quota placement found no device");
      used[best] = true;
      reserved[best] += g;
      bytes[best] += db;
      ++count[best];
      out[t].push_back(best);
    }
  }
  return out;
}

void validate_assignment(const Assignment& assignment,
                         const std::vector<FleetTenantSpec>& tenants,
                         unsigned devices) {
  SGDRC_REQUIRE(assignment.size() == tenants.size(),
                "assignment must cover every tenant");
  for (size_t t = 0; t < tenants.size(); ++t) {
    const auto& reps = assignment[t];
    SGDRC_REQUIRE(reps.size() ==
                      std::min<size_t>(tenants[t].replicas, devices),
                  "wrong replica count for tenant");
    std::vector<bool> seen(devices, false);
    for (const DeviceId d : reps) {
      SGDRC_REQUIRE(d < devices, "replica on an out-of-range device");
      SGDRC_REQUIRE(!seen[d], "two replicas of one tenant share a device");
      seen[d] = true;
    }
  }
}

}  // namespace sgdrc::fleet
