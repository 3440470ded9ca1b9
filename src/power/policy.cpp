#include "power/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace heteroplace::power {

namespace {
using cluster::PowerState;
}  // namespace

ConsolidationActions NoConsolidationPolicy::decide(const ConsolidationInput&, util::Seconds) {
  return {};
}

ConsolidationActions IdleParkPolicy::decide(const ConsolidationInput& in, util::Seconds) {
  ConsolidationActions out;
  const PowerModel& model = *in.model;
  const double scale = model.speed_at(in.pstate);
  const double needed = in.offered_cpu_mhz * config_.headroom_factor;
  double supply = in.active_cpu_mhz + in.waking_cpu_mhz;

  // Nodes that are (or will shortly be) serving placements.
  int active_like = 0;
  for (const NodePowerView& n : in.nodes) {
    if (n.state == PowerState::kActive || n.state == PowerState::kWaking) ++active_like;
  }

  // CPU headroom is not the only way placement can starve: a pending or
  // suspended job whose image fits no awake node's free memory needs a
  // wake however much CPU is spare.
  const double mem_need = in.unplaced_image_mb;
  auto mem_hosts = [&](double need) {
    int hosts = 0;
    for (const NodePowerView& n : in.nodes) {
      const bool arriving = n.state == PowerState::kWaking;  // empty when it lands
      if ((n.state == PowerState::kActive && n.mem_free_mb >= need) ||
          (arriving && n.mem_capacity_mb >= need)) {
        ++hosts;
      }
    }
    return hosts;
  };

  int hosts = mem_need > 0.0 ? mem_hosts(mem_need) : 0;
  if (mem_need > 0.0 && hosts == 0) {
    // Memory-blocked: wake the first parked node big enough.
    for (const NodePowerView& n : in.nodes) {
      if (n.state != PowerState::kParked || n.mem_capacity_mb < mem_need) continue;
      out.wake.push_back(n.id);
      supply += n.cpu_capacity_mhz * scale;
      ++active_like;
      ++hosts;
      break;
    }
  }

  if (supply < needed) {
    // Demand outruns the awake pool: wake parked nodes, lowest id first,
    // until projected capacity covers the load with headroom. Woken
    // capacity arrives after the wake latency, exactly like the waking
    // pool already counted in `supply`.
    for (const NodePowerView& n : in.nodes) {
      if (supply >= needed) break;
      if (n.state != PowerState::kParked) continue;
      if (!out.wake.empty() && out.wake.front() == n.id) continue;  // memory wake above
      out.wake.push_back(n.id);
      supply += n.cpu_capacity_mhz * scale;
      ++active_like;
    }
  } else if (out.wake.empty()) {
    // Surplus: park nodes that have sat empty past the idle timeout, as
    // long as the survivors still cover the load with headroom, the
    // active floor holds, and a memory-blocked pending job keeps at
    // least one big-enough host awake. Highest ids park first so the
    // low end of the cluster stays hot (deterministic, and placement
    // already prefers low indices on ties).
    for (auto it = in.nodes.rbegin(); it != in.nodes.rend(); ++it) {
      const NodePowerView& n = *it;
      if (n.state != PowerState::kActive || !n.empty) continue;
      if (n.idle_s < config_.idle_timeout_s) continue;
      if (active_like <= in.min_active_nodes) break;
      const double contribution = n.cpu_capacity_mhz * scale;
      if (supply - contribution < needed) continue;  // a smaller node may still fit
      const bool memory_host = mem_need > 0.0 && n.mem_free_mb >= mem_need;
      if (memory_host && hosts <= 1) continue;  // last node that fits the blocked image
      out.park.push_back(n.id);
      supply -= contribution;
      --active_like;
      if (memory_host) --hosts;
    }
  }

  // Power cap: walk the P-state ladder down until the projected steady
  // draw (post park/wake) fits under the cap; the deepest entry is the
  // floor. Uncapped runs pin P0 so a lifted cap un-throttles.
  if (in.cap_w > 0.0) {
    int awake = 0;   // drawing active power: active, parking, waking
    int parked = 0;
    for (const NodePowerView& n : in.nodes) {
      if (n.state == PowerState::kParked) {
        ++parked;
      } else {
        ++awake;
      }
    }
    awake -= static_cast<int>(out.park.size());
    parked += static_cast<int>(out.park.size());
    awake += static_cast<int>(out.wake.size());
    parked -= static_cast<int>(out.wake.size());

    int target = model.deepest_pstate();
    for (int p = 0; p <= model.deepest_pstate(); ++p) {
      const double projected = static_cast<double>(awake) * model.active_w(p) +
                               static_cast<double>(parked) * model.parked_w(in.park_depth);
      if (projected <= in.cap_w) {
        target = p;
        break;
      }
    }
    out.target_pstate = target;
  } else {
    out.target_pstate = 0;
  }
  return out;
}

std::unique_ptr<ConsolidationPolicy> make_consolidation_policy(const std::string& name,
                                                               IdleParkConfig config) {
  if (name == "none") return std::make_unique<NoConsolidationPolicy>();
  if (name == "idle-park") return std::make_unique<IdleParkPolicy>(config);
  throw std::invalid_argument("unknown consolidation policy: " + name +
                              " (expected none|idle-park)");
}

}  // namespace heteroplace::power
