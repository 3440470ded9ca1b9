#include "legacy/legacy_equalizer.hpp"

#include <algorithm>
#include <cstddef>

namespace heteroplace::bench::legacy {

namespace {

using core::kMaxIterations;
using core::kUFloor;
using core::kUTolerance;

/// Σ alloc_for_utility(u) over all consumers via the virtual interface.
double total_alloc_at(const std::vector<const core::UtilityConsumer*>& consumers, double u) {
  double total = 0.0;
  for (const auto* c : consumers) total += c->alloc_for_utility(u).get();
  return total;
}

}  // namespace

core::EqualizeResult equalize_virtual(const std::vector<const core::UtilityConsumer*>& consumers,
                                      util::CpuMhz capacity) {
  core::EqualizeResult result;
  result.allocations.resize(consumers.size());
  if (consumers.empty()) return result;

  double total_demand = 0.0;
  double u_hi = kUFloor;
  double u_min_max = 1e300;
  for (const auto* c : consumers) {
    total_demand += c->demand_max().get();
    u_hi = std::max(u_hi, c->utility_max());
    u_min_max = std::min(u_min_max, c->utility_max());
  }
  result.total_demand = util::CpuMhz{total_demand};

  if (total_demand <= capacity.get()) {
    result.contended = false;
    result.u_star = u_min_max;
    double total = 0.0;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      const util::CpuMhz a = consumers[i]->demand_max();
      result.allocations[i] = {a, consumers[i]->utility_at(a)};
      total += a.get();
    }
    result.total = util::CpuMhz{total};
    return result;
  }

  result.contended = true;
  // Widen the floor if even the floor's allocations exceed capacity
  // (can happen with extreme importance weights).
  double u_lo = kUFloor;
  for (int widen = 0; widen < 16 && total_alloc_at(consumers, u_lo) > capacity.get(); ++widen) {
    u_lo *= 2.0;
  }

  int iters = 0;
  while (u_hi - u_lo > kUTolerance && iters < kMaxIterations) {
    const double mid = 0.5 * (u_lo + u_hi);
    if (total_alloc_at(consumers, mid) <= capacity.get()) {
      u_lo = mid;
    } else {
      u_hi = mid;
    }
    ++iters;
  }
  result.iterations = iters;
  result.u_star = u_lo;  // the feasible side (total ≤ capacity)

  double total = 0.0;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    const util::CpuMhz a = consumers[i]->alloc_for_utility(result.u_star);
    result.allocations[i] = {a, consumers[i]->utility_at(a)};
    total += a.get();
  }

  // The bisection leaves a small slack (or FP overshoot): scale down if
  // infeasible.
  if (total > capacity.get() && total > 0.0) {
    const double scale = capacity.get() / total;
    total = 0.0;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      result.allocations[i].alloc *= scale;
      result.allocations[i].utility = consumers[i]->utility_at(result.allocations[i].alloc);
      total += result.allocations[i].alloc.get();
    }
  }
  result.total = util::CpuMhz{total};
  return result;
}

}  // namespace heteroplace::bench::legacy
