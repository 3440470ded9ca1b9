#pragma once

// Hypothetical-utility equalization — the paper's core resource arbiter.
//
// Pretend all consumers can be served simultaneously and CPU is infinitely
// divisible. Find the common utility level u* such that giving every
// consumer exactly the CPU it needs to reach u* exhausts the cluster
// capacity. Consumers that cannot reach u* even at their maximum useful
// allocation are clamped there (and sit below u*); if total demand fits,
// everyone simply receives full demand (the uncontended regime).
//
// Because every consumer's CPU-for-utility curve is monotone, the excess
// function  g(u) = Σ alloc_for_utility(u) − capacity  is monotone in u and
// the fixed point is found by bisection. This is the formal version of
// "continuously stealing resources from the more satisfied applications
// to give to the less satisfied applications".

#include <vector>

#include "core/consumer.hpp"
#include "util/units.hpp"

namespace heteroplace::core {

struct ConsumerAllocation {
  util::CpuMhz alloc{0.0};  // equalized CPU target
  double utility{0.0};      // hypothetical utility at that target
};

struct EqualizeResult {
  /// Common utility level (max achievable min-utility). In the
  /// uncontended regime this is the smallest utility_max() and no
  /// consumer is constrained.
  double u_star{0.0};
  /// True when capacity binds (some consumer is below its demand).
  bool contended{false};
  /// Per-consumer targets, parallel to the input vector.
  std::vector<ConsumerAllocation> allocations;
  /// Σ allocations (≤ capacity + tolerance).
  util::CpuMhz total{0.0};
  /// Σ demand_max across consumers (the "demand" curves of Figure 2).
  util::CpuMhz total_demand{0.0};
  int iterations{0};
};

/// Equalize hypothetical utility across `consumers` subject to `capacity`.
/// Consumers may be in any order; the result is order-independent up to
/// the bisection tolerance.
[[nodiscard]] EqualizeResult equalize(const std::vector<const UtilityConsumer*>& consumers,
                                      util::CpuMhz capacity);

}  // namespace heteroplace::core
