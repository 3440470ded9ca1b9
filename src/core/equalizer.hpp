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
// function  g(u) = Σ alloc_for_utility(u) − capacity  is monotone in u.
// u* is what a fixed bisection on g over [kUFloor, max utility_max] ends
// on (kUTolerance wide, at most kMaxIterations steps, the floor doubled
// while even it is infeasible). This is the formal version of
// "continuously stealing resources from the more satisfied applications
// to give to the less satisfied applications".
//
// The bisection decides u*, but it does not pay one pass over the
// consumers per step. The evaluated total is weakly monotone in u, in
// floating point too: correctly rounded +, −, ×, ÷ and clamp are
// monotone, the transactional inverse bisects by comparing the same
// f(mid) against u, and fn⁻¹ is monotone. So every evaluated point
// brackets the answer: a midpoint at or below a feasible point (total ≤
// capacity) is feasible, and one at or above an infeasible point is not.
// A bracketing secant on capacity/total − 1, warm-started from a hint
// (the caller's previous u*), first shrinks that bracket to the
// tolerance; the bisection is then replayed, and only the midpoints still
// inside the bracket cost a pass. u*, the iteration count and every
// allocation are bit for bit those of the seed loop, the plain bisection
// by virtual dispatch (bench/legacy/legacy_equalizer.hpp, asserted in
// debug builds), as long as jobs come ahead of transactional apps and
// other consumers last. Consumers other than JobConsumer and TxConsumer
// have no flat curve and promise monotonicity only in exact arithmetic;
// with one present, every midpoint is evaluated.

#include <limits>
#include <vector>

#include "core/consumer.hpp"
#include "obs/context.hpp"
#include "util/units.hpp"

namespace heteroplace::core {

/// Lower end of the bisection window on u*; below any utility a consumer
/// can have under starvation (doubled while infeasible, at most 16 times).
inline constexpr double kUFloor = -1.0e4;
/// Width on u* at which the bisection stops.
inline constexpr double kUTolerance = 1.0e-5;
/// Cap on bisection steps.
inline constexpr int kMaxIterations = 120;

struct ConsumerAllocation {
  util::CpuMhz alloc{0.0};   // equalized CPU target
  double utility{0.0};       // hypothetical utility at that target
  util::CpuMhz demand{0.0};  // the consumer's demand_max()
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
  /// Bisection steps on u* (the replayed count, not the passes paid).
  int iterations{0};
  /// Passes over the consumers this call paid to evaluate Σ alloc(u):
  /// secant probes plus replayed midpoints (0 when uncontended).
  int passes{0};
};

/// Equalize hypothetical utility across `consumers` subject to `capacity`.
/// The result is order-independent up to the bisection tolerance, but
/// debug builds check it bit for bit against the seed loop's input-order
/// sums, so pass jobs ahead of apps and other consumers last (as
/// UtilityDrivenPolicy does). `hint` is where the search starts (the
/// previous cycle's u*, or NaN for none); it changes only the number of
/// passes, never the result. `obs` feeds the profiler-only rows
/// equalize/snapshot, equalize/search and equalize/final.
[[nodiscard]] EqualizeResult equalize(const std::vector<const UtilityConsumer*>& consumers,
                                      util::CpuMhz capacity,
                                      double hint = std::numeric_limits<double>::quiet_NaN(),
                                      const obs::ObsContext& obs = {});

}  // namespace heteroplace::core
