#include "core/equalizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace heteroplace::core {

namespace {

/// Lower bound of the utility search window; below any utility a
/// consumer can have under starvation.
constexpr double kUFloor = -1.0e4;
/// Bisection tolerance on u*.
constexpr double kUTolerance = 1.0e-5;
constexpr int kMaxIterations = 120;

/// Inline mirror of TxUtilityModel::utility (raw_utility ∘ evaluate_tx,
/// divided by importance). Operation order matches the model code so the
/// bisection below reproduces its results bit for bit.
double tx_utility_at(const CurveParams& p, double alloc) {
  double raw;
  if (alloc <= 0.0) {
    raw = -1e3;
  } else if (p.service_demand <= 0.0) {
    raw = -std::numeric_limits<double>::infinity();  // infinite response time
  } else {
    const double mu = alloc / p.service_demand;
    const double admit_cap = p.rho_cap * mu;
    const double admitted = std::min(p.lambda, admit_cap);
    const double ratio = admitted / p.lambda;
    const double rt = 1.0 / (mu - admitted);
    double u = (p.rt_goal - rt) / p.rt_goal;
    u = std::min(u, p.utility_cap);
    if (u > 0.0 && ratio < 1.0) u *= std::pow(ratio, p.throughput_exponent);
    raw = u;
  }
  return raw / p.importance;
}

/// Inline mirror of TxUtilityModel::alloc_for_utility: the same bisection
/// as util::invert_increasing (same bounds, tolerance, and iteration
/// cap), minus the std::function indirection and the per-call recompute
/// of the demand ceiling.
double tx_alloc_for_utility(const CurveParams& p, double u) {
  const double max_u = p.utility_cap / p.importance;
  if (u >= max_u) return p.demand_hi;
  double lo = 0.0;
  double hi = p.demand_hi;
  const double x_tol = 1e-6 * std::max(1.0, hi);
  if (tx_utility_at(p, lo) - u >= 0.0) return lo;
  if (tx_utility_at(p, hi) - u <= 0.0) return hi;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (tx_utility_at(p, mid) - u <= 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= x_tol) break;
  }
  return std::clamp(0.5 * (lo + hi), 0.0, p.demand_hi);
}

/// Flattened curve parameters for one equalize() call: SoA job arrays
/// (with fn⁻¹ shared across consumers that have the same utility function
/// and importance), transactional params, and a virtual-dispatch fallback
/// for consumers that export no closed form.
class CurveCache {
 public:
  explicit CurveCache(const std::vector<const UtilityConsumer*>& consumers) {
    refs_.reserve(consumers.size());
    for (auto* v : {&job_submit_, &job_goal_, &job_now_, &job_remaining_, &job_max_speed_}) {
      v->reserve(consumers.size());
    }
    job_group_.reserve(consumers.size());
    for (const auto* c : consumers) {
      CurveParams p = c->curve_params();
      switch (p.form) {
        case CurveParams::Form::kZero:
          refs_.push_back({Kind::kZero, 0});
          break;
        case CurveParams::Form::kJobInverse: {
          refs_.push_back({Kind::kJob, static_cast<std::uint32_t>(job_group_.size())});
          job_group_.push_back(group_id(p.fn, p.importance));
          job_submit_.push_back(p.submit);
          job_goal_.push_back(p.goal);
          job_now_.push_back(p.now);
          job_remaining_.push_back(p.remaining);
          job_max_speed_.push_back(p.max_speed);
          break;
        }
        case CurveParams::Form::kTxQueueing:
          refs_.push_back({Kind::kTx, static_cast<std::uint32_t>(tx_.size())});
          tx_.push_back(p);
          break;
        case CurveParams::Form::kGeneric:
          refs_.push_back({Kind::kGeneric, static_cast<std::uint32_t>(generic_.size())});
          generic_.push_back(c);
          break;
      }
    }
    group_x_.resize(groups_.size());
  }

  /// Σ alloc_for_utility(u) across all consumers.
  [[nodiscard]] double total_alloc_at(double u) const {
    solve_groups(u);
    double total = sum_job_allocs();
    for (const auto& p : tx_) total += tx_alloc_for_utility(p, u);
    for (const auto* c : generic_) total += c->alloc_for_utility(u).get();
    return total;
  }

  /// alloc_for_utility(u) of the i-th consumer (input order).
  [[nodiscard]] double alloc_at(std::size_t i, double u) const {
    const Ref r = refs_[i];
    switch (r.kind) {
      case Kind::kZero:
        return 0.0;
      case Kind::kJob:
        solve_groups(u);
        return job_alloc(r.idx);
      case Kind::kTx:
        return tx_alloc_for_utility(tx_[r.idx], u);
      case Kind::kGeneric:
        break;
    }
    return generic_[r.idx]->alloc_for_utility(u).get();
  }

 private:
  enum class Kind : std::uint8_t { kZero, kJob, kTx, kGeneric };
  struct Ref {
    Kind kind;
    std::uint32_t idx;  // into the kind's own array
  };
  struct Group {
    const utility::UtilityFunction* fn;
    double importance;
  };

  /// Id of the (fn, importance) group, numbered in first-seen order. A
  /// linear scan: a cycle typically holds one or two groups.
  std::uint32_t group_id(const utility::UtilityFunction* fn, double importance) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].fn == fn && groups_[g].importance == importance) {
        return static_cast<std::uint32_t>(g);
      }
    }
    groups_.push_back({fn, importance});
    return static_cast<std::uint32_t>(groups_.size() - 1);
  }

  /// Solve fn⁻¹(u·w) once per (fn, importance) group; every job in the
  /// group then needs only flat arithmetic.
  void solve_groups(double u) const {
    if (u == group_u_) return;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      group_x_[g] = groups_[g].fn->inverse(u * groups_[g].importance);
    }
    group_u_ = u;
  }

  /// Σ job_alloc over all jobs, in job order. Out of line on purpose:
  /// inlined into equalize()'s bisection loop, this loop made traced
  /// core.equalize_ms ~20% slower on the paper_x16 benchmark workload
  /// (GCC 12.2, -O3, shared 4-vCPU VM, 12/12 pairs).
  [[gnu::noinline]] double sum_job_allocs() const {
    double total = 0.0;
    for (std::size_t j = 0; j < job_group_.size(); ++j) total += job_alloc(j);
    return total;
  }

  /// Mirror of JobUtilityModel::speed_for_utility with the fn inversion
  /// hoisted into solve_groups().
  [[nodiscard]] double job_alloc(std::size_t j) const {
    const double x = group_x_[job_group_[j]];
    const double completion = job_submit_[j] + x * job_goal_[j];
    const double horizon = completion - job_now_[j];
    if (horizon <= 0.0) return job_max_speed_[j];
    return std::clamp(job_remaining_[j] / horizon, 0.0, job_max_speed_[j]);
  }

  std::vector<Ref> refs_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> job_group_;
  std::vector<double> job_submit_, job_goal_, job_now_, job_remaining_, job_max_speed_;
  std::vector<CurveParams> tx_;
  std::vector<const UtilityConsumer*> generic_;
  mutable std::vector<double> group_x_;
  mutable double group_u_{std::numeric_limits<double>::quiet_NaN()};
};

}  // namespace

EqualizeResult equalize(const std::vector<const UtilityConsumer*>& consumers,
                        util::CpuMhz capacity) {
  EqualizeResult result;
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
    // Uncontended: everyone receives full demand.
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

  const CurveCache cache(consumers);

  // Widen the floor if even the floor's allocations exceed capacity
  // (can happen with extreme importance weights).
  double u_lo = kUFloor;
  for (int widen = 0; widen < 16 && cache.total_alloc_at(u_lo) > capacity.get(); ++widen) {
    u_lo *= 2.0;
  }

  int iters = 0;
  // Bisect g(u) = total_alloc(u) − capacity, monotone non-decreasing.
  while (u_hi - u_lo > kUTolerance && iters < kMaxIterations) {
    const double mid = 0.5 * (u_lo + u_hi);
    if (cache.total_alloc_at(mid) <= capacity.get()) {
      u_lo = mid;
    } else {
      u_hi = mid;
    }
    ++iters;
  }
  result.iterations = iters;
  // Use the feasible side (total ≤ capacity).
  result.u_star = u_lo;

  double total = 0.0;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    const util::CpuMhz a{cache.alloc_at(i, result.u_star)};
    result.allocations[i] = {a, consumers[i]->utility_at(a)};
    total += a.get();
  }

  // The bisection leaves a small slack (or FP overshoot). Scale down if
  // infeasible; leave tiny slack alone (the placement layer rounds anyway).
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

}  // namespace heteroplace::core
