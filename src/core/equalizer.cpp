#include "core/equalizer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <typeinfo>
#include <vector>

#ifndef NDEBUG
#include <bit>

#include "legacy/legacy_equalizer.hpp"
#endif

namespace heteroplace::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- search tuning: where the secant probes (never what is decided) ----
/// The floor doubles at most this often, down to kLowestFloor.
constexpr int kMaxWidenings = 16;
constexpr double kLowestFloor = kUFloor * (1 << kMaxWidenings);
/// The secant never probes closer than this to a bracket end, so an end
/// that interpolation keeps returning to (the stale side) still closes.
constexpr double kMinStep = 0.5 * kUTolerance;
/// First step away from the hint, and the growth of each later step
/// while the secant is undefined: an exact hint is bracketed in two
/// probes, a far one in a handful.
constexpr double kFirstStep = kUTolerance;
constexpr double kStepGrowth = 8.0;
/// A one-sided walk aims this far past the secant's root, so that its
/// next probe likely lands on the other side.
constexpr double kOvershoot = 1.2;
/// A bracket that has not halved in this many probes is split instead.
constexpr int kStallProbes = 3;
/// Cap on probes per search; the replay finishes whatever is left.
constexpr int kMaxProbes = 24;

/// s(u) = sign(u)·ln(1 + |u|): near-linear on [−1, 1], logarithmic
/// beyond. The window runs from kLowestFloor ≈ −6.6e8 to about 1.
double log_scale(double u) { return std::copysign(std::log1p(std::fabs(u)), u); }

/// Midpoint of [a, b] in s: the plain midpoint for a narrow bracket, a
/// geometric one for a bracket that spans orders of magnitude.
double log_midpoint(double a, double b) {
  const double m = 0.5 * (log_scale(a) + log_scale(b));
  return std::copysign(std::expm1(std::fabs(m)), m);
}

/// A transactional app's curve at its current arrival rate: the inputs of
/// TxUtilityModel::utility and alloc_for_utility, with the demand ceiling
/// precomputed.
struct TxCurve {
  double lambda;
  double service_demand;
  double rt_goal;
  double utility_cap;
  double rho_cap;
  double throughput_exponent;
  double importance;
  double demand_hi;
};

/// Inline mirror of TxUtilityModel::utility (raw_utility ∘ evaluate_tx,
/// divided by importance) for λ > 0. Operation order matches the model
/// code, so it returns the model's value bit for bit.
double tx_utility_at(const TxCurve& p, double alloc) {
  double raw;
  if (alloc <= 0.0) {
    raw = -1e3;
  } else if (p.service_demand <= 0.0) {
    raw = -kInf;  // infinite response time
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
/// of the demand ceiling. Monotone in u: every step compares the same
/// f(mid) against u.
double tx_alloc_for_utility(const TxCurve& p, double u) {
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

/// Every consumer's curve, read once per equalize() call in one sweep:
/// SoA job arrays (fn⁻¹ solved once per (fn, importance) group per u),
/// transactional curves, a constant for consumers whose allocation is
/// always zero (finished jobs, unloaded apps), and the virtual path for
/// consumers of any other type. Each value mirrors JobConsumer's and
/// TxConsumer's model code operation for operation, `speed_cap` clamp
/// included, so it equals what their virtual interface returns bit for
/// bit.
class CurveSnapshot {
 public:
  explicit CurveSnapshot(const std::vector<const UtilityConsumer*>& consumers) {
    refs_.reserve(consumers.size());
    demand_.reserve(consumers.size());
    for (auto* v : {&job_submit_, &job_goal_, &job_now_, &job_remaining_, &job_max_speed_,
                    &job_cap_, &job_utility_max_}) {
      v->reserve(consumers.size());
    }
    job_group_.reserve(consumers.size());
    for (const UtilityConsumer* c : consumers) {
      // Exact type: only these two classes' curves are mirrored.
      if (typeid(*c) == typeid(JobConsumer)) {
        add_job(static_cast<const JobConsumer&>(*c));
      } else if (typeid(*c) == typeid(TxConsumer)) {
        add_tx(static_cast<const TxConsumer&>(*c));
      } else {
        refs_.push_back({Kind::kGeneric, static_cast<std::uint32_t>(generic_.size())});
        generic_.push_back(c);
        note(c->demand_max().get(), c->utility_max());
      }
    }
  }

  /// Σ demand_max in input order.
  [[nodiscard]] double total_demand() const { return total_demand_; }
  /// max(kUFloor, max utility_max): the top of the bisection window.
  [[nodiscard]] double u_top() const { return u_top_; }
  [[nodiscard]] double u_min_max() const { return u_min_max_; }
  [[nodiscard]] double demand(std::size_t i) const { return demand_[i]; }
  /// Whether every curve is mirrored, so the evaluated total is monotone
  /// in u in floating point and the bracket may decide midpoints.
  [[nodiscard]] bool monotone() const { return generic_.empty(); }

  /// Σ alloc_for_utility(u): jobs in input order, then apps, then generic
  /// consumers (the seed loop's input-order sum, for input in that order).
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
        return job_alloc(r.idx, group_x_[job_group_[r.idx]]);
      case Kind::kTx:
        return tx_alloc_for_utility(tx_[r.idx], u);
      case Kind::kGeneric:
        break;
    }
    return generic_[r.idx]->alloc_for_utility(u).get();
  }

  /// utility_at(demand(i)). A job whose utility_max() was taken at that
  /// same speed (capped, or its demand is its max speed) reuses it.
  [[nodiscard]] double utility_at_demand(std::size_t i) const {
    const Ref r = refs_[i];
    if (r.kind == Kind::kJob &&
        (job_cap_[r.idx] < kInf || demand_[i] == job_max_speed_[r.idx])) {
      return job_utility_max_[r.idx];
    }
    return utility_at(i, demand_[i]);
  }

  /// utility_at(alloc) of the i-th consumer.
  [[nodiscard]] double utility_at(std::size_t i, double alloc) const {
    const Ref r = refs_[i];
    switch (r.kind) {
      case Kind::kZero:
        return zero_utility_[r.idx];
      case Kind::kJob:
        // JobConsumer::utility_at: the speed cap, then the model.
        return job_utility(r.idx, alloc > job_cap_[r.idx] ? job_cap_[r.idx] : alloc);
      case Kind::kTx:
        return tx_utility_at(tx_[r.idx], alloc);
      case Kind::kGeneric:
        break;
    }
    return generic_[r.idx]->utility_at(util::CpuMhz{alloc});
  }

 private:
  enum class Kind : std::uint8_t { kZero, kJob, kTx, kGeneric };
  struct Ref {
    Kind kind;
    std::uint32_t idx;  // into the kind's own arrays
  };
  struct Group {
    const utility::UtilityFunction* fn;
    double importance;
    double x_plateau;  // fn⁻¹ at the plateau utility: the demand ratio
    double u_limit;    // utility at an unreachable completion: fn(1e9)/w
  };

  void note(double demand, double utility_max) {
    demand_.push_back(demand);
    total_demand_ += demand;
    u_top_ = std::max(u_top_, utility_max);
    u_min_max_ = std::min(u_min_max_, utility_max);
  }

  void add_zero(double utility) {
    refs_.push_back({Kind::kZero, static_cast<std::uint32_t>(zero_utility_.size())});
    zero_utility_.push_back(utility);
    note(0.0, utility);
  }

  void add_job(const JobConsumer& c) {
    const workload::Job& job = c.job();
    const workload::JobSpec& spec = job.spec();
    const utility::UtilityFunction& fn = c.model().fn();
    const double w = spec.importance > 0.0 ? spec.importance : 1.0;
    if (job.finished()) {
      // Allocation and demand 0; utility_at(·) and utility_max() are both
      // the utility of completing now (JobUtilityModel::utility_at_completion).
      const double goal = spec.completion_goal.get();
      const double x = goal <= 0.0 ? kInf : (c.now().get() - spec.submit_time.get()) / goal;
      add_zero(std::isfinite(x) ? fn.value(x) / w : fn.value(1e9) / w);
      return;
    }
    const std::uint32_t j = static_cast<std::uint32_t>(job_group_.size());
    refs_.push_back({Kind::kJob, j});
    const std::uint32_t g = group_id(fn, w);
    job_group_.push_back(g);
    job_submit_.push_back(spec.submit_time.get());
    job_goal_.push_back(spec.completion_goal.get());
    job_now_.push_back(c.now().get());
    job_remaining_.push_back(job.remaining().get());
    const bool capped = c.capped();
    const util::CpuMhz cap = c.speed_cap();
    job_max_speed_.push_back(capped && spec.max_speed > cap ? cap.get() : spec.max_speed.get());
    job_cap_.push_back(capped ? cap.get() : kInf);
    // demand_max(): speed_for_utility at the plateau, capped. utility_max():
    // the utility at that capped demand, or at the nominal max speed when
    // uncapped.
    const double demand = job_alloc(j, groups_[g].x_plateau);
    job_utility_max_.push_back(job_utility(j, capped ? demand : spec.max_speed.get()));
    note(demand, job_utility_max_.back());
  }

  void add_tx(const TxConsumer& c) {
    const workload::TxAppSpec& spec = c.app().spec();
    const double w = spec.importance > 0.0 ? spec.importance : 1.0;
    const double lambda = c.lambda();
    if (lambda <= 0.0) {
      // Unloaded: allocation and demand 0, utility the cap at any CPU.
      add_zero(spec.utility_cap / w);
      return;
    }
    const double demand = c.model().demand_for_max_utility(spec, lambda).get();
    refs_.push_back({Kind::kTx, static_cast<std::uint32_t>(tx_.size())});
    tx_.push_back({lambda, spec.service_demand, spec.rt_goal.get(), spec.utility_cap,
                   spec.max_utilization, spec.throughput_exponent, w, demand});
    note(demand, spec.utility_cap / w);
  }

  /// Id of the (fn, importance) group, numbered in first-seen order. A
  /// linear scan: a cycle typically holds one or two groups.
  std::uint32_t group_id(const utility::UtilityFunction& fn, double importance) {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].fn == &fn && groups_[g].importance == importance) {
        return static_cast<std::uint32_t>(g);
      }
    }
    // JobUtilityModel::demand_for_max_utility's plateau, weighted back.
    const double u_plateau = fn.max_utility() / importance;
    groups_.push_back({&fn, importance, fn.inverse(u_plateau * importance),
                       fn.value(1e9) / importance});
    group_x_.push_back(0.0);
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
  /// inlined into the bisection loop, this loop made traced
  /// core.equalize_ms ~20% slower on the paper_x16 benchmark workload
  /// (GCC 12.2, -O3, shared 4-vCPU VM, 12/12 pairs).
  [[gnu::noinline]] double sum_job_allocs() const {
    double total = 0.0;
    for (std::size_t j = 0; j < job_group_.size(); ++j) {
      total += job_alloc(j, group_x_[job_group_[j]]);
    }
    return total;
  }

  /// Mirror of JobUtilityModel::speed_for_utility at completion ratio x,
  /// with JobConsumer's speed cap folded into the max speed.
  [[nodiscard]] double job_alloc(std::size_t j, double x) const {
    const double completion = job_submit_[j] + x * job_goal_[j];
    const double horizon = completion - job_now_[j];
    if (horizon <= 0.0) return job_max_speed_[j];
    return std::clamp(job_remaining_[j] / horizon, 0.0, job_max_speed_[j]);
  }

  /// Mirror of JobUtilityModel::hypothetical_utility for an unfinished
  /// job at `speed` (Job::predicted_completion, then utility_at_completion).
  [[nodiscard]] double job_utility(std::size_t j, double speed) const {
    const Group& g = groups_[job_group_[j]];
    if (speed <= 0.0) return g.u_limit;
    const double completion = job_now_[j] + job_remaining_[j] / speed;
    if (!std::isfinite(completion)) return g.u_limit;
    const double goal = job_goal_[j];
    if (goal <= 0.0) return g.u_limit;
    const double x = (completion - job_submit_[j]) / goal;
    if (!std::isfinite(x)) return g.u_limit;
    return g.fn->value(x) / g.importance;
  }

  std::vector<Ref> refs_;
  std::vector<double> demand_;
  double total_demand_{0.0};
  double u_top_{kUFloor};
  double u_min_max_{1e300};
  std::vector<Group> groups_;
  std::vector<std::uint32_t> job_group_;
  std::vector<double> job_submit_, job_goal_, job_now_, job_remaining_, job_max_speed_, job_cap_;
  std::vector<double> job_utility_max_;
  std::vector<TxCurve> tx_;
  std::vector<double> zero_utility_;
  std::vector<const UtilityConsumer*> generic_;
  mutable std::vector<double> group_x_;
  mutable double group_u_{kNaN};
};

/// The bisection on g(u) = total(u) − capacity, replayed. Every evaluated
/// point tightens the bracket (F, I): total(F) ≤ capacity < total(I).
/// Over a monotone snapshot the bracket decides any point outside it
/// without a pass, and search() shrinks it first by a bracketing secant.
/// A NaN total (a consumer with NaN or infinite inputs) never enters the
/// bracket, and it ends the search.
class RootFinder {
 public:
  RootFinder(const CurveSnapshot& snap, double capacity)
      : snap_(&snap), capacity_(capacity), infer_(snap.monotone()) {}

  /// total(u), or −∞ / +∞ where the bracket already says feasible /
  /// infeasible, so the caller's comparison with capacity is unchanged.
  double total(double u) {
    if (infer_) {
      if (u <= f_) return -kInf;
      if (u >= i_) return kInf;
    }
    return probe(u);
  }

  /// Shrink (F, I) to kUTolerance inside the window [kLowestFloor, hi],
  /// starting from `hint` (NaN: from the top and kUFloor). Only chooses
  /// where to probe; the replay makes every decision.
  ///
  /// Probes follow the secant through the last two probes on
  /// y(u) = capacity / total(u) − 1, which falls through 0 at the root
  /// and is near-linear in u where the job curves dominate (alloc =
  /// r / (a − b·u) for a linear fn). With one side known, the walk aims
  /// kOvershoot past the secant's root, or steps kStepGrowth× further
  /// where the secant is undefined or points back. With both sides known
  /// (Dekker's safeguards), the probe stays kMinStep inside the bracket,
  /// and the bracket is split at its log_midpoint when the secant leaves
  /// it, when it spans more than a factor e in 1 + |u|, or when it has
  /// not halved in kStallProbes probes.
  void search(double hint, double hi) {
    if (!infer_) return;
    if (std::isfinite(hint)) {
      probe(std::clamp(hint, kLowestFloor, hi));
    } else {
      probe(hi);
      if (i_ <= hi && kUFloor < hi) probe(kUFloor);
    }
    double step = kFirstStep;
    double halved_at = kInf;  // bracket width when it last halved
    int since_halved = 0;
    for (int n = 0; n < kMaxProbes && !saw_nan_; ++n) {
      const double secant = u1_ - y1_ * (u1_ - u0_) / (y1_ - y0_);  // NaN if undefined
      double u;
      if (f_ > -kInf && i_ < kInf) {
        const double width = i_ - f_;
        if (width <= kUTolerance) return;
        if (width <= 0.5 * halved_at) {
          halved_at = width;
          since_halved = 0;
        }
        const bool wide = log_scale(i_) - log_scale(f_) > 1.0;
        const bool inside = secant > f_ && secant < i_;
        u = wide || !inside || ++since_halved > kStallProbes ? log_midpoint(f_, i_) : secant;
        u = std::min(std::max(u, f_ + kMinStep), i_ - kMinStep);
      } else if (f_ > -kInf) {
        if (f_ >= hi) return;  // the window top is feasible: so is every midpoint
        u = secant > f_ && secant < kInf ? f_ + kOvershoot * (secant - f_) : f_ + step;
        u = std::min(std::max(u, f_ + kMinStep), hi);
        step *= kStepGrowth;
      } else if (i_ < kInf) {
        if (i_ <= kLowestFloor) return;  // so is every floor the replay may try
        u = secant < i_ && secant > -kInf ? i_ - kOvershoot * (i_ - secant) : i_ - step;
        u = std::max(std::min(u, i_ - kMinStep), kLowestFloor);
        step *= kStepGrowth;
      } else {
        return;
      }
      probe(u);
    }
  }

  [[nodiscard]] int passes() const { return passes_; }

 private:
  double probe(double u) {
    const double t = snap_->total_alloc_at(u);
    ++passes_;
    u0_ = u1_;
    y0_ = y1_;
    u1_ = u;
    y1_ = capacity_ / t - 1.0;
    if (t <= capacity_) {
      f_ = std::max(f_, u);
    } else if (t > capacity_) {
      i_ = std::min(i_, u);
    } else {
      saw_nan_ = true;
    }
    return t;
  }

  const CurveSnapshot* snap_;
  double capacity_;
  bool infer_;
  double f_{-kInf};  // highest feasible point
  double i_{kInf};   // lowest infeasible point
  // The last two probes (u1 the latest) and y = capacity / total − 1 there.
  double u0_{kNaN}, y0_{kNaN};
  double u1_{kNaN}, y1_{kNaN};
  int passes_{0};
  bool saw_nan_{false};
};

struct Bisection {
  double u_star;
  int iterations;
};

/// The plain bisection's u* and step count, replayed over `finder`.
Bisection bisect(RootFinder& finder, double hint, double u_hi, double capacity) {
  finder.search(hint, u_hi);
  // Widen the floor if even the floor's allocations exceed capacity
  // (can happen with extreme importance weights).
  double u_lo = kUFloor;
  for (int widen = 0; widen < kMaxWidenings && finder.total(u_lo) > capacity; ++widen) {
    u_lo *= 2.0;
  }

  int iters = 0;
  while (u_hi - u_lo > kUTolerance && iters < kMaxIterations) {
    const double mid = 0.5 * (u_lo + u_hi);
    if (finder.total(mid) <= capacity) {
      u_lo = mid;
    } else {
      u_hi = mid;
    }
    ++iters;
  }
  // Use the feasible side (total ≤ capacity).
  return {u_lo, iters};
}

#ifndef NDEBUG
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether `r` is the seed loop's result bit for bit.
bool matches_seed_loop(const EqualizeResult& r,
                       const std::vector<const UtilityConsumer*>& consumers,
                       util::CpuMhz capacity) {
  const EqualizeResult ref = bench::legacy::equalize_virtual(consumers, capacity);
  if (!same(r.u_star, ref.u_star) || r.contended != ref.contended ||
      r.iterations != ref.iterations || !same(r.total.get(), ref.total.get()) ||
      !same(r.total_demand.get(), ref.total_demand.get())) {
    return false;
  }
  for (std::size_t i = 0; i < r.allocations.size(); ++i) {
    if (!same(r.allocations[i].alloc.get(), ref.allocations[i].alloc.get()) ||
        !same(r.allocations[i].utility, ref.allocations[i].utility)) {
      return false;
    }
  }
  return true;
}
#endif

}  // namespace

EqualizeResult equalize(const std::vector<const UtilityConsumer*>& consumers,
                        util::CpuMhz capacity, double hint, const obs::ObsContext& obs) {
  EqualizeResult result;
  result.allocations.resize(consumers.size());
  if (consumers.empty()) return result;

  const double cap = capacity.get();
  std::optional<obs::Span> phase;  // the profiler-only equalize/* rows, one at a time
  phase.emplace(obs, obs::SpanKind::kEqualizeSnapshot, 0.0);
  const CurveSnapshot snap(consumers);
  result.total_demand = util::CpuMhz{snap.total_demand()};

  if (snap.total_demand() <= cap) {
    // Uncontended: everyone receives full demand.
    result.u_star = snap.u_min_max();
  } else {
    phase.emplace(obs, obs::SpanKind::kEqualizeSearch, 0.0);
    result.contended = true;
    RootFinder finder(snap, cap);
    const Bisection b = bisect(finder, hint, snap.u_top(), cap);
    result.passes = finder.passes();
    result.u_star = b.u_star;
    result.iterations = b.iterations;
  }

  phase.emplace(obs, obs::SpanKind::kEqualizeFinal, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    const double d = snap.demand(i);
    if (result.contended) {
      const double a = snap.alloc_at(i, result.u_star);
      result.allocations[i] = {util::CpuMhz{a}, snap.utility_at(i, a), util::CpuMhz{d}};
      total += a;
    } else {
      result.allocations[i] = {util::CpuMhz{d}, snap.utility_at_demand(i), util::CpuMhz{d}};
      total += d;
    }
  }
  // The bisection leaves a small slack (or FP overshoot). Scale down if
  // infeasible; leave tiny slack alone (the placement layer rounds anyway).
  if (result.contended && total > cap && total > 0.0) {
    const double scale = cap / total;
    total = 0.0;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      auto& alloc = result.allocations[i];
      alloc.alloc *= scale;
      alloc.utility = snap.utility_at(i, alloc.alloc.get());
      total += alloc.alloc.get();
    }
  }
  result.total = util::CpuMhz{total};
  phase.reset();

  assert(matches_seed_loop(result, consumers, capacity));
  return result;
}

}  // namespace heteroplace::core
