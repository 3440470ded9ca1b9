#pragma once

// Utility consumers: the common currency abstraction.
//
// The equalizer sees every workload — each long-running job and each
// transactional application — as a "consumer" exposing a monotone
// non-decreasing utility-of-allocation curve and its inverse. This is the
// mechanism that makes the heterogeneous workloads' performance
// *comparable*, which is the paper's central idea.

#include <memory>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::core {

enum class ConsumerKind { kJob, kTxApp };

/// Flattened description of a consumer's CPU-for-utility curve.
///
/// The equalizer evaluates Σ alloc_for_utility(u) dozens of times per
/// control cycle over thousands of consumers; going through the virtual
/// interface each time (and, for transactional apps, re-running an inner
/// bisection through std::function) dominates the cycle cost. A consumer
/// that can describe its inverse curve in closed parameters exports them
/// here once per equalize() call, and the equalizer evaluates the curve
/// from flat arrays. `kGeneric` consumers simply keep the virtual path.
struct CurveParams {
  enum class Form {
    kGeneric,     // no closed form: call alloc_for_utility(u) virtually
    kZero,        // alloc_for_utility(u) == 0 for all u (finished / idle)
    kJobInverse,  // job curve: see JobUtilityModel::speed_for_utility
    kTxQueueing,  // transactional curve: see TxUtilityModel::alloc_for_utility
  };
  Form form{Form::kGeneric};

  // kJobInverse — alloc(u) = clamp(remaining / (submit + fn⁻¹(u·w)·goal − now),
  //                                0, max_speed), max_speed if the horizon
  // has passed. Consumers sharing (fn, importance) also share fn⁻¹(u·w),
  // which the equalizer therefore solves once per group per iteration.
  const utility::UtilityFunction* fn{nullptr};
  double importance{1.0};
  double remaining{0.0};
  double max_speed{0.0};
  double submit{0.0};
  double goal{0.0};
  double now{0.0};

  // kTxQueueing — inverse of the M/G/1-PS + flow-control utility, solved
  // by the same bisection as TxUtilityModel::alloc_for_utility but with
  // the model composition inlined and the demand ceiling precomputed.
  double lambda{0.0};
  double service_demand{0.0};
  double rt_goal{0.0};
  double utility_cap{0.0};
  double rho_cap{0.0};
  double throughput_exponent{0.0};
  double demand_hi{0.0};
};

class UtilityConsumer {
 public:
  virtual ~UtilityConsumer() = default;

  /// Hypothetical utility if granted `alloc` CPU from now on.
  /// Monotone non-decreasing in alloc.
  [[nodiscard]] virtual double utility_at(util::CpuMhz alloc) const = 0;

  /// Minimum CPU that achieves utility `u`, clamped to [0, demand_max()].
  /// (If `u` exceeds what demand_max() can deliver, returns demand_max().)
  [[nodiscard]] virtual util::CpuMhz alloc_for_utility(double u) const = 0;

  /// CPU beyond which utility no longer improves (the consumer's demand —
  /// the paper's Figure-2 "demand" series sums these).
  [[nodiscard]] virtual util::CpuMhz demand_max() const = 0;

  /// Utility achieved at demand_max().
  [[nodiscard]] virtual double utility_max() const = 0;

  [[nodiscard]] virtual ConsumerKind kind() const = 0;
  [[nodiscard]] virtual util::JobId job_id() const { return util::JobId{}; }
  [[nodiscard]] virtual util::AppId app_id() const { return util::AppId{}; }

  /// Flat curve parameters for the equalizer's hot loop. The default is
  /// the generic (virtual-dispatch) form. Per-consumer inverses must be
  /// identical either way — the params are a performance contract, not a
  /// policy — though the equalizer's totals may differ in the last ulp
  /// because the cache sums by consumer kind rather than input order
  /// (u* agrees within the bisection tolerance with the virtual-dispatch
  /// reference, bench/legacy/legacy_equalizer.hpp).
  [[nodiscard]] virtual CurveParams curve_params() const { return {}; }
};

/// Consumer view of a long-running job at a specific controller instant.
///
/// `speed_cap` is the class-aware delivered-speed term: the delivered
/// MHz of the largest machine the job's constraints admit. On a
/// heterogeneous cluster a job cannot progress faster than the best
/// compatible node delivers, so its utility curve saturates there and
/// the equalizer prices its demand against achievable speed, not the
/// nominal spec. The default (+inf) takes the exact pre-class code path.
class JobConsumer final : public UtilityConsumer {
 public:
  JobConsumer(const workload::Job& job, const utility::JobUtilityModel& model, util::Seconds now,
              util::CpuMhz speed_cap = util::CpuMhz{kUncapped})
      : job_(&job), model_(&model), now_(now), speed_cap_(speed_cap) {}

  [[nodiscard]] double utility_at(util::CpuMhz alloc) const override {
    if (capped() && alloc > speed_cap_) alloc = speed_cap_;
    return model_->hypothetical_utility(*job_, now_, alloc);
  }
  [[nodiscard]] util::CpuMhz alloc_for_utility(double u) const override {
    const util::CpuMhz a = model_->speed_for_utility(*job_, now_, u);
    return capped() && a > speed_cap_ ? speed_cap_ : a;
  }
  [[nodiscard]] util::CpuMhz demand_max() const override {
    const util::CpuMhz d = model_->demand_for_max_utility(*job_, now_);
    return capped() && d > speed_cap_ ? speed_cap_ : d;
  }
  [[nodiscard]] double utility_max() const override {
    if (capped()) return model_->hypothetical_utility(*job_, now_, demand_max());
    return model_->max_achievable_utility(*job_, now_);
  }
  [[nodiscard]] ConsumerKind kind() const override { return ConsumerKind::kJob; }
  [[nodiscard]] util::JobId job_id() const override { return job_->id(); }

  [[nodiscard]] CurveParams curve_params() const override {
    CurveParams p;
    if (job_->finished()) {  // speed_for_utility returns 0 for finished jobs
      p.form = CurveParams::Form::kZero;
      return p;
    }
    const auto& spec = job_->spec();
    p.form = CurveParams::Form::kJobInverse;
    p.fn = &model_->fn();
    p.importance = spec.importance > 0.0 ? spec.importance : 1.0;
    p.remaining = job_->remaining().get();
    p.max_speed =
        capped() && spec.max_speed > speed_cap_ ? speed_cap_.get() : spec.max_speed.get();
    p.submit = spec.submit_time.get();
    p.goal = spec.completion_goal.get();
    p.now = now_.get();
    return p;
  }

  [[nodiscard]] const workload::Job& job() const { return *job_; }
  [[nodiscard]] util::CpuMhz speed_cap() const { return speed_cap_; }

  static constexpr double kUncapped = 1.0e300;

 private:
  [[nodiscard]] bool capped() const { return speed_cap_.get() < kUncapped; }

  const workload::Job* job_;
  const utility::JobUtilityModel* model_;
  util::Seconds now_;
  util::CpuMhz speed_cap_;
};

/// Consumer view of a transactional app at its current arrival rate.
class TxConsumer final : public UtilityConsumer {
 public:
  TxConsumer(const workload::TxApp& app, const utility::TxUtilityModel& model, util::Seconds now)
      : app_(&app), model_(&model), lambda_(app.arrival_rate(now)) {}

  [[nodiscard]] double utility_at(util::CpuMhz alloc) const override {
    return model_->utility(app_->spec(), lambda_, alloc);
  }
  [[nodiscard]] util::CpuMhz alloc_for_utility(double u) const override {
    return model_->alloc_for_utility(app_->spec(), lambda_, u);
  }
  [[nodiscard]] util::CpuMhz demand_max() const override {
    return model_->demand_for_max_utility(app_->spec(), lambda_);
  }
  [[nodiscard]] double utility_max() const override { return model_->max_utility(app_->spec()); }
  [[nodiscard]] ConsumerKind kind() const override { return ConsumerKind::kTxApp; }
  [[nodiscard]] util::AppId app_id() const override { return app_->id(); }

  [[nodiscard]] CurveParams curve_params() const override {
    CurveParams p;
    if (lambda_ <= 0.0) {  // unloaded app: alloc_for_utility returns 0
      p.form = CurveParams::Form::kZero;
      return p;
    }
    const auto& spec = app_->spec();
    p.form = CurveParams::Form::kTxQueueing;
    p.importance = spec.importance > 0.0 ? spec.importance : 1.0;
    p.lambda = lambda_;
    p.service_demand = spec.service_demand;
    p.rt_goal = spec.rt_goal.get();
    p.utility_cap = spec.utility_cap;
    p.rho_cap = spec.max_utilization;
    p.throughput_exponent = spec.throughput_exponent;
    p.demand_hi = model_->demand_for_max_utility(spec, lambda_).get();
    return p;
  }

  [[nodiscard]] double lambda() const { return lambda_; }

 private:
  const workload::TxApp* app_;
  const utility::TxUtilityModel* model_;
  double lambda_;
};

}  // namespace heteroplace::core
