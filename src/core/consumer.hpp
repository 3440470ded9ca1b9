#pragma once

// Utility consumers: the common currency abstraction.
//
// The equalizer sees every workload — each long-running job and each
// transactional application — as a "consumer" exposing a monotone
// non-decreasing utility-of-allocation curve and its inverse. This is the
// mechanism that makes the heterogeneous workloads' performance
// *comparable*, which is the paper's central idea.
//
// core::equalize snapshots JobConsumer and TxConsumer (by exact type) and
// evaluates their curves from flat copies of the model code; any other
// consumer it calls through this interface. The virtual-dispatch
// oracle (bench/legacy/legacy_equalizer.hpp) calls every consumer
// through it, so the two agree only while the mirrors do.

#include "util/units.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::core {

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

  [[nodiscard]] const workload::Job& job() const { return *job_; }
  [[nodiscard]] const utility::JobUtilityModel& model() const { return *model_; }
  [[nodiscard]] util::Seconds now() const { return now_; }
  [[nodiscard]] util::CpuMhz speed_cap() const { return speed_cap_; }
  /// Whether speed_cap() binds (a finite class-aware cap was given).
  [[nodiscard]] bool capped() const { return speed_cap_.get() < kUncapped; }

  static constexpr double kUncapped = 1.0e300;

 private:
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

  [[nodiscard]] const workload::TxApp& app() const { return *app_; }
  [[nodiscard]] const utility::TxUtilityModel& model() const { return *model_; }
  [[nodiscard]] double lambda() const { return lambda_; }

 private:
  const workload::TxApp* app_;
  const utility::TxUtilityModel* model_;
  double lambda_;
};

}  // namespace heteroplace::core
