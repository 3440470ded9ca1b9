#pragma once

// Metric collection for experiments.
//
// Records the exact series the paper plots —
//   Figure 1: actual transactional utility and average hypothetical
//             long-running utility over time;
//   Figure 2: CPU allocated to each workload and each workload's demand
//             (CPU for maximum utility) over time —
// plus churn, queue and completion statistics for the ablations.

#include <memory>
#include <string>
#include <vector>

#include "cluster/actions.hpp"
#include "core/controller.hpp"
#include "core/world.hpp"
#include "util/stats.hpp"
#include "util/time_series.hpp"
#include "utility/job_utility.hpp"
#include "utility/tx_utility.hpp"

namespace heteroplace::obs {
class SlaLedger;
}  // namespace heteroplace::obs

namespace heteroplace::scenario {

/// End-of-run aggregates.
struct ExperimentSummary {
  std::string scenario;
  std::string policy;

  long jobs_submitted{0};
  long jobs_completed{0};
  /// Fraction of completed jobs that met their completion goal.
  double goal_met_fraction{0.0};
  /// (completion − submit) / goal over completed jobs.
  util::RunningStats completion_ratio;
  /// Utility at completion over completed jobs.
  util::RunningStats job_utility;

  /// Per-sample actual transactional utility (all apps averaged).
  util::RunningStats tx_utility;
  /// Per-cycle average hypothetical utility of active jobs.
  util::RunningStats lr_utility;
  /// |u_tx − ū_lr| over contended cycles: how well utilities equalize.
  util::RunningStats equalization_gap;

  cluster::ActionCounts actions;
  long cycles{0};
  double sim_end_time_s{0.0};
  long invariant_violations{0};

  // Fault & availability aggregates, filled by the runner when fault
  // injection is enabled (all zero / availability 1 otherwise). Not
  // touched by merge_summaries — the federated runner sums them across
  // domains itself.
  long fault_node_crashes{0};
  long fault_link_faults{0};
  long fault_blackouts{0};
  long jobs_reverted{0};
  double jobs_lost_progress_s{0.0};
  double fault_downtime_s{0.0};
  /// Mean time to repair over completed repairs (0 if none completed).
  double fault_mttr_s{0.0};
  /// Time-averaged availability over the run, in [0, 1].
  double availability{1.0};
};

/// Merge finalized per-domain summaries into one federation-level
/// summary: counts and actions sum, running stats merge, and
/// goal_met_fraction is re-weighted by each domain's completed jobs.
[[nodiscard]] ExperimentSummary merge_summaries(const std::vector<ExperimentSummary>& parts);

/// Instantaneous measured allocation state of one world. The runner
/// computes it once per domain per sample and shares it between the
/// domain's MetricsRecorder and the federation-level aggregator, so a
/// federation's summed fed_* series equal the sum of the per-domain
/// series bit for bit.
struct AllocationSample {
  std::vector<double> tx_alloc_per_app;  // app-registry order
  double tx_alloc_mhz{0.0};              // sum of the above
  double lr_alloc_mhz{0.0};              // running job speeds
  int jobs_running{0};
  int jobs_pending{0};
  int jobs_suspended{0};
  int active_jobs{0};
};

[[nodiscard]] AllocationSample sample_allocations(const core::World& world);

/// Streams controller cycles and periodic samples into a TimeSeriesSet
/// and accumulates the summary.
class MetricsRecorder {
 public:
  MetricsRecorder(const core::World& world,
                  std::shared_ptr<const utility::JobUtilityModel> job_model,
                  std::shared_ptr<const utility::TxUtilityModel> tx_model)
      : world_(&world), job_model_(std::move(job_model)), tx_model_(std::move(tx_model)) {}

  /// Hook for PlacementController::set_observer.
  void on_cycle(const core::CycleReport& report);

  /// Periodic sampling of measured cluster state (allocations, actual
  /// utilities) from an allocation snapshot of this recorder's world.
  /// Scheduled by the experiment runner.
  void sample(util::Seconds now, const AllocationSample& alloc);

  /// Hook for ActionExecutor::set_completion_callback.
  void on_job_completed(const workload::Job& job);

  /// Feed each tx app's sampled response time into the domain's SLA
  /// ledger (null = off). The recorder samples serially per domain, so
  /// the ledger's threading contract holds.
  void set_sla(obs::SlaLedger* sla) { sla_ = sla; }

  [[nodiscard]] const util::TimeSeriesSet& series() const { return series_; }
  [[nodiscard]] util::TimeSeriesSet& series() { return series_; }
  [[nodiscard]] ExperimentSummary& summary() { return summary_; }
  [[nodiscard]] const ExperimentSummary& summary() const { return summary_; }

 private:
  const core::World* world_;
  std::shared_ptr<const utility::JobUtilityModel> job_model_;
  std::shared_ptr<const utility::TxUtilityModel> tx_model_;
  util::TimeSeriesSet series_;
  ExperimentSummary summary_;
  obs::SlaLedger* sla_{nullptr};
  double last_tx_utility_{0.0};
  bool have_tx_utility_{false};
};

}  // namespace heteroplace::scenario
