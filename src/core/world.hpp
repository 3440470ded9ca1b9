#pragma once

// World: the complete managed-system state — cluster, transactional apps,
// and the job population — shared by the controller, the executor, and
// the experiment driver.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/ids.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::core {

class World {
 public:
  World() = default;

  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const cluster::Cluster& cluster() const { return cluster_; }

  /// Register a transactional application (before the run starts).
  void add_app(workload::TxApp app);
  [[nodiscard]] const std::vector<workload::TxApp>& apps() const { return apps_; }
  [[nodiscard]] bool app_exists(util::AppId id) const { return app_index_.count(id) > 0; }
  [[nodiscard]] const workload::TxApp& app(util::AppId id) const;
  /// Mutable access, used by the federation layer to re-split an app's
  /// demand trace across domains (e.g. on a brownout). Bumps
  /// apps_epoch(): mutate through the returned reference right away,
  /// not after a later read of the app registry.
  [[nodiscard]] workload::TxApp& app_mut(util::AppId id);
  /// Changes whenever the app registry may have changed (add_app,
  /// app_mut), so callers can cache values derived from the apps.
  [[nodiscard]] std::uint64_t apps_epoch() const { return apps_epoch_; }

  /// Submit a job (typically from an arrival event). The job starts in
  /// phase kPending with no VM.
  workload::Job& submit_job(workload::JobSpec spec);

  /// Insert a job that already carries runtime state (progress, phase,
  /// churn counters) — the receiving half of a cross-domain handoff.
  workload::Job& adopt_job(workload::Job job);

  /// Remove a job from this world and hand its state to the caller — the
  /// sending half of a cross-domain handoff. The caller is responsible
  /// for retiring the job's VM and executor bookkeeping first.
  [[nodiscard]] workload::Job extract_job(util::JobId id);

  [[nodiscard]] bool job_exists(util::JobId id) const { return jobs_.count(id) > 0; }
  [[nodiscard]] workload::Job& job(util::JobId id);
  [[nodiscard]] const workload::Job& job(util::JobId id) const;

  /// All submitted jobs in submission order (completed ones included).
  [[nodiscard]] const std::vector<util::JobId>& job_order() const { return job_order_; }

  /// Jobs that are submitted and not yet completed, in submission order.
  /// Held jobs (mid-migration, see workload::Job::held) are excluded so
  /// every policy, executor pass and sampler treats them as already gone.
  [[nodiscard]] std::vector<workload::Job*> active_jobs();
  [[nodiscard]] std::vector<const workload::Job*> active_jobs() const;

  [[nodiscard]] std::size_t submitted_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t completed_count() const;

 private:
  cluster::Cluster cluster_;
  std::vector<workload::TxApp> apps_;
  std::map<util::AppId, std::size_t> app_index_;  // id → position in apps_
  std::uint64_t apps_epoch_{0};
  std::map<util::JobId, workload::Job> jobs_;
  std::vector<util::JobId> job_order_;
};

}  // namespace heteroplace::core
