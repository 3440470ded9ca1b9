#pragma once

// World: the complete managed-system state — cluster, transactional apps,
// and the job population — shared by the controller, the executor, and
// the experiment driver.
//
// Cost model. Every completed job stays in the registry (job(),
// job_order() and submitted_count() cover the whole run), but the
// per-cycle readers scale with the live population only:
//   - active_jobs() walks a live list of submitted, not-completed jobs
//     in submission order: O(live) slots, no map lookup per job;
//   - completed_count() is a counter, O(1).
// That holds because a job reaches kCompleted only through
// complete_job(), which retires it from the live list (a tombstone,
// compacted on this write path once tombstones outnumber live slots, so
// the list never exceeds about twice the live count). Setting kCompleted
// on a Job directly bypasses the bookkeeping: don't. Held jobs stay in the
// list, filtered at read, so an un-held job is back at its original
// position. Const readers never mutate: the spine reads worlds
// (completed_count, the sampler) while shards are quiescent.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/ids.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::core {

class World {
 public:
  World() = default;
  // live_ points into jobs_: a copy would alias the source's entries.
  // Moves keep std::map nodes in place, so they are safe.
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  World(World&&) = default;
  World& operator=(World&&) = default;

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

  /// Count every apps_epoch() bump and every cluster capacity change in
  /// `*counter` (see Cluster::set_change_counter); nullptr counts nothing.
  void set_change_counter(std::uint64_t* counter) {
    change_counter_ = counter;
    cluster_.set_change_counter(counter);
  }

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

  /// The only way a job reaches kCompleted: sets the phase, stamps the
  /// completion time and retires the job from the live list, amortised
  /// O(1). Throws std::logic_error if the job already completed.
  workload::Job& complete_job(util::JobId id, util::Seconds now);

  [[nodiscard]] bool job_exists(util::JobId id) const { return jobs_.count(id) > 0; }
  [[nodiscard]] workload::Job& job(util::JobId id);
  [[nodiscard]] const workload::Job& job(util::JobId id) const;

  /// All submitted jobs in submission order (completed ones included).
  [[nodiscard]] const std::vector<util::JobId>& job_order() const { return job_order_; }

  /// Jobs that are submitted and not yet completed, in submission order.
  /// Held jobs (mid-migration, see workload::Job::held) are excluded so
  /// every policy, executor pass and sampler treats them as already gone.
  /// O(live_slot_count()).
  [[nodiscard]] std::vector<workload::Job*> active_jobs();
  [[nodiscard]] std::vector<const workload::Job*> active_jobs() const;

  [[nodiscard]] std::size_t submitted_count() const { return jobs_.size(); }
  [[nodiscard]] std::size_t completed_count() const { return completed_; }

  /// Slots active_jobs() visits: live jobs (held ones included) plus
  /// not-yet-compacted tombstones. Stays below about twice the live count
  /// however many jobs have completed.
  [[nodiscard]] std::size_t live_slot_count() const { return live_.size(); }

 private:
  static constexpr std::size_t kNotLive = static_cast<std::size_t>(-1);

  /// A registry entry: the job and its slot in live_ (kNotLive once the
  /// job completed). std::map nodes never move, so live_ can point at them.
  struct Entry {
    /// Builds the job in place from `arg` (a JobSpec or a Job).
    template <class Arg>
    explicit Entry(Arg&& arg) : job(std::forward<Arg>(arg)) {}
    workload::Job job;
    std::size_t slot{kNotLive};
  };

  /// Register job `id`, built in its map node from `arg`; throws on a
  /// duplicate id (naming `who`) without building anything.
  template <class Arg>
  workload::Job& insert(util::JobId id, Arg&& arg, const char* who);
  /// Tombstone a live entry's slot; compacts when tombstones dominate.
  void retire(Entry& e);

  cluster::Cluster cluster_;
  std::vector<workload::TxApp> apps_;
  std::map<util::AppId, std::size_t> app_index_;  // id → position in apps_
  std::uint64_t apps_epoch_{0};
  std::uint64_t* change_counter_{nullptr};
  std::map<util::JobId, Entry> jobs_;
  std::vector<util::JobId> job_order_;
  std::vector<Entry*> live_;  // not-completed jobs in submission order; nullptr = tombstone
  std::size_t tombstones_{0};
  std::size_t completed_{0};
};

}  // namespace heteroplace::core
