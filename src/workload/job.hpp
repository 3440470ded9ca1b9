#pragma once

// Long-running jobs.
//
// A job is a fixed amount of CPU work (MHz·seconds) executed inside a VM
// at a controller-assigned speed, capped by the job's maximum speed (one
// processor in the paper's evaluation). Jobs carry a completion-time goal
// relative to submission; their utility is a monotone function of the
// ratio (completion - submit) / goal.

#include <array>
#include <cassert>
#include <string>

#include "cluster/machine_class.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace heteroplace::workload {

struct JobSpec {
  util::JobId id{};
  std::string name;
  util::MhzSeconds work{0.0};     // total CPU work
  util::CpuMhz max_speed{0.0};    // speed cap (1 processor in the paper)
  util::MemMb memory{0.0};        // VM memory reservation
  util::Seconds submit_time{0.0};
  util::Seconds completion_goal{0.0};  // SLA: finish within goal of submit
  double importance{1.0};              // utility weight (service classes)
  /// Machine constraints (required arch / accelerators / min per-core
  /// speed); the default empty set runs anywhere.
  cluster::ConstraintSet constraint{};

  /// Nominal length: execution time at full speed with no waiting.
  [[nodiscard]] util::Seconds nominal_length() const { return work / max_speed; }
};

/// Controller-visible job lifecycle. Mirrors the job VM state but is
/// tracked per job so progress accounting survives VM churn.
enum class JobPhase {
  kPending,    // submitted, never started
  kStarting,   // VM boot in progress
  kRunning,    // accumulating work at the current speed
  kSuspending, // suspension in progress (no progress)
  kSuspended,  // on disk
  kResuming,   // resume in progress (no progress)
  kMigrating,  // migration in progress (no progress)
  kCompleted,  // all work done; set only by World::complete_job
};

[[nodiscard]] const char* to_string(JobPhase p);

/// Number of JobPhase values (sizes the per-phase accounting buckets).
inline constexpr int kJobPhaseCount = static_cast<int>(JobPhase::kCompleted) + 1;

/// Runtime job state with explicit progress accounting.
///
/// Progress integrates speed over time lazily: `advance_to(now)` folds the
/// elapsed interval at the current speed into `done`. Speed changes and
/// phase changes must call advance_to first (the mutators here do).
class Job {
 public:
  explicit Job(JobSpec spec) : spec_(std::move(spec)), last_update_(spec_.submit_time) {}

  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] util::JobId id() const { return spec_.id; }
  [[nodiscard]] JobPhase phase() const { return phase_; }
  [[nodiscard]] util::CpuMhz speed() const { return speed_; }
  [[nodiscard]] util::VmId vm() const { return vm_; }
  [[nodiscard]] util::NodeId node() const { return node_; }

  /// Held jobs are detached from the local control plane: the migration
  /// manager sets this while it checkpoints and transfers the job to
  /// another domain, and World::active_jobs hides held jobs so no policy
  /// or executor pass plans (or resumes) them mid-handoff.
  [[nodiscard]] bool held() const { return held_; }
  void set_held(bool held) { held_ = held; }

  void bind_vm(util::VmId vm) { vm_ = vm; }
  void set_node(util::NodeId node) { node_ = node; }

  /// Integrate progress up to `now` at the current speed.
  void advance_to(util::Seconds now);

  /// Change execution speed (advances progress first). Speed must be in
  /// [0, max_speed]; only meaningful while running.
  void set_speed(util::Seconds now, util::CpuMhz speed);

  /// Phase transition (advances progress first). Transitions out of
  /// kRunning zero the speed.
  void set_phase(util::Seconds now, JobPhase phase);

  [[nodiscard]] util::MhzSeconds done() const { return done_; }
  [[nodiscard]] util::MhzSeconds remaining() const { return spec_.work - done_; }
  [[nodiscard]] bool finished() const { return remaining().get() <= 1e-6; }

  /// Time at which the job will finish if it keeps running at `speed`
  /// from `now`. Infinite if speed == 0 and work remains.
  [[nodiscard]] util::Seconds predicted_completion(util::Seconds now, util::CpuMhz speed) const;

  /// Absolute SLA deadline.
  [[nodiscard]] util::Seconds goal_time() const {
    return spec_.submit_time + spec_.completion_goal;
  }

  /// Reinstate progress bookkeeping from a checkpoint image (see
  /// migration::JobCheckpoint). Resets the progress clock to `now` so no
  /// phantom work accrues over the transfer window. Does NOT touch the
  /// SLA accounting (phase buckets / gross / hold): the crash-revert path
  /// reverts `done` on a live job whose wall-time history must survive,
  /// and the migration restore path overwrites accounting explicitly via
  /// restore_accounting().
  void restore_progress(util::MhzSeconds done, int suspends, int migrates, util::Seconds now);

  // --- SLA attribution accounting ------------------------------------------
  // advance_to folds every elapsed interval into the bucket of the phase
  // the job was in, so the buckets partition the job's accounted wall
  // time exactly (the sum telescopes to completion - submit, modulo the
  // cross-domain hold below). Pure bookkeeping: never read by any
  // placement/execution decision, so enabling the SLA ledger cannot
  // perturb simulation results.

  /// Wall time accounted to `phase` so far.
  [[nodiscard]] double phase_seconds(JobPhase phase) const {
    return phase_s_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] const std::array<double, kJobPhaseCount>& phase_seconds_all() const {
    return phase_s_;
  }

  /// Monotone gross work: like `done` but never reverted by
  /// restore_progress, so (gross - done) / max_speed is the full-speed
  /// cost of work redone after a fault revert.
  [[nodiscard]] util::MhzSeconds gross() const { return gross_; }

  /// Wall time spent detached in cross-domain transfers (the hole between
  /// the source job's last accounting update and the destination restore).
  [[nodiscard]] double hold_seconds() const { return hold_s_; }

  /// Time up to which the phase buckets are folded (== last_update_).
  [[nodiscard]] util::Seconds accounted_until() const { return last_update_; }

  /// Overwrite the accounting state wholesale from a checkpoint carried
  /// across domains (migration::restore_job). Call after set_phase.
  void restore_accounting(const std::array<double, kJobPhaseCount>& phase_s,
                          util::MhzSeconds gross, double hold_s);

  /// Set on completion by World::complete_job.
  void mark_completed(util::Seconds t) { completion_time_ = t; }
  [[nodiscard]] util::Seconds completion_time() const { return completion_time_; }

  // Churn counters (metrics).
  void count_suspend() { ++suspend_count_; }
  void count_migrate() { ++migrate_count_; }
  [[nodiscard]] int suspend_count() const { return suspend_count_; }
  [[nodiscard]] int migrate_count() const { return migrate_count_; }

 private:
  JobSpec spec_;
  JobPhase phase_{JobPhase::kPending};
  util::MhzSeconds done_{0.0};
  util::CpuMhz speed_{0.0};
  util::Seconds last_update_;
  util::VmId vm_{};
  util::NodeId node_{};
  util::Seconds completion_time_{-1.0};
  int suspend_count_{0};
  int migrate_count_{0};
  bool held_{false};
  std::array<double, kJobPhaseCount> phase_s_{};
  util::MhzSeconds gross_{0.0};
  double hold_s_{0.0};
};

}  // namespace heteroplace::workload
