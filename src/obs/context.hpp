#pragma once

// The one emission path for control events. A subsystem holds an
// ObsContext and states what happened — "job started on node 3",
// "migration of job 7 ended: move_completed" — through one typed method
// per event kind. The methods below (context.cpp) decide what that event
// looks like in each sink: the Chrome trace (lane, name, argument keys),
// the per-domain SLA ledger and the per-domain audit log. So the sinks
// agree by construction, and no subsystem spells a lane, an event name or
// an AuditRecord.
//
// A default ObsContext (all null) is the obs-off state: every method tests
// its sinks' pointers and returns, so disabled observability stays cheap
// and obs-off output stays bit-identical. Arguments that cost work to
// compute are computed inside the methods, only when their sink is on.
//
// Metrics are not emitted here: the runner publishes them at end of run
// from the stats each subsystem already keeps (scenario/
// federation_experiment.cpp), so there is nothing live to keep in sync.
//
// Spans: one Span per timed phase feeds both the profiler row and the
// trace B/E span of that phase (the SpanKind table in context.cpp).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "util/ids.hpp"

namespace heteroplace::workload {
class Job;
}

namespace heteroplace::obs {

class TraceRecorder;
class Profiler;
class SlaLedger;
class AuditLog;

/// One numeric trace-event argument. Keys must be string literals (the
/// recorder stores the pointer, not a copy).
struct TraceArg {
  const char* key;
  double value;
};

struct ObsContext {
  TraceRecorder* trace{nullptr};
  Profiler* profiler{nullptr};
  /// Per-domain SLA attribution ledger (obs/sla.hpp); wired only for
  /// domain contexts (pid >= 1) so parallel batch items never share one.
  SlaLedger* sla{nullptr};
  /// Per-domain placement decision audit ring (obs/audit.hpp); same
  /// pid >= 1 wiring rule as the ledger.
  AuditLog* audit{nullptr};
  /// Chrome trace pid for this subsystem's events: 0 = the global/serial
  /// spine (router, migration manager, fault injector), i+1 = domain i.
  std::uint32_t pid{0};

  // --- job lifecycle (executor, domain contexts) ---------------------------
  void job_started(const workload::Job& job, util::NodeId node, double now) const;
  void job_resumed(const workload::Job& job, util::NodeId node, double now) const;
  /// Audited against the job's current node (-1 when it has none).
  void job_suspended(const workload::Job& job, double now) const;
  void job_migrated(const workload::Job& job, util::NodeId node, double now) const;
  void job_completed(const workload::Job& job, double now) const;

  // --- routing (federation, global context) --------------------------------
  /// Job `id` routed to domain `domain`, whose context `dest` admits it to
  /// that domain's SLA ledger.
  void job_routed(const ObsContext& dest, util::JobId id, std::size_t domain, double demand_mhz,
                  double now) const;
  void domain_weight(std::size_t domain, double old_weight, double new_weight, double now) const;
  void demand_resplit(std::size_t apps, double now) const;

  // --- power transitions (power manager, domain contexts) ------------------
  void node_park(util::NodeId node, double now) const;
  void node_parked(util::NodeId node, double now) const;
  void node_wake(util::NodeId node, double now) const;
  /// The wake latency elapsed: the ledger's wake interval always ends;
  /// `rejoined` is false when a crash aborted the wake (no "woke" instant).
  void node_woke(util::NodeId node, bool rejoined, double now) const;
  void pstate(int p, double speed, double active_w, double now) const;

  // --- faults (injector, global context) -----------------------------------
  void fault(const char* kind, std::size_t domain, std::size_t node, double severity,
             double now) const;
  void recovery(std::size_t domain, std::size_t node, int kind, double now) const;

  // --- migration phases (migration manager, global context) ----------------
  void migration_begin(util::JobId job, std::size_t from, std::size_t to, double now) const;
  void transfer_submit(util::JobId job, double image_mb, double transfer_s, double now) const;
  void transfer_retry_wait(util::JobId job, int attempt, double backoff_s, double now) const;
  /// `outcome` is a string literal: move_completed, move_aborted,
  /// move_orphaned or move_landed_back.
  void migration_end(util::JobId job, const char* outcome, double now) const;

  // --- controller ----------------------------------------------------------
  void cycle_skipped(double now) const;
};

/// Timed phases. Each kind has one row in the SpanKind table (context.cpp):
/// its profiler phase and, unless it is profiler-only, its trace lane and
/// span name.
enum class SpanKind : std::uint8_t {
  kControllerCycle,
  kConsumers,
  kEqualize,
  kBuildProblem,
  kSolve,
  kSolvePin,
  kSolveGrow,
  kSolvePack,
  kSolveFill,
  kSolveEmit,
  kExecutorApply,
  kReleasePass,
  kResizePass,
  kMigratePass,
  kStartPass,
  kMigrationTick,
  kPowerTick,
  kFaultEvent,
  kSampling,
};

/// RAII phase span: opens the trace span (with `args`) and starts the
/// profiler clock on construction. end() closes the trace span with end
/// arguments; the destructor closes it if end() was not called and adds
/// the elapsed wall time to the profiler phase, so a span's scope must end
/// with its phase. Null sinks make each step a pointer test.
class Span {
 public:
  Span(const ObsContext& ctx, SpanKind kind, double t_s, std::initializer_list<TraceArg> args = {});
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void end(std::initializer_list<TraceArg> args = {});

 private:
  TraceRecorder* trace_;
  Profiler* profiler_;
  std::uint32_t pid_;
  SpanKind kind_;
  double t_s_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace heteroplace::obs
