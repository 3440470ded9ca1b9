#pragma once

// Observability construction and fail-loud validation, mirroring
// fault_factory: validate_obs_spec rejects bad obs.* configuration with a
// util::ConfigError naming the offending key; make_observability turns a
// validated spec into the recorder/registry/profiler bundle the runners
// wire into the subsystems.

#include <memory>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/audit.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sla.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace heteroplace::scenario {

/// Throws util::ConfigError for: unknown obs.trace / obs.audit modes,
/// non-positive or absurd ring capacities, obs.trace=stream without a
/// path, obs.audit_path without obs.audit=ring, or any configured output
/// path that cannot be opened for writing. The runner calls this too, so
/// programmatic specs fail as loudly as loaded ones.
void validate_obs_spec(const ObsSpec& spec);

/// The bundle a runner owns for one experiment. Members are null when the
/// corresponding feature is off; default-constructed = everything off.
struct Observability {
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Profiler> profiler;
  /// SLO burn-rate alert engine; non-null iff the scenario declared SLOs.
  std::unique_ptr<obs::AlertEngine> alerts;
  /// Per-domain SLA ledgers / audit rings, created lazily by context() in
  /// domain order (pid i+1 -> slot i). Empty when sla/audit are off.
  std::vector<std::unique_ptr<obs::SlaLedger>> ledgers;
  std::vector<std::unique_ptr<obs::AuditLog>> audits;
  bool sla_on{false};
  bool audit_on{false};
  std::size_t audit_capacity{0};

  [[nodiscard]] bool any() const {
    return trace != nullptr || metrics != nullptr || profiler != nullptr || sla_on || audit_on;
  }
  /// Context handed to a subsystem: pid 0 = global/serial spine, i+1 =
  /// domain i; `domain` is the label value for that domain's metrics
  /// (empty = no label). Domain contexts (pid >= 1) also carry that
  /// domain's SLA ledger / audit log, created here on first use.
  [[nodiscard]] obs::ObsContext context(std::uint32_t pid, const std::string& domain = "");
  /// Ledgers / audit logs in domain order (alert evaluation, report
  /// rendering, audit dump).
  [[nodiscard]] std::vector<const obs::SlaLedger*> ledger_list() const;
  [[nodiscard]] std::vector<const obs::AuditLog*> audit_list() const;
};

/// Validates, then constructs exactly the enabled pieces (a spec with
/// any() == false and no SLOs yields an empty bundle). `slos` come from
/// Scenario::slos; any entry enables the SLA ledger and the alert engine
/// (bound to the trace/metrics here).
[[nodiscard]] Observability make_observability(const ObsSpec& spec,
                                               const std::vector<obs::SloSpec>& slos = {});

/// End-of-run output: finalize/dump the trace, write metrics snapshots,
/// the SLA report (JSON/CSV) and the audit dump to the paths named in the
/// spec. Safe to call with an empty bundle.
void export_observability(const ObsSpec& spec, Observability& o);

/// Fold sim::EngineTiming into a profile report as engine/* rows
/// (serial spine by priority class, batch execution, merge barrier).
void append_engine_profile(obs::ProfileReport& report, const sim::EngineTiming& timing,
                           std::uint64_t parallel_batches);

}  // namespace heteroplace::scenario
