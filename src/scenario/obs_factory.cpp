#include "scenario/obs_factory.hpp"

#include <fstream>

#include "util/config.hpp"

namespace heteroplace::scenario {

namespace {

// Upper bound on the ring: 2^26 events is ~5 GB of TraceEvent — anything
// above is a typo, not a plan.
constexpr long kMaxRingCapacity = 1L << 26;

void check_writable(const char* key, const std::string& path) {
  if (path.empty()) return;
  // Append mode probes writability without truncating an existing file
  // (the real export truncates later, once the run has produced output).
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw util::ConfigError(std::string(key) + ": cannot open '" + path + "' for writing");
  }
}

}  // namespace

void validate_obs_spec(const ObsSpec& spec) {
  if (spec.trace != "off" && spec.trace != "ring" && spec.trace != "stream") {
    throw util::ConfigError("obs.trace: unknown mode '" + spec.trace +
                            "' (expected off|ring|stream)");
  }
  if (spec.trace == "ring") {
    if (spec.trace_ring_capacity <= 0) {
      throw util::ConfigError("obs.trace_ring_capacity: must be positive, got " +
                              std::to_string(spec.trace_ring_capacity));
    }
    if (spec.trace_ring_capacity > kMaxRingCapacity) {
      throw util::ConfigError("obs.trace_ring_capacity: " +
                              std::to_string(spec.trace_ring_capacity) + " exceeds the maximum " +
                              std::to_string(kMaxRingCapacity));
    }
  }
  if (spec.trace == "stream" && spec.trace_path.empty()) {
    throw util::ConfigError("obs.trace: mode 'stream' requires obs.trace_path");
  }
  if (spec.audit != "off" && spec.audit != "ring") {
    throw util::ConfigError("obs.audit: unknown mode '" + spec.audit + "' (expected off|ring)");
  }
  if (spec.audit == "ring") {
    if (spec.audit_ring_capacity <= 0) {
      throw util::ConfigError("obs.audit_ring_capacity: must be positive, got " +
                              std::to_string(spec.audit_ring_capacity));
    }
    if (spec.audit_ring_capacity > kMaxRingCapacity) {
      throw util::ConfigError("obs.audit_ring_capacity: " +
                              std::to_string(spec.audit_ring_capacity) + " exceeds the maximum " +
                              std::to_string(kMaxRingCapacity));
    }
  } else if (!spec.audit_path.empty()) {
    throw util::ConfigError("obs.audit_path has no effect with obs.audit=off");
  }
  if (spec.trace_enabled()) check_writable("obs.trace_path", spec.trace_path);
  check_writable("obs.metrics_path", spec.metrics_path);
  check_writable("obs.metrics_json_path", spec.metrics_json_path);
  check_writable("obs.audit_path", spec.audit_path);
  check_writable("obs.sla_report_path", spec.sla_report_path);
  check_writable("obs.sla_report_csv_path", spec.sla_report_csv_path);
}

obs::ObsContext Observability::context(std::uint32_t pid, const std::string& domain) {
  obs::ObsContext ctx;
  ctx.trace = trace.get();
  ctx.profiler = profiler.get();
  ctx.pid = pid;
  if (pid >= 1 && (sla_on || audit_on)) {
    const std::size_t slot = pid - 1;
    const std::string name = domain.empty() ? "default" : domain;
    if (sla_on) {
      if (ledgers.size() <= slot) ledgers.resize(slot + 1);
      if (!ledgers[slot]) ledgers[slot] = std::make_unique<obs::SlaLedger>(name);
      ctx.sla = ledgers[slot].get();
    }
    if (audit_on) {
      if (audits.size() <= slot) audits.resize(slot + 1);
      if (!audits[slot]) audits[slot] = std::make_unique<obs::AuditLog>(name, audit_capacity);
      ctx.audit = audits[slot].get();
    }
  }
  return ctx;
}

std::vector<const obs::SlaLedger*> Observability::ledger_list() const {
  std::vector<const obs::SlaLedger*> out;
  out.reserve(ledgers.size());
  for (const auto& l : ledgers) {
    if (l) out.push_back(l.get());
  }
  return out;
}

std::vector<const obs::AuditLog*> Observability::audit_list() const {
  std::vector<const obs::AuditLog*> out;
  out.reserve(audits.size());
  for (const auto& a : audits) {
    if (a) out.push_back(a.get());
  }
  return out;
}

Observability make_observability(const ObsSpec& spec, const std::vector<obs::SloSpec>& slos) {
  validate_obs_spec(spec);
  Observability o;
  if (spec.trace_enabled()) {
    obs::TraceRecorder::Options opts;
    opts.mode = obs::trace_mode_from_string(spec.trace);
    opts.ring_capacity = static_cast<std::size_t>(spec.trace_ring_capacity);
    opts.path = spec.trace_path;
    opts.engine_lane = spec.trace_engine;
    o.trace = std::make_unique<obs::TraceRecorder>(opts);
  }
  if (spec.metrics_enabled()) o.metrics = std::make_unique<obs::MetricsRegistry>();
  if (spec.profile) o.profiler = std::make_unique<obs::Profiler>();
  o.sla_on = spec.sla_enabled() || !slos.empty();
  o.audit_on = spec.audit_enabled();
  o.audit_capacity = static_cast<std::size_t>(spec.audit_ring_capacity);
  if (!slos.empty()) {
    o.alerts = std::make_unique<obs::AlertEngine>();
    for (const obs::SloSpec& s : slos) o.alerts->add_slo(s);
    o.alerts->bind(o.trace.get(), o.metrics.get());
  }
  return o;
}

void export_observability(const ObsSpec& spec, Observability& o) {
  if (o.trace) o.trace->finish();
  if (o.metrics) {
    if (!spec.metrics_path.empty()) {
      std::ofstream f(spec.metrics_path, std::ios::trunc);
      f << o.metrics->prometheus_text();
      if (!f) {
        throw util::ConfigError("obs.metrics_path: error writing '" + spec.metrics_path + "'");
      }
    }
    if (!spec.metrics_json_path.empty()) {
      std::ofstream f(spec.metrics_json_path, std::ios::trunc);
      f << o.metrics->json();
      if (!f) {
        throw util::ConfigError("obs.metrics_json_path: error writing '" +
                                spec.metrics_json_path + "'");
      }
    }
  }
  if (!spec.audit_path.empty()) {
    std::ofstream f(spec.audit_path, std::ios::trunc);
    f << obs::render_audit_json(o.audit_list());
    if (!f) {
      throw util::ConfigError("obs.audit_path: error writing '" + spec.audit_path + "'");
    }
  }
  if (!spec.sla_report_path.empty()) {
    std::ofstream f(spec.sla_report_path, std::ios::trunc);
    f << obs::render_sla_report_json(o.ledger_list(), o.alerts.get());
    if (!f) {
      throw util::ConfigError("obs.sla_report_path: error writing '" + spec.sla_report_path +
                              "'");
    }
  }
  if (!spec.sla_report_csv_path.empty()) {
    std::ofstream f(spec.sla_report_csv_path, std::ios::trunc);
    f << obs::render_sla_report_csv(o.ledger_list(), o.alerts.get());
    if (!f) {
      throw util::ConfigError("obs.sla_report_csv_path: error writing '" +
                              spec.sla_report_csv_path + "'");
    }
  }
}

void append_engine_profile(obs::ProfileReport& report, const sim::EngineTiming& timing,
                           std::uint64_t parallel_batches) {
  for (std::size_t c = 0; c < timing.serial_class_events.size(); ++c) {
    if (timing.serial_class_events[c] == 0) continue;
    report.push_back({std::string("engine/serial/") + sim::priority_class_name(static_cast<int>(c)),
                      timing.serial_class_events[c], timing.serial_class_ns[c]});
  }
  if (timing.serial_events > 0) {
    report.push_back({"engine/serial_spine", timing.serial_events, timing.serial_ns});
  }
  if (parallel_batches > 0) {
    report.push_back({"engine/batch_exec", parallel_batches, timing.batch_exec_ns});
    report.push_back({"engine/merge_barrier", parallel_batches, timing.merge_barrier_ns});
  }
}

}  // namespace heteroplace::scenario
