#include "obs/context.hpp"

#include <iterator>

#include "obs/audit.hpp"
#include "obs/profile.hpp"
#include "obs/sla.hpp"
#include "obs/trace.hpp"
#include "workload/job.hpp"

namespace heteroplace::obs {

namespace {

double num(util::JobId id) { return static_cast<double>(id.get()); }
double num(util::NodeId id) { return static_cast<double>(id.get()); }
double num(std::size_t v) { return static_cast<double>(v); }

/// Executor lifecycle-action audit record ('X'); `verdict` is a literal.
void audit_action(AuditLog* audit, double now, const char* verdict, const workload::Job& job,
                  int node) {
  if (audit == nullptr) return;
  AuditRecord rec;
  rec.t = now;
  rec.kind = 'X';
  rec.verdict = verdict;
  rec.consumer = static_cast<std::int64_t>(job.id().get());
  rec.node = node;
  audit->record(rec);
}

struct SpanSpec {
  Lane lane;
  const char* name;  // nullptr = profiler only
  Phase phase;
};

constexpr SpanSpec kSpans[] = {
    {Lane::kController, "cycle", Phase::kControllerCycle},
    {Lane::kController, "consumers", Phase::kPolicyConsumers},
    {Lane::kController, "equalize", Phase::kPolicyEqualize},
    {Lane::kController, "build_problem", Phase::kPolicyBuildProblem},
    {Lane::kController, "solve", Phase::kPolicySolve},
    {Lane::kController, nullptr, Phase::kSolvePin},
    {Lane::kController, nullptr, Phase::kSolveGrow},
    {Lane::kController, nullptr, Phase::kSolvePack},
    {Lane::kController, nullptr, Phase::kSolveFill},
    {Lane::kController, nullptr, Phase::kSolveEmit},
    {Lane::kExecutor, "apply", Phase::kExecutorApply},
    {Lane::kExecutor, "pass1_release", Phase::kExecutorRelease},
    {Lane::kExecutor, "pass2_resize", Phase::kExecutorResize},
    {Lane::kExecutor, "pass3_migrate", Phase::kExecutorMigrate},
    {Lane::kExecutor, "pass4_start", Phase::kExecutorStart},
    {Lane::kMigration, nullptr, Phase::kMigrationTick},
    {Lane::kPower, nullptr, Phase::kPowerTick},
    {Lane::kFaults, nullptr, Phase::kFaultEvent},
    {Lane::kEngine, nullptr, Phase::kSampling},
};

static_assert(std::size(kSpans) == static_cast<std::size_t>(SpanKind::kSampling) + 1,
              "one kSpans row per SpanKind, in enum order");

const SpanSpec& spec(SpanKind kind) { return kSpans[static_cast<std::size_t>(kind)]; }

}  // namespace

// --- job lifecycle -------------------------------------------------------------

void ObsContext::job_started(const workload::Job& job, util::NodeId node, double now) const {
  if (sla != nullptr) sla->on_job_started(job.id(), now);
  audit_action(audit, now, "start", job, static_cast<int>(node.get()));
  if (trace != nullptr) {
    trace->instant(pid, Lane::kExecutor, "job_start", now,
                   {{"job", num(job.id())}, {"node", num(node)}});
  }
}

void ObsContext::job_resumed(const workload::Job& job, util::NodeId node, double now) const {
  audit_action(audit, now, "resume", job, static_cast<int>(node.get()));
  if (trace != nullptr) {
    trace->instant(pid, Lane::kExecutor, "job_resume", now,
                   {{"job", num(job.id())}, {"node", num(node)}});
  }
}

void ObsContext::job_suspended(const workload::Job& job, double now) const {
  audit_action(audit, now, "suspend", job,
               job.node().valid() ? static_cast<int>(job.node().get()) : -1);
  if (trace != nullptr) {
    trace->instant(pid, Lane::kExecutor, "job_suspend", now, {{"job", num(job.id())}});
  }
}

void ObsContext::job_migrated(const workload::Job& job, util::NodeId node, double now) const {
  audit_action(audit, now, "migrate", job, static_cast<int>(node.get()));
  if (trace != nullptr) {
    trace->instant(pid, Lane::kExecutor, "job_migrate", now,
                   {{"job", num(job.id())}, {"node", num(node)}});
  }
}

void ObsContext::job_completed(const workload::Job& job, double now) const {
  if (trace != nullptr) {
    trace->instant(pid, Lane::kExecutor, "job_completed", now, {{"job", num(job.id())}});
  }
  if (sla != nullptr) sla->on_job_completed(job, now);
}

// --- routing -------------------------------------------------------------------

void ObsContext::job_routed(const ObsContext& dest, util::JobId id, std::size_t domain,
                            double demand_mhz, double now) const {
  if (trace != nullptr) {
    trace->instant(pid, Lane::kRouter, "route_job", now,
                   {{"job", num(id)}, {"domain", num(domain)}, {"demand_mhz", demand_mhz}});
  }
  if (dest.sla != nullptr) dest.sla->on_admit(id, now);
}

void ObsContext::domain_weight(std::size_t domain, double old_weight, double new_weight,
                               double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kRouter, "domain_weight", now,
                 {{"domain", num(domain)}, {"old", old_weight}, {"new", new_weight}});
}

void ObsContext::demand_resplit(std::size_t apps, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kRouter, "resplit_demand", now, {{"apps", num(apps)}});
}

// --- power ---------------------------------------------------------------------

void ObsContext::node_park(util::NodeId node, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kPower, "park", now, {{"node", num(node)}});
}

void ObsContext::node_parked(util::NodeId node, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kPower, "parked", now, {{"node", num(node)}});
}

void ObsContext::node_wake(util::NodeId node, double now) const {
  if (sla != nullptr) sla->on_wake_begin(now);
  if (trace != nullptr) trace->instant(pid, Lane::kPower, "wake", now, {{"node", num(node)}});
}

void ObsContext::node_woke(util::NodeId node, bool rejoined, double now) const {
  if (sla != nullptr) sla->on_wake_end(now);
  if (rejoined && trace != nullptr) {
    trace->instant(pid, Lane::kPower, "woke", now, {{"node", num(node)}});
  }
}

void ObsContext::pstate(int p, double speed, double active_w, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kPower, "pstate", now,
                 {{"p", static_cast<double>(p)}, {"speed", speed}, {"active_w", active_w}});
}

// --- faults --------------------------------------------------------------------

void ObsContext::fault(const char* kind, std::size_t domain, std::size_t node, double severity,
                       double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kFaults, kind, now,
                 {{"domain", num(domain)}, {"node", num(node)}, {"severity", severity}});
}

void ObsContext::recovery(std::size_t domain, std::size_t node, int kind, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kFaults, "recovery", now,
                 {{"domain", num(domain)}, {"node", num(node)}, {"kind", static_cast<double>(kind)}});
}

// --- migration -----------------------------------------------------------------

void ObsContext::migration_begin(util::JobId job, std::size_t from, std::size_t to,
                                 double now) const {
  if (trace == nullptr) return;
  trace->async_begin(pid, Lane::kMigration, "migration", job.get(), now,
                     {{"from", num(from)}, {"to", num(to)}});
}

void ObsContext::transfer_submit(util::JobId job, double image_mb, double transfer_s,
                                 double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kMigration, "transfer_submit", now,
                 {{"job", num(job)}, {"image_mb", image_mb}, {"transfer_s", transfer_s}});
}

void ObsContext::transfer_retry_wait(util::JobId job, int attempt, double backoff_s,
                                     double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kMigration, "transfer_retry_wait", now,
                 {{"job", num(job)}, {"attempt", static_cast<double>(attempt)},
                  {"backoff_s", backoff_s}});
}

void ObsContext::migration_end(util::JobId job, const char* outcome, double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kMigration, outcome, now, {{"job", num(job)}});
  trace->async_end(pid, Lane::kMigration, "migration", job.get(), now);
}

// --- controller ----------------------------------------------------------------

void ObsContext::cycle_skipped(double now) const {
  if (trace == nullptr) return;
  trace->instant(pid, Lane::kController, "cycle_skipped", now);
}

// --- spans ---------------------------------------------------------------------

Span::Span(const ObsContext& ctx, SpanKind kind, double t_s, std::initializer_list<TraceArg> args)
    : trace_(spec(kind).name != nullptr ? ctx.trace : nullptr),
      profiler_(ctx.profiler),
      pid_(ctx.pid),
      kind_(kind),
      t_s_(t_s) {
  if (profiler_ != nullptr) t0_ = std::chrono::steady_clock::now();
  if (trace_ != nullptr) trace_->begin(pid_, spec(kind).lane, spec(kind).name, t_s_, args);
}

void Span::end(std::initializer_list<TraceArg> args) {
  if (trace_ == nullptr) return;
  trace_->end(pid_, spec(kind_).lane, spec(kind_).name, t_s_, args);
  trace_ = nullptr;
}

Span::~Span() {
  end();
  if (profiler_ == nullptr) return;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0_)
                      .count();
  profiler_->add(spec(kind_).phase, static_cast<std::uint64_t>(ns));
}

}  // namespace heteroplace::obs
