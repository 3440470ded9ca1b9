#include "scenario/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/sla.hpp"
#include "perfmodel/tx_model.hpp"

namespace heteroplace::scenario {

AllocationSample sample_allocations(const core::World& world) {
  AllocationSample out;
  const auto& cl = world.cluster();
  out.tx_alloc_per_app.reserve(world.apps().size());
  for (const auto& app : world.apps()) {
    double alloc = 0.0;
    for (util::VmId vm_id : cl.web_instances()) {
      const auto& vm = cl.vm(vm_id);
      if (vm.app == app.id() && vm.state == cluster::VmState::kRunning) {
        alloc += vm.cpu_share.get();
      }
    }
    out.tx_alloc_per_app.push_back(alloc);
    out.tx_alloc_mhz += alloc;
  }
  for (const workload::Job* job : world.active_jobs()) {
    ++out.active_jobs;
    switch (job->phase()) {
      case workload::JobPhase::kRunning:
        out.lr_alloc_mhz += job->speed().get();
        ++out.jobs_running;
        break;
      case workload::JobPhase::kPending:
        ++out.jobs_pending;
        break;
      case workload::JobPhase::kSuspended:
        ++out.jobs_suspended;
        break;
      default:
        break;
    }
  }
  return out;
}

ExperimentSummary merge_summaries(const std::vector<ExperimentSummary>& parts) {
  ExperimentSummary out;
  if (parts.empty()) return out;
  out.scenario = parts.front().scenario;
  out.policy = parts.front().policy;
  double goal_met_weighted = 0.0;
  for (const auto& p : parts) {
    out.jobs_submitted += p.jobs_submitted;
    out.jobs_completed += p.jobs_completed;
    goal_met_weighted += p.goal_met_fraction * static_cast<double>(p.jobs_completed);
    out.completion_ratio.merge(p.completion_ratio);
    out.job_utility.merge(p.job_utility);
    out.tx_utility.merge(p.tx_utility);
    out.lr_utility.merge(p.lr_utility);
    out.equalization_gap.merge(p.equalization_gap);
    out.actions.starts += p.actions.starts;
    out.actions.suspends += p.actions.suspends;
    out.actions.resumes += p.actions.resumes;
    out.actions.migrations += p.actions.migrations;
    out.actions.instance_starts += p.actions.instance_starts;
    out.actions.instance_stops += p.actions.instance_stops;
    out.actions.resizes += p.actions.resizes;
    out.cycles += p.cycles;
    out.sim_end_time_s = std::max(out.sim_end_time_s, p.sim_end_time_s);
    out.invariant_violations += p.invariant_violations;
  }
  if (out.jobs_completed > 0) {
    out.goal_met_fraction = goal_met_weighted / static_cast<double>(out.jobs_completed);
  }
  return out;
}

void MetricsRecorder::on_cycle(const core::CycleReport& report) {
  const double t = report.t.get();
  const auto& d = report.diag;

  // Figure 1 inputs (policy side): average hypothetical utility of jobs.
  if (d.active_jobs > 0) {
    series_.add("lr_hyp_utility", t, d.jobs_avg_hyp_utility);
    summary_.lr_utility.add(d.jobs_avg_hyp_utility);
    if (have_tx_utility_) {
      const double gap = std::fabs(last_tx_utility_ - d.jobs_avg_hyp_utility);
      if (d.contended) summary_.equalization_gap.add(gap);
      series_.add("utility_gap", t, gap);
    }
  }
  if (!std::isnan(d.u_star)) series_.add("u_star", t, d.u_star);

  // Figure 2 demand curves.
  series_.add("lr_demand_mhz", t, d.jobs_demand.get());
  series_.add("lr_target_mhz", t, d.jobs_target.get());
  double tx_demand = 0.0;
  double tx_target = 0.0;
  for (const auto& a : d.apps) {
    tx_demand += a.demand.get();
    tx_target += a.target.get();
  }
  series_.add("tx_demand_mhz", t, tx_demand);
  series_.add("tx_target_mhz", t, tx_target);

  // Queue/churn series.
  series_.add("active_jobs", t, d.active_jobs);
  series_.add("jobs_waiting", t, d.solver.jobs_waiting);
  series_.add("suspends", t, static_cast<double>(report.actions.suspends));
  series_.add("migrations", t, static_cast<double>(report.actions.migrations));
  series_.add("instance_starts", t, static_cast<double>(report.actions.instance_starts));

  summary_.actions.starts += report.actions.starts;
  summary_.actions.suspends += report.actions.suspends;
  summary_.actions.resumes += report.actions.resumes;
  summary_.actions.migrations += report.actions.migrations;
  summary_.actions.instance_starts += report.actions.instance_starts;
  summary_.actions.instance_stops += report.actions.instance_stops;
  summary_.actions.resizes += report.actions.resizes;
  ++summary_.cycles;
}

void MetricsRecorder::sample(util::Seconds now, const AllocationSample& alloc) {
  const double t = now.get();

  // Measured allocations (Figure 2 "satisfied demand" curves).
  double u_tx_weighted = 0.0;
  double importance_total = 0.0;
  for (std::size_t i = 0; i < world_->apps().size(); ++i) {
    const auto& app = world_->apps()[i];
    const double app_alloc = alloc.tx_alloc_per_app[i];
    const double lambda = app.arrival_rate(now);
    // Report *raw* utility (the equalizer works on raw/importance).
    const double w = app.spec().importance > 0.0 ? app.spec().importance : 1.0;
    const double u = tx_model_->utility(app.spec(), lambda, util::CpuMhz{app_alloc}) * w;
    series_.add("tx_utility_" + app.spec().name, t, u);
    series_.add("tx_alloc_mhz_" + app.spec().name, t, app_alloc);
    const auto perf = perfmodel::evaluate_tx_app(app, now, util::CpuMhz{app_alloc});
    series_.add("tx_rt_" + app.spec().name, t, perf.response_time.get());
    if (sla_ != nullptr) {
      sla_->on_tx_sample(app.spec().name, t, perf.response_time.get(), app.spec().rt_goal.get());
    }
    u_tx_weighted += u;
    importance_total += 1.0;
  }
  series_.add("tx_alloc_mhz", t, alloc.tx_alloc_mhz);
  if (importance_total > 0.0) {
    const double u_tx = u_tx_weighted / importance_total;
    series_.add("tx_utility", t, u_tx);
    summary_.tx_utility.add(u_tx);
    last_tx_utility_ = u_tx;
    have_tx_utility_ = true;
  }

  series_.add("lr_alloc_mhz", t, alloc.lr_alloc_mhz);
  series_.add("jobs_running", t, alloc.jobs_running);
  series_.add("jobs_pending", t, alloc.jobs_pending);
  series_.add("jobs_suspended", t, alloc.jobs_suspended);
  series_.add("jobs_completed", t, static_cast<double>(world_->completed_count()));
}

void MetricsRecorder::on_job_completed(const workload::Job& job) {
  ++summary_.jobs_completed;
  const double ratio = (job.completion_time().get() - job.spec().submit_time.get()) /
                       job.spec().completion_goal.get();
  summary_.completion_ratio.add(ratio);
  const double w = job.spec().importance > 0.0 ? job.spec().importance : 1.0;
  const double u = w * job_model_->utility_at_completion(job.spec(), job.completion_time());
  summary_.job_utility.add(u);
  const long met = ratio <= 1.0 ? 1 : 0;
  // goal_met_fraction finalized from counts at the end.
  summary_.goal_met_fraction += static_cast<double>(met);
}

}  // namespace heteroplace::scenario
