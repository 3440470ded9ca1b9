#include "migration/policy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace heteroplace::migration {

SelectionMode selection_from_string(const std::string& name) {
  if (name == "fifo") return SelectionMode::kFifo;
  if (name == "cost") return SelectionMode::kCost;
  throw std::invalid_argument("unknown selection mode: " + name + " (expected fifo|cost)");
}

namespace {

/// Movable phases: anything stable. Transitioning jobs (starting,
/// suspending, resuming, migrating) are left for a later tick.
bool movable_phase(workload::JobPhase p) {
  return p == workload::JobPhase::kPending || p == workload::JobPhase::kRunning ||
         p == workload::JobPhase::kSuspended;
}

/// Ortigoza-style migration cost ranking. The wire occupancy of a move is
/// proportional to the VM image (≈ the memory reservation; pending jobs
/// have no image and move for free), while the benefit of moving early
/// scales with the work left to run at the destination — so the primary
/// key is image MB per remaining second of full-speed work, ascending.
/// Ties break toward the job with the least SLA slack (it can least
/// afford to wait for a later tick), then toward the lower id so the
/// ranking is a strict total order and proposals replay exactly.
struct CostKey {
  double cost_per_benefit{0.0};
  double slack_s{0.0};
  util::JobId id{};

  bool operator<(const CostKey& o) const {
    if (cost_per_benefit != o.cost_per_benefit) return cost_per_benefit < o.cost_per_benefit;
    if (slack_s != o.slack_s) return slack_s < o.slack_s;
    return id < o.id;
  }
};

CostKey cost_key(const workload::Job& job, util::Seconds now) {
  CostKey key;
  key.id = job.id();
  const double remaining_s =
      job.spec().max_speed.get() > 0.0 ? job.remaining().get() / job.spec().max_speed.get() : 0.0;
  const double image_mb =
      job.phase() == workload::JobPhase::kPending ? 0.0 : job.spec().memory.get();
  key.cost_per_benefit = image_mb / std::max(remaining_s, 1e-9);
  key.slack_s = job.goal_time().get() - now.get() - remaining_s;
  return key;
}

/// A source domain's movable jobs in proposal order: active-job list
/// order for fifo, cost-ranked for cost.
std::vector<const workload::Job*> movable_jobs(const federation::Federation& fed,
                                               std::size_t domain, SelectionMode selection,
                                               util::Seconds now) {
  std::vector<const workload::Job*> jobs;
  for (const workload::Job* job : fed.domain(domain).world().active_jobs()) {
    if (movable_phase(job->phase())) jobs.push_back(job);
  }
  if (selection == SelectionMode::kCost) {
    // Decorate-sort-undecorate: one key per job, not one per comparison.
    std::vector<std::pair<CostKey, const workload::Job*>> ranked;
    ranked.reserve(jobs.size());
    for (const workload::Job* job : jobs) ranked.emplace_back(cost_key(*job, now), job);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < ranked.size(); ++i) jobs[i] = ranked[i].second;
  }
  return jobs;
}

/// Destination with the most absolute headroom (effective − projected
/// load) among healthy domains, excluding `avoid`; ties break toward the
/// lowest index. Headroom may go negative — a domain already at or over
/// capacity is still accepted, since only weight/effective gate
/// eligibility (evacuation beats staying in a drained domain). Returns
/// status.size() when every candidate is drained or has no effective
/// capacity.
std::size_t best_destination(const std::vector<federation::DomainStatus>& status,
                             const std::vector<double>& projected, std::size_t avoid) {
  std::size_t best = status.size();
  double best_headroom = -std::numeric_limits<double>::infinity();
  for (const auto& d : status) {
    if (d.index == avoid) continue;
    if (d.weight <= 0.0 || d.effective.get() <= 0.0) continue;  // never a drained domain
    const double headroom = d.effective.get() - projected[d.index];
    if (headroom > best_headroom) {
      best_headroom = headroom;
      best = d.index;
    }
  }
  return best;
}

}  // namespace

std::vector<MigrationRequest> DrainPolicy::propose(
    const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
    util::Seconds now, int budget) {
  std::vector<MigrationRequest> out;
  // Projected offered loads, updated per assignment so one tick's
  // evacuees spread across destinations instead of piling on one.
  std::vector<double> projected(status.size(), 0.0);
  for (const auto& d : status) projected[d.index] = d.offered_load.get();

  for (const auto& d : status) {
    if (d.weight > 0.0) continue;  // only fully drained domains evacuate
    for (const workload::Job* job : movable_jobs(fed, d.index, config_.selection, now)) {
      if (static_cast<int>(out.size()) >= budget) return out;
      const std::size_t to = best_destination(status, projected, d.index);
      // Nowhere healthy for this domain's jobs: give up on this domain
      // only, not the whole pass. Today destination eligibility is
      // source-independent (drained sources are never candidates), so
      // this is equivalent to returning — the break keeps later drained
      // domains from being starved if destination choice ever becomes
      // job- or source-dependent (e.g. memory-fit or per-link gating).
      if (to >= status.size()) break;
      out.push_back({job->id(), d.index, to});
      projected[to] += job->spec().max_speed.get();
      projected[d.index] -= job->spec().max_speed.get();
    }
  }
  return out;
}

std::vector<MigrationRequest> RebalancePolicy::propose(
    const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
    util::Seconds now, int budget) {
  std::vector<MigrationRequest> out;
  std::vector<double> projected(status.size(), 0.0);
  for (const auto& d : status) projected[d.index] = d.offered_load.get();

  // Per-domain cursor over the (stable) per-source candidate ranking so
  // repeated source picks walk forward instead of re-proposing the same
  // job. Fifo keeps the raw active-job order; cost walks the ranking.
  std::vector<std::vector<const workload::Job*>> jobs(status.size());
  std::vector<bool> jobs_filled(status.size(), false);
  std::vector<std::size_t> cursor(status.size(), 0);

  auto rel_load = [&](std::size_t i) {
    const double eff = status[i].effective.get();
    return eff > 0.0 ? projected[i] / eff : std::numeric_limits<double>::infinity();
  };

  while (static_cast<int>(out.size()) < budget) {
    // Most-overloaded healthy source above the high watermark.
    std::size_t src = status.size();
    double src_load = config_.high_watermark;
    for (const auto& d : status) {
      if (d.weight <= 0.0 || d.effective.get() <= 0.0) continue;  // drain policy's business
      const double load = rel_load(d.index);
      if (load > src_load) {
        src_load = load;
        src = d.index;
      }
    }
    if (src >= status.size()) break;

    // Least-loaded destination below the low watermark.
    std::size_t dst = status.size();
    double dst_load = config_.low_watermark;
    for (const auto& d : status) {
      if (d.index == src || d.weight <= 0.0 || d.effective.get() <= 0.0) continue;
      const double load = rel_load(d.index);
      if (load < dst_load) {
        dst_load = load;
        dst = d.index;
      }
    }
    if (dst >= status.size()) break;

    if (!jobs_filled[src]) {
      jobs[src] = movable_jobs(fed, src, config_.selection, now);
      jobs_filled[src] = true;
    }
    if (cursor[src] >= jobs[src].size()) break;  // source exhausted; stop rather than thrash
    const workload::Job* pick = jobs[src][cursor[src]++];

    out.push_back({pick->id(), src, dst});
    projected[src] -= pick->spec().max_speed.get();
    projected[dst] += pick->spec().max_speed.get();
  }
  return out;
}

std::vector<MigrationRequest> CompositePolicy::propose(
    const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
    util::Seconds now, int budget) {
  std::vector<MigrationRequest> out = first_->propose(fed, status, now, budget);
  const int remaining = budget - static_cast<int>(out.size());
  if (remaining <= 0) return out;

  // Reflect the first stage's moves in the snapshot (and skip its jobs)
  // so the second stage does not double-book destination headroom — a
  // drain wave landing on a below-watermark domain would otherwise look
  // like untouched capacity and attract rebalance moves on top, only to
  // be rebalanced away again next tick.
  std::vector<federation::DomainStatus> adjusted = status;
  for (const auto& req : out) {
    const core::World& world = fed.domain(req.from).world();
    if (!world.job_exists(req.job)) continue;
    const util::CpuMhz speed = world.job(req.job).spec().max_speed;
    adjusted[req.from].offered_load -= speed;
    adjusted[req.to].offered_load += speed;
  }
  for (auto& req : second_->propose(fed, adjusted, now, remaining)) {
    bool duplicate = false;
    for (const auto& first_req : out) {
      if (first_req.job == req.job) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(req);
  }
  return out;
}

std::unique_ptr<MigrationPolicy> make_migration_policy(const std::string& name,
                                                       PolicyConfig config) {
  if (name == "drain") return std::make_unique<DrainPolicy>(config);
  if (name == "rebalance") return std::make_unique<RebalancePolicy>(config);
  if (name == "drain+rebalance") {
    return std::make_unique<CompositePolicy>(std::make_unique<DrainPolicy>(config),
                                             std::make_unique<RebalancePolicy>(config));
  }
  throw std::invalid_argument("unknown migration policy: " + name);
}

}  // namespace heteroplace::migration
