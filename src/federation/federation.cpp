#include "federation/federation.hpp"

#include <stdexcept>
#include <utility>

namespace heteroplace::federation {

Federation::Federation(sim::Engine& engine, std::unique_ptr<DomainRouter> router)
    : engine_(engine), router_(std::move(router)) {
  if (!router_) throw std::invalid_argument("Federation: router must not be null");
}

Domain& Federation::add_domain(std::string name, std::unique_ptr<core::PlacementPolicy> policy,
                               cluster::ActionLatencies latencies, core::ControllerConfig config,
                               bool auto_stagger) {
  if (started_) throw std::logic_error("Federation::add_domain: federation already started");
  if (!apps_.empty()) {
    throw std::logic_error("Federation::add_domain: add all domains before apps");
  }
  const std::size_t index = domains_.size();
  domains_.push_back(std::make_unique<Domain>(index, std::move(name), engine_, std::move(policy),
                                              latencies, config, auto_stagger));
  Domain& d = *domains_.back();
  // Every effect of a domain's control cycle is confined to its own
  // World, so tag its controller (and executor) with the domain index:
  // same-timestamp cycles of distinct domains may then run concurrently
  // under engine.threads>1. Cross-domain paths (migration manager,
  // routing, faults) schedule their own events untagged and stay serial.
  d.controller().set_shard(static_cast<sim::ShardId>(index));
  d.controller().set_observer([this, &d](const core::CycleReport& report) {
    if (observer_) observer_(d, report);
  });
  // The federation owns the executor's completion slot: it keeps the
  // per-domain load aggregates current, then forwards to whatever the
  // experiment driver registered on the domain.
  d.controller().executor().set_completion_callback([&d](const workload::Job& job) {
    d.account_job_removed(job.spec().max_speed);
    if (d.user_completion_) d.user_completion_(job);
  });
  return d;
}

std::vector<double> Federation::normalized_shares(const workload::TxAppSpec& spec,
                                                  const std::vector<DomainStatus>& st) {
  std::vector<double> shares = router_->demand_shares(spec, st);
  if (shares.size() != domains_.size()) {
    throw std::logic_error("DomainRouter::demand_shares: wrong share count");
  }
  double total = 0.0;
  for (double s : shares) {
    if (s < 0.0) throw std::logic_error("DomainRouter::demand_shares: negative share");
    total += s;
  }
  if (total <= 0.0) {
    // Every domain drained: fall back to an even split so demand is
    // never silently dropped.
    shares.assign(domains_.size(), 1.0 / static_cast<double>(domains_.size()));
    return shares;
  }
  for (double& s : shares) s /= total;
  return shares;
}

void Federation::add_app(workload::TxAppSpec spec, workload::DemandTrace trace) {
  if (domains_.empty()) throw std::logic_error("Federation::add_app: no domains");
  fill_status(engine_.now(), route_status_);
  std::vector<double> shares = normalized_shares(spec, route_status_);
  FederatedApp app{std::move(spec), std::move(trace), std::move(shares)};
  for (auto& domain : domains_) {
    domain->world().add_app(
        workload::TxApp{app.spec, app.trace.scaled(app.shares[domain->index()])});
  }
  apps_.push_back(std::move(app));
}

Domain& Federation::submit_job(workload::JobSpec spec) {
  if (domains_.empty()) throw std::logic_error("Federation::submit_job: no domains");
  if (job_domain_.count(spec.id) > 0) {
    throw std::invalid_argument("Federation::submit_job: duplicate job id");
  }
  fill_status(engine_.now(), route_status_);
  std::size_t index = router_->route_job(spec, route_status_);
  if (index >= domains_.size()) {
    throw std::logic_error("DomainRouter::route_job: index out of range");
  }
  const util::JobId id = spec.id;
  const util::CpuMhz max_speed = spec.max_speed;
  Domain& d = *domains_[index];
  d.world().submit_job(std::move(spec));
  d.account_job_added(max_speed);
  job_domain_.emplace(id, index);
  obs_.job_routed(d.controller().obs(), id, index, max_speed.get(), engine_.now().get());
  return d;
}

workload::Job Federation::detach_job(util::JobId id) {
  const std::size_t from = job_domain(id);
  Domain& d = *domains_[from];
  workload::Job job = d.world().extract_job(id);
  d.account_job_removed(job.spec().max_speed);
  return job;
}

void Federation::attach_job(std::size_t to, workload::Job job) {
  if (to >= domains_.size()) {
    throw std::out_of_range("Federation::attach_job: domain index out of range");
  }
  const util::JobId id = job.id();
  const util::CpuMhz max_speed = job.spec().max_speed;
  Domain& d = *domains_[to];
  d.world().adopt_job(std::move(job));
  d.account_job_added(max_speed);
  job_domain_[id] = to;
}

std::size_t Federation::job_domain(util::JobId id) const {
  auto it = job_domain_.find(id);
  if (it == job_domain_.end()) {
    throw std::out_of_range("Federation::job_domain: unknown job id");
  }
  return it->second;
}

std::vector<long> Federation::jobs_per_domain() const {
  std::vector<long> counts(domains_.size(), 0);
  for (const auto& kv : job_domain_) ++counts[kv.second];
  return counts;
}

void Federation::set_domain_weight(std::size_t i, double weight) {
  if (weight < 0.0 || weight > 1.0) {
    throw std::invalid_argument("Federation::set_domain_weight: weight must be in [0, 1]");
  }
  const double old_weight = domain(i).weight();
  domain(i).set_weight(weight);
  obs_.domain_weight(i, old_weight, weight, engine_.now().get());
  // Local controllers pick the re-split up at their next cycle, each at
  // its own phase.
  resplit_demand();
  if (weight_observer_) weight_observer_(i, old_weight, weight);
}

void Federation::resplit_demand() {
  // Re-split every app's demand under the current weights (one status
  // snapshot serves all apps). Diffed: a domain whose share did not move
  // keeps its trace view untouched — an identical-factor replacement
  // would alias the same breakpoints anyway — so a weight event costs
  // only the splits it actually changed. The scaled() views themselves
  // are O(1) (shared breakpoints), not deep copies.
  fill_status(engine_.now(), route_status_);
  obs_.demand_resplit(apps_.size(), engine_.now().get());
  for (auto& app : apps_) {
    std::vector<double> shares = normalized_shares(app.spec, route_status_);
    for (auto& d : domains_) {
      const std::size_t i = d->index();
      if (shares[i] == app.shares[i]) continue;
      d->world().app_mut(app.spec.id).set_trace(app.trace.scaled(shares[i]));
    }
    app.shares = std::move(shares);
  }
}

void Federation::start() {
  if (started_) throw std::logic_error("Federation::start: already started");
  started_ = true;
  const auto n = static_cast<double>(domains_.size());
  for (auto& d : domains_) {
    core::PlacementController& ctrl = d->controller();
    if (d->auto_stagger() && ctrl.config().first_cycle_at.get() == 0.0 && d->index() > 0) {
      const util::Seconds offset =
          ctrl.config().cycle * (static_cast<double>(d->index()) / n);
      ctrl.set_first_cycle_at(engine_.now() + offset);
    }
    ctrl.start();
  }
}

std::size_t Federation::total_submitted() const {
  std::size_t n = 0;
  for (const auto& d : domains_) n += d->world().submitted_count();
  return n;
}

std::size_t Federation::total_completed() const {
  std::size_t n = 0;
  for (const auto& d : domains_) n += d->world().completed_count();
  return n;
}

util::CpuMhz Federation::total_capacity() const {
  util::CpuMhz total{0.0};
  for (const auto& d : domains_) total += d->total_cpu();
  return total;
}

std::vector<DomainStatus> Federation::status(util::Seconds now) const {
  std::vector<DomainStatus> out;
  fill_status(now, out);
  return out;
}

void Federation::fill_status(util::Seconds now, std::vector<DomainStatus>& out) const {
  out.resize(domains_.size());
  for (const auto& d : domains_) {
    DomainStatus& s = out[d->index()];
    s.index = d->index();
    s.weight = d->weight();
    s.capacity = d->total_cpu();
    s.effective = d->effective_cpu();
    s.offered_load = d->offered_cpu_load(now);
    s.active_jobs = d->active_job_count();
    // Per-class headroom for constraint-aware routing; scalar domains
    // leave both vectors empty and routers fall back to `effective`.
    s.classes.clear();
    s.class_headroom.clear();
    const auto& reg = d->world().cluster().classes();
    if (reg.explicit_classes()) {
      s.classes = reg.classes();
      for (const auto& r : d->world().cluster().placeable_capacity_by_class()) {
        s.class_headroom.push_back(r.cpu * d->weight());
      }
    }
  }
}

}  // namespace heteroplace::federation
