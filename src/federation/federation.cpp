#include "federation/federation.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace heteroplace::federation {

namespace {

#ifndef NDEBUG
/// Whether two statuses agree field by field, doubles bit for bit.
bool identical(const DomainStatus& a, const DomainStatus& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (a.index != b.index || !same(a.weight, b.weight) ||
      !same(a.capacity.get(), b.capacity.get()) || !same(a.effective.get(), b.effective.get()) ||
      !same(a.offered_load.get(), b.offered_load.get()) || !same(a.load_ratio, b.load_ratio) ||
      a.active_jobs != b.active_jobs || a.classes != b.classes ||
      a.class_headroom.size() != b.class_headroom.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.class_headroom.size(); ++i) {
    if (!same(a.class_headroom[i].get(), b.class_headroom[i].get())) return false;
  }
  return true;
}
#endif

/// Rewrite every field of `s` with domain `d`'s status at `now`.
void fill_entry(const Domain& d, util::Seconds now, DomainStatus& s) {
  s.index = d.index();
  s.weight = d.weight();
  s.capacity = d.total_cpu();
  s.effective = d.effective_cpu();
  s.offered_load = d.offered_cpu_load(now);
  s.load_ratio = s.offered_load.get() / s.effective.get();
  s.active_jobs = d.active_job_count();
  // Per-class headroom for constraint-aware routing; scalar domains
  // leave both vectors empty and routers fall back to `effective`.
  s.classes.clear();
  s.class_headroom.clear();
  const auto& reg = d.world().cluster().classes();
  if (reg.explicit_classes()) {
    s.classes = reg.classes();
    for (const auto& r : d.world().cluster().placeable_capacity_by_class()) {
      s.class_headroom.push_back(r.cpu * d.weight());
    }
  }
}

}  // namespace

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
  status_.emplace_back();
  changes_.push_back(0);
  seen_.push_back(0);
  tx_.push_back({0.0, 0.0});  // empty: the first read refills
  tx_all_ = {0.0, 0.0};
  // The push may have moved the counters: re-point every domain.
  for (auto& dom : domains_) dom->set_change_counter(&changes_[dom->index()]);
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
  std::vector<double> shares = normalized_shares(spec, status(engine_.now()));
  FederatedApp app{std::move(spec), std::move(trace), std::move(shares)};
  for (auto& domain : domains_) {
    domain->world().add_app(
        workload::TxApp{app.spec, app.trace.scaled(app.shares[domain->index()])});
  }
  apps_.push_back(std::move(app));
}

Domain& Federation::submit_job(workload::JobSpec spec) {
  if (domains_.empty()) throw std::logic_error("Federation::submit_job: no domains");
  // One lookup serves the duplicate check and the insert; the entry is
  // taken back if the job does not land.
  const auto [slot, fresh] = job_domain_.try_emplace(spec.id, 0);
  if (!fresh) throw std::invalid_argument("Federation::submit_job: duplicate job id");
  const util::Seconds now = engine_.now();
  const util::JobId id = spec.id;
  const util::CpuMhz max_speed = spec.max_speed;
  std::size_t index = 0;
  try {
    const std::vector<DomainStatus>& table = status(now);
    index = router_->route_job(spec, table);
    if (index >= domains_.size()) {
      throw std::logic_error("DomainRouter::route_job: index out of range");
    }
#ifndef NDEBUG
    std::vector<DomainStatus> fresh_fill;
    fill_status(now, fresh_fill);
    for (std::size_t i = 0; i < table.size(); ++i) assert(identical(table[i], fresh_fill[i]));
    assert(dynamic_cast<const LeastLoadedRouter*>(router_.get()) == nullptr ||
           index == LeastLoadedRouter::reference_route(spec, fresh_fill));
#endif
    domains_[index]->world().submit_job(std::move(spec));
  } catch (...) {
    job_domain_.erase(slot);
    throw;
  }
  slot->second = index;
  Domain& d = *domains_[index];
  d.account_job_added(max_speed);
  obs_.job_routed(d.controller().obs(), id, index, max_speed.get(), now.get());
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
  const std::vector<DomainStatus>& table = status(engine_.now());
  obs_.demand_resplit(apps_.size(), engine_.now().get());
  for (auto& app : apps_) {
    // app_mut below bumps change counters; the table is only refreshed
    // by the next status() call, so every app splits on one snapshot.
    std::vector<double> shares = normalized_shares(app.spec, table);
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

const std::vector<DomainStatus>& Federation::status(util::Seconds now) {
  const double t = now.get();
  const auto inside = [t](const Domain::TxWindow& w) { return w.lo < t && t < w.hi; };
  const bool inside_all = inside(tx_all_);
  bool windows_moved = false;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    if (seen_[i] == changes_[i] && (inside_all || inside(tx_[i]))) continue;
    seen_[i] = changes_[i];
    fill_entry(*domains_[i], now, status_[i]);
    const Domain::TxWindow w = domains_[i]->tx_window();
    windows_moved |= w.lo != tx_[i].lo || w.hi != tx_[i].hi;
    tx_[i] = w;
  }
  if (windows_moved) {
    tx_all_ = {-std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity()};
    for (const Domain::TxWindow& w : tx_) {
      tx_all_.lo = std::max(tx_all_.lo, w.lo);
      tx_all_.hi = std::min(tx_all_.hi, w.hi);
    }
  }
  return status_;
}

void Federation::fill_status(util::Seconds now, std::vector<DomainStatus>& out) const {
  out.resize(domains_.size());
  for (const auto& d : domains_) fill_entry(*d, now, out[d->index()]);
}

}  // namespace heteroplace::federation
