#include "federation/router.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace heteroplace::federation {

util::CpuMhz DomainStatus::effective_for(const cluster::ConstraintSet& c) const {
  if (c.empty() || classes.empty()) return effective;
  util::CpuMhz sum{0.0};
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (c.admits(classes[i])) sum += class_headroom[i];
  }
  return sum;
}

namespace {

/// Constraint-weighted capacity shares: proportional to each domain's
/// effective capacity on admitting machine classes; all-zero when every
/// domain is drained or incompatible (the federation's normalizer then
/// falls back to an even split). An empty constraint reproduces the
/// pre-class shares exactly.
std::vector<double> capacity_shares(const std::vector<DomainStatus>& domains,
                                    const cluster::ConstraintSet& c) {
  std::vector<double> shares(domains.size(), 0.0);
  double total = 0.0;
  for (const auto& d : domains) total += d.effective_for(c).get();
  if (total <= 0.0) return shares;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    shares[i] = domains[i].effective_for(c).get() / total;
  }
  return shares;
}

/// SplitMix64 finalizer: a stable, well-mixed hash of a job id.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t LeastLoadedRouter::route_job(const workload::JobSpec& spec,
                                         const std::vector<DomainStatus>& domains) {
  if (!spec.constraint.empty()) return reference_route(spec, domains);
  // Unconstrained: effective_for is `effective`, and load_ratio is the
  // quotient the reference scan would compute, so the pick is the same.
  std::size_t best = 0;  // everything drained: domain 0, deterministically
  double best_load = std::numeric_limits<double>::infinity();
  for (const auto& d : domains) {
    if (d.effective.get() <= 0.0) continue;
    if (d.load_ratio < best_load) {
      best_load = d.load_ratio;
      best = d.index;
    }
  }
  return best;
}

std::size_t LeastLoadedRouter::reference_route(const workload::JobSpec& spec,
                                               const std::vector<DomainStatus>& domains) {
  std::size_t best = 0;  // everything drained: domain 0, deterministically
  double best_load = std::numeric_limits<double>::infinity();
  for (const auto& d : domains) {
    // Drained or constraint-incompatible: skip unless all are.
    const double eligible = d.effective_for(spec.constraint).get();
    if (eligible <= 0.0) continue;
    const double load = d.offered_load.get() / eligible;
    if (load < best_load) {
      best_load = load;
      best = d.index;
    }
  }
  return best;
}

std::vector<double> LeastLoadedRouter::demand_shares(const workload::TxAppSpec& app,
                                                     const std::vector<DomainStatus>& domains) {
  return capacity_shares(domains, app.constraint);
}

std::size_t CapacityWeightedRouter::route_job(const workload::JobSpec& spec,
                                              const std::vector<DomainStatus>& domains) {
  credit_.resize(domains.size(), 0.0);
  const auto shares = capacity_shares(domains, spec.constraint);
  double total_share = 0.0;
  for (double s : shares) total_share += s;
  if (total_share <= 0.0) return 0;  // everything drained
  std::size_t best = domains.size();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    if (shares[i] <= 0.0) {
      // Drained: forfeit any accumulated entitlement so stale credit
      // cannot route work here, and start fresh on recovery.
      credit_[i] = 0.0;
      continue;
    }
    credit_[i] += shares[i];
    if (best == domains.size() || credit_[i] > credit_[best]) best = i;
  }
  credit_[best] -= 1.0;
  return best;
}

std::vector<double> CapacityWeightedRouter::demand_shares(
    const workload::TxAppSpec& app, const std::vector<DomainStatus>& domains) {
  return capacity_shares(domains, app.constraint);
}

std::size_t StickyRouter::route_job(const workload::JobSpec& spec,
                                    const std::vector<DomainStatus>& domains) {
  const std::size_t n = domains.size();
  const std::size_t home = static_cast<std::size_t>(mix(spec.id.get()) % n);
  // Linear probe from the home index so a drained (or incompatible)
  // domain's jobs land on a stable fallback rather than scattering.
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t i = (home + probe) % n;
    if (domains[i].effective_for(spec.constraint).get() > 0.0) return i;
  }
  return home;  // everything drained
}

std::vector<double> StickyRouter::demand_shares(const workload::TxAppSpec& app,
                                                const std::vector<DomainStatus>& domains) {
  const std::size_t n = domains.size();
  std::vector<double> shares(n, 0.0);
  const std::size_t home = static_cast<std::size_t>(app.id.get() % n);
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t i = (home + probe) % n;
    if (domains[i].effective_for(app.constraint).get() > 0.0) {
      shares[i] = 1.0;
      return shares;
    }
  }
  shares[home] = 1.0;  // everything drained
  return shares;
}

std::unique_ptr<DomainRouter> make_router(const std::string& name) {
  if (name == "least-loaded") return std::make_unique<LeastLoadedRouter>();
  if (name == "capacity-weighted") return std::make_unique<CapacityWeightedRouter>();
  if (name == "sticky") return std::make_unique<StickyRouter>();
  throw std::invalid_argument("unknown domain router: " + name);
}

}  // namespace heteroplace::federation
