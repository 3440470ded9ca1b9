#include "scenario/fault_factory.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "util/config.hpp"

namespace heteroplace::scenario {

namespace {

[[nodiscard]] faults::FaultKind kind_from_string(const std::string& name, const std::string& key) {
  if (name == "node-crash") return faults::FaultKind::kNodeCrash;
  if (name == "link-down") return faults::FaultKind::kLinkFault;
  if (name == "blackout") return faults::FaultKind::kDomainBlackout;
  throw util::ConfigError(key + ": unknown fault kind '" + name +
                          "' (expected node-crash|link-down|blackout)");
}

void check_rate_pair(const std::string& prefix, double mttf, double mttr) {
  if (mttf < 0.0) throw util::ConfigError("fault." + prefix + "_mttf_s: must be nonnegative");
  if (mttr < 0.0) throw util::ConfigError("fault." + prefix + "_mttr_s: must be nonnegative");
  if ((mttf > 0.0) != (mttr > 0.0)) {
    throw util::ConfigError("fault." + prefix + "_mttf_s and fault." + prefix +
                            "_mttr_s: set both (or neither)");
  }
}

}  // namespace

void validate_fault_spec(const FaultSpec& spec, const std::vector<std::size_t>& nodes_per_domain,
                         bool migration_enabled, double horizon_s) {
  if (!spec.enabled) return;
  if (spec.checkpoint_interval_s < 0.0) {
    throw util::ConfigError("fault.checkpoint_interval_s: must be nonnegative (0 = continuous)");
  }
  if (spec.max_concurrent_repairs < 0) {
    throw util::ConfigError("fault.max_concurrent_repairs: must be nonnegative (0 = unlimited)");
  }
  if (spec.until_s < 0.0) throw util::ConfigError("fault.until_s: must be nonnegative");
  check_rate_pair("node", spec.node_mttf_s, spec.node_mttr_s);
  check_rate_pair("link", spec.link_mttf_s, spec.link_mttr_s);
  check_rate_pair("domain", spec.domain_mttf_s, spec.domain_mttr_s);

  const bool stochastic =
      spec.node_mttf_s > 0.0 || spec.link_mttf_s > 0.0 || spec.domain_mttf_s > 0.0;
  const double until = spec.until_s > 0.0 ? spec.until_s : horizon_s;
  if (stochastic && until <= 0.0) {
    throw util::ConfigError(
        "fault.until_s: stochastic fault processes need a positive generation horizon "
        "(set fault.until_s, or run with a finite horizon_s)");
  }

  bool any_link = spec.link_mttf_s > 0.0;
  bool any_domain = spec.domain_mttf_s > 0.0;
  const std::size_t n_domains = nodes_per_domain.size();

  // (kind, domain, node, to) → explicit [start, end) windows, for the
  // overlap check below.
  std::map<std::tuple<int, std::size_t, std::size_t, std::size_t>,
           std::vector<std::pair<double, double>>>
      explicit_windows;

  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const FaultEventSpec& e = spec.events[i];
    const std::string p = "fault.event." + std::to_string(i) + ".";
    const faults::FaultKind kind = kind_from_string(e.kind, p + "kind");
    if (e.at_s < 0.0) throw util::ConfigError(p + "at_s: must be set and nonnegative");
    if (e.duration_s <= 0.0) throw util::ConfigError(p + "duration_s: must be set and positive");
    if (e.severity <= 0.0 || e.severity > 1.0) {
      throw util::ConfigError(p + "severity: must be in (0, 1]");
    }
    if (e.severity != 1.0 && kind != faults::FaultKind::kLinkFault) {
      throw util::ConfigError(p + "severity: partial severity only applies to link-down faults");
    }
    if (e.domain >= n_domains) {
      throw util::ConfigError(p + (kind == faults::FaultKind::kLinkFault ? "from" : "domain") +
                              ": domain " + std::to_string(e.domain) + " out of range (have " +
                              std::to_string(n_domains) + ")");
    }
    std::size_t node = 0;
    std::size_t to = 0;
    switch (kind) {
      case faults::FaultKind::kNodeCrash:
        if (e.node >= nodes_per_domain[e.domain]) {
          throw util::ConfigError(p + "node: node " + std::to_string(e.node) + " out of range "
                                  "(domain " + std::to_string(e.domain) + " has " +
                                  std::to_string(nodes_per_domain[e.domain]) + " nodes)");
        }
        node = e.node;
        break;
      case faults::FaultKind::kLinkFault:
        if (e.to >= n_domains) {
          throw util::ConfigError(p + "to: domain " + std::to_string(e.to) + " out of range");
        }
        if (e.to == e.domain) throw util::ConfigError(p + "to: link must cross domains");
        to = e.to;
        any_link = true;
        break;
      case faults::FaultKind::kDomainBlackout:
        any_domain = true;
        break;
    }
    // Overlapping explicit windows on one target are almost always a
    // config mistake (the second fault would hit an already-failed
    // target); reject instead of silently coalescing.
    auto& windows =
        explicit_windows[{static_cast<int>(kind), e.domain, node, to}];
    const double start = e.at_s;
    const double end = e.at_s + e.duration_s;
    for (const auto& [s, t] : windows) {
      if (start < t && s < end) {
        throw util::ConfigError(p + "at_s: window [" + std::to_string(start) + ", " +
                                std::to_string(end) + ") overlaps another explicit " + e.kind +
                                " window on the same target");
      }
    }
    windows.emplace_back(start, end);
  }

  if (any_link && n_domains < 2) {
    throw util::ConfigError("fault.link_*: link faults need a federated run (domains >= 2)");
  }
  if (any_link && !migration_enabled) {
    throw util::ConfigError(
        "fault.link_*: link faults need migration.enabled = true (links belong to the "
        "migration subsystem)");
  }
  if (any_domain && n_domains < 2) {
    throw util::ConfigError(
        "fault.domain_*: domain blackouts need a federated run (domains >= 2)");
  }
}

faults::FaultSchedule build_fault_schedule(const FaultSpec& spec, std::uint64_t scenario_seed,
                                           double horizon_s,
                                           const std::vector<std::size_t>& nodes_per_domain) {
  faults::FaultSchedule schedule;
  if (!spec.enabled) return schedule;
  for (const FaultEventSpec& e : spec.events) {
    faults::FaultWindow w;
    w.kind = kind_from_string(e.kind, "fault.event.kind");
    w.domain = e.domain;
    w.node = e.node;
    w.to = e.to;
    w.start_s = e.at_s;
    w.end_s = e.at_s + e.duration_s;
    w.severity = e.severity;
    schedule.add(w);
  }
  faults::FaultRates rates;
  rates.node_mttf_s = spec.node_mttf_s;
  rates.node_mttr_s = spec.node_mttr_s;
  rates.link_mttf_s = spec.link_mttf_s;
  rates.link_mttr_s = spec.link_mttr_s;
  rates.domain_mttf_s = spec.domain_mttf_s;
  rates.domain_mttr_s = spec.domain_mttr_s;
  // The fault seed is decorrelated from the workload streams (which use
  // Rng(seed) directly) even when it defaults to the scenario seed: the
  // schedule generator mixes it through its own splitmix chains.
  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed : scenario_seed ^ 0xFA17FA17FA17FA17ULL;
  const double until = spec.until_s > 0.0 ? spec.until_s : horizon_s;
  schedule.generate(rates, seed, until, nodes_per_domain);
  return schedule;
}

}  // namespace heteroplace::scenario
