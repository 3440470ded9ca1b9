#pragma once

// Desired-placement descriptions produced by placement policies and
// consumed by the action executor.
//
// A PlacementPlan is declarative: "job J should be running on node N with
// CPU share c", "app A should have an instance on node N with share c".
// The executor diffs the plan against cluster reality and emits actions
// (start/suspend/resume/migrate/resize) to converge.
//
// Order contract: every policy returns `jobs` sorted by job id and
// `instances` sorted by (app, node), each key at most once (sort() puts a
// plan in that order, in_order() checks it). The executor relies on it to
// look the plan up with a merge walk instead of building an index per call.

#include <algorithm>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace heteroplace::cluster {

struct DesiredJobPlacement {
  util::JobId job{};
  util::NodeId node{};
  util::CpuMhz cpu{0.0};
};

struct DesiredWebInstance {
  util::AppId app{};
  util::NodeId node{};
  util::CpuMhz cpu{0.0};
};

struct PlacementPlan {
  /// Jobs that should be executing, sorted by job id. Jobs absent from
  /// this list should be left pending (if never started) or suspended (if
  /// running).
  std::vector<DesiredJobPlacement> jobs;

  /// Web instances that should exist, at most one per (app, node) pair,
  /// sorted by (app, node). Existing instances on nodes not listed are
  /// stopped.
  std::vector<DesiredWebInstance> instances;

  /// Put the plan into the contract order. Keys must already be unique.
  /// A list that is already in order costs one linear check.
  void sort() {
    if (!std::is_sorted(jobs.begin(), jobs.end(), job_before)) {
      std::sort(jobs.begin(), jobs.end(), job_before);
    }
    if (!std::is_sorted(instances.begin(), instances.end(), instance_before)) {
      std::sort(instances.begin(), instances.end(), instance_before);
    }
  }

  /// True when both lists are strictly increasing in the contract order.
  [[nodiscard]] bool in_order() const {
    const auto job_out = [](const auto& a, const auto& b) { return !job_before(a, b); };
    const auto inst_out = [](const auto& a, const auto& b) { return !instance_before(a, b); };
    return std::adjacent_find(jobs.begin(), jobs.end(), job_out) == jobs.end() &&
           std::adjacent_find(instances.begin(), instances.end(), inst_out) == instances.end();
  }

  [[nodiscard]] std::optional<DesiredJobPlacement> find_job(util::JobId id) const {
    for (const auto& j : jobs) {
      if (j.job == id) return j;
    }
    return std::nullopt;
  }

  /// Total CPU the plan grants each app / the job workload.
  [[nodiscard]] util::CpuMhz total_job_cpu() const {
    util::CpuMhz total{0.0};
    for (const auto& j : jobs) total += j.cpu;
    return total;
  }
  [[nodiscard]] util::CpuMhz app_cpu(util::AppId app) const {
    util::CpuMhz total{0.0};
    for (const auto& i : instances) {
      if (i.app == app) total += i.cpu;
    }
    return total;
  }

  friend std::ostream& operator<<(std::ostream& os, const PlacementPlan& p) {
    os << "plan{jobs=" << p.jobs.size() << ", instances=" << p.instances.size() << "}";
    return os;
  }

 private:
  static bool job_before(const DesiredJobPlacement& a, const DesiredJobPlacement& b) {
    return a.job < b.job;
  }
  static bool instance_before(const DesiredWebInstance& a, const DesiredWebInstance& b) {
    return std::tie(a.app, a.node) < std::tie(b.app, b.node);
  }
};

}  // namespace heteroplace::cluster
