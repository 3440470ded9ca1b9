#pragma once

// Machine-class plumbing shared by the config loader and the runner:
// validation of the `classes` / `class.<name>.*` pool keys and the
// `*.constraint.*` job/app keys, and cluster population (the same
// pattern as fault_factory / power_factory / obs_factory).

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/machine_class.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// Parse a comma-separated tag list ("gpu,nvme") into sorted unique
/// tags; throws util::ConfigError naming `key` on an empty tag (a
/// stray comma) or a tag with whitespace.
[[nodiscard]] std::vector<std::string> parse_tag_list(const std::string& csv,
                                                      const std::string& key);

/// Fail-loud structural validation of a spec's class pools: duplicate
/// or empty names, nonpositive counts, missing cores/core_mhz/mem_mb,
/// speed_factor outside (0, 1]. No-op for a scalar spec. Errors name
/// the offending `class.<name>.<field>` config key.
void validate_class_pools(const ClusterSpec& cluster);

/// True when at least one of the spec's pools admits `c`. A scalar
/// spec holds only the implicit default class, which any non-empty
/// constraint fails closed against.
[[nodiscard]] bool cluster_admits(const ClusterSpec& cluster, const cluster::ConstraintSet& c);

/// Throw util::ConfigError naming `what` if `c.min_core_mhz` is negative
/// or unless some pool among `clusters` admits `c` — an unsatisfiable
/// constraint is a config error at load time, not a job that waits
/// forever at run time.
void validate_constraint(const cluster::ConstraintSet& c,
                         const std::vector<const ClusterSpec*>& clusters,
                         const std::string& what);

/// Register the spec's classes on `cl` and add its nodes: pools in
/// declaration order (node ids group by class; a zero-count pool still
/// registers its class so ClassIds align across domains), or the exact
/// legacy homogeneous path for a scalar spec.
void populate_cluster(cluster::Cluster& cl, const ClusterSpec& spec);

}  // namespace heteroplace::scenario
