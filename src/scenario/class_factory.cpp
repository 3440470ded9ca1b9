#include "scenario/class_factory.hpp"

#include <algorithm>
#include <set>

#include "util/config.hpp"

namespace heteroplace::scenario {

std::vector<std::string> parse_tag_list(const std::string& csv, const std::string& key) {
  std::vector<std::string> tags;
  if (csv.empty()) return tags;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string tag =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tag.empty()) throw util::ConfigError(key + ": empty tag in list '" + csv + "'");
    if (tag.find_first_of(" \t") != std::string::npos) {
      throw util::ConfigError(key + ": tag '" + tag + "' contains whitespace");
    }
    tags.push_back(tag);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return tags;
}

void validate_class_pools(const ClusterSpec& cluster) {
  std::set<std::string> seen;
  for (const auto& pool : cluster.classes) {
    const cluster::MachineClass& c = pool.klass;
    const std::string p = "class." + c.name + ".";
    if (c.name.empty()) throw util::ConfigError("classes: empty class name");
    if (!seen.insert(c.name).second) {
      throw util::ConfigError("classes: duplicate class name '" + c.name + "'");
    }
    if (pool.count < 1) throw util::ConfigError(p + "count: must be positive");
    if (c.cores < 1) throw util::ConfigError(p + "cores: must be positive");
    if (c.core_mhz <= 0.0) throw util::ConfigError(p + "core_mhz: must be positive");
    if (c.mem_mb <= 0.0) throw util::ConfigError(p + "mem_mb: must be positive");
    if (c.speed_factor <= 0.0 || c.speed_factor > 1.0) {
      throw util::ConfigError(p + "speed_factor: must be in (0, 1]");
    }
  }
}

bool cluster_admits(const ClusterSpec& cluster, const cluster::ConstraintSet& c) {
  if (!cluster.heterogeneous()) return c.admits(cluster::MachineClass{});
  for (const auto& pool : cluster.classes) {
    if (pool.count > 0 && c.admits(pool.klass)) return true;
  }
  return false;
}

void validate_constraint(const cluster::ConstraintSet& c,
                         const std::vector<const ClusterSpec*>& clusters,
                         const std::string& what) {
  if (c.min_core_mhz < 0.0) throw util::ConfigError(what + ".min_core_mhz: must be nonnegative");
  if (c.empty()) return;
  for (const ClusterSpec* cl : clusters) {
    if (cluster_admits(*cl, c)) return;
  }
  std::string desc;
  if (!c.arch.empty()) desc += " arch=" + c.arch;
  for (const auto& tag : c.accel) desc += " accel=" + tag;
  if (c.min_core_mhz > 0.0) desc += " min_core_mhz=" + std::to_string(c.min_core_mhz);
  throw util::ConfigError(what + ": no machine class satisfies" + desc +
                          " — the constrained work could never be placed");
}

void populate_cluster(cluster::Cluster& cl, const ClusterSpec& spec) {
  if (!spec.heterogeneous()) {
    // The legacy scalar path, byte for byte: default-class nodes of the
    // flat per-node capacity.
    cl.add_nodes(spec.nodes, cluster::Resources{util::CpuMhz{spec.cpu_per_node_mhz},
                                                util::MemMb{spec.mem_per_node_mb}});
    return;
  }
  for (const auto& pool : spec.classes) {
    const cluster::ClassId id = cl.add_class(pool.klass);
    if (pool.count > 0) cl.add_class_nodes(id, pool.count);
  }
}

}  // namespace heteroplace::scenario
