#pragma once

// Power-subsystem construction for the experiment runner: one
// PowerManager per domain (each domain meters and consolidates its own
// cluster, optionally under its own cap), all from one PowerSpec.

#include <memory>

#include "core/world.hpp"
#include "power/manager.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"

namespace heteroplace::scenario {

/// Throw util::ConfigError naming the offending power.* key on an
/// invalid spec (unknown policy/park state, nonpositive latencies where
/// positive is required, out-of-range ladder depth, ...). The config
/// loader and the runner call this.
void validate_power_spec(const PowerSpec& spec);

/// Build the node power table a spec describes.
[[nodiscard]] power::PowerModel power_model_from_spec(const PowerSpec& spec);

/// Build a manager for `world` (cluster must already be populated).
/// `cycle_s` supplies the default check interval when the spec leaves it
/// at 0; `cap_w_override` >= 0 replaces the spec's cap (per-domain caps
/// in federated runs), < 0 keeps it. `shard` tags the manager's events
/// for parallel batching (federated runs pass the domain index).
[[nodiscard]] std::unique_ptr<power::PowerManager> make_power_manager(
    sim::Engine& engine, core::World& world, const PowerSpec& spec, double cycle_s,
    double cap_w_override = -1.0, sim::ShardId shard = sim::kNoShard);

}  // namespace heteroplace::scenario
