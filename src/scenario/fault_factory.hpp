#pragma once

// Fault-subsystem construction for the experiment runner, plus the
// validator the config loader and the runner share, so a bad spec is
// rejected with the same fault.* key names wherever it enters.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// Throw util::ConfigError naming the offending fault.* key on an invalid
/// spec: negative rates or durations, half-configured MTTF/MTTR pairs,
/// unknown event kinds, out-of-range targets, severities outside (0, 1],
/// link/domain faults in a run that cannot express them (link faults need
/// migration; link and domain faults need at least two domains), or
/// overlapping explicit windows on the same target. `nodes_per_domain`
/// describes the topology the events are checked against, one entry per
/// domain. The config loader and the runner call this.
void validate_fault_spec(const FaultSpec& spec, const std::vector<std::size_t>& nodes_per_domain,
                         bool migration_enabled, double horizon_s);

/// Build the schedule a (validated) spec describes: explicit events plus
/// the stochastic processes, seeded by spec.seed (or `scenario_seed` when
/// spec.seed is 0) on streams independent of every workload stream.
[[nodiscard]] faults::FaultSchedule build_fault_schedule(
    const FaultSpec& spec, std::uint64_t scenario_seed, double horizon_s,
    const std::vector<std::size_t>& nodes_per_domain);

}  // namespace heteroplace::scenario
