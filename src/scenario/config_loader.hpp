#pragma once

// Config-driven scenario construction: build a full Scenario from
// key=value configuration (file or command line), so experiments can be
// defined and swept without recompiling, and render a Scenario back into
// that text. Load and dump walk one key table (config_loader.cpp), so
// every key a config can set is also written; scenario_config_keys()
// lists it and README.md documents it. Defaults are the paper's
// Section-3 experiment. Unknown keys raise util::ConfigError so typos
// fail loudly.

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/config.hpp"

namespace heteroplace::scenario {

/// Build a scenario from configuration; unspecified keys fall back to the
/// paper's Section-3 values. `domains` is always filled (default: one
/// domain holding the whole cluster). Throws util::ConfigError on
/// malformed values, invalid combinations or unknown keys.
[[nodiscard]] Scenario scenario_from_config(const util::Config& cfg);

/// Render a scenario as config text that scenario_from_config reloads to
/// a scenario that runs to the same result digest. Throws
/// util::ConfigError naming the field for state no key can express: a
/// time-varying demand trace or scheduled weight events.
[[nodiscard]] std::string scenario_to_config(const Scenario& scenario);

/// Every key of the table, with `<i>` / `<j>` standing for indices and
/// `<name>` for class or SLO names (e.g. `app.<i>.lambda`).
[[nodiscard]] std::vector<std::string> scenario_config_keys();

}  // namespace heteroplace::scenario
