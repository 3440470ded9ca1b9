#pragma once

// Pluggable consolidation policies: which nodes to park or wake, and how
// hard to throttle.
//
// Each control-ish cycle the PowerManager hands its policy a two-number
// summary of the live jobs (their offered CPU and the largest image still
// waiting for a node) plus the per-node power view. The policy returns
// park/wake proposals and a DVFS target; the manager validates and
// executes them. Policies are deterministic — same input, same actions —
// so power-managed runs replay exactly.
//
//   none       — never parks, never throttles (the metering-only policy;
//                a power-enabled run under it is bit-identical to a
//                power-disabled run, pinned in tests/power_test.cpp).
//   idle-park  — parks nodes that have been empty past an idle timeout
//                whenever the remaining active capacity still covers the
//                offered load with headroom; wakes parked nodes when it
//                no longer does. Under a power cap it walks the P-state
//                ladder down until the projected draw fits.

#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "power/power_model.hpp"
#include "util/units.hpp"

namespace heteroplace::power {

/// Per-node power signals the policy decides on.
struct NodePowerView {
  util::NodeId id{};
  cluster::PowerState state{cluster::PowerState::kActive};
  bool empty{true};
  /// Seconds continuously empty (tick granularity; 0 while hosting or
  /// not active).
  double idle_s{0.0};
  double cpu_capacity_mhz{0.0};  // raw, unscaled
  double mem_capacity_mb{0.0};
  /// Free memory right now (== capacity on an empty node).
  double mem_free_mb{0.0};
};

struct ConsolidationInput {
  const PowerModel* model{nullptr};
  std::vector<NodePowerView> nodes;
  /// CPU the current workload could consume: active-job speed caps plus
  /// the transactional offered load λ(t)·d.
  double offered_cpu_mhz{0.0};
  /// Largest memory image among pending or suspended jobs that hold no
  /// node, ignoring images larger than every node (no wake can help
  /// those); 0 = none.
  double unplaced_image_mb{0.0};
  /// Placeable (active, scaled) capacity right now.
  double active_cpu_mhz{0.0};
  /// Capacity mid-wake: arriving within one wake latency.
  double waking_cpu_mhz{0.0};
  int pstate{0};          // current ladder position
  double draw_w{0.0};     // current total draw
  double cap_w{0.0};      // per-domain power cap; <= 0 = uncapped
  ParkDepth park_depth{ParkDepth::kStandby};
  int min_active_nodes{1};
};

struct ConsolidationActions {
  std::vector<util::NodeId> park;
  std::vector<util::NodeId> wake;
  /// Ladder position every active node should run at; -1 = keep current.
  int target_pstate{-1};
};

class ConsolidationPolicy {
 public:
  virtual ~ConsolidationPolicy() = default;

  [[nodiscard]] virtual ConsolidationActions decide(const ConsolidationInput& input,
                                                    util::Seconds now) = 0;

  /// False when decide() never proposes anything — the manager then
  /// skips building the (O(nodes + jobs)) input entirely, so a
  /// metering-only run pays nothing per tick beyond the idle clocks.
  [[nodiscard]] virtual bool acts() const { return true; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Meter-only: no parking, no throttling.
class NoConsolidationPolicy final : public ConsolidationPolicy {
 public:
  [[nodiscard]] ConsolidationActions decide(const ConsolidationInput& input,
                                            util::Seconds now) override;
  [[nodiscard]] bool acts() const override { return false; }
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// Tuning knobs for the idle-park policy.
struct IdleParkConfig {
  /// Park a node only after it has been empty this long.
  double idle_timeout_s{1800.0};
  /// Keep active capacity at or above offered load × this factor; wake
  /// when active + waking capacity falls below it.
  double headroom_factor{1.25};
};

class IdleParkPolicy final : public ConsolidationPolicy {
 public:
  explicit IdleParkPolicy(IdleParkConfig config = {}) : config_(config) {}
  [[nodiscard]] ConsolidationActions decide(const ConsolidationInput& input,
                                            util::Seconds now) override;
  [[nodiscard]] std::string name() const override { return "idle-park"; }

 private:
  IdleParkConfig config_;
};

/// Factory by config name: "none", "idle-park". Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<ConsolidationPolicy> make_consolidation_policy(
    const std::string& name, IdleParkConfig config = {});

}  // namespace heteroplace::power
