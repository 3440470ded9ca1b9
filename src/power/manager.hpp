#pragma once

// PowerManager: drives every node's sleep state machine on engine events
// and meters the cluster's energy.
//
// Per-node lifecycle (the S-state machine):
//
//   active ──park (policy; node empty past the idle timeout)──▶ parking
//   parking ──park latency elapsed──▶ parked (standby/off draw; the node
//       contributes zero capacity and the placement layers skip it)
//   parked ──wake (policy; offered load outruns awake capacity)──▶ waking
//       (active draw — the spin-up cost — but not yet placeable)
//   waking ──wake latency elapsed──▶ active (rejoins placement at the
//       current P-state speed)
//
// All scheduling runs at EventPriority::kPower: at a shared timestamp the
// manager observes finished controller cycles and migrations, and
// samplers observe the manager's effects. The manager never parks a node
// hosting VMs (Node enforces this physically) and never parks below the
// configured active floor; everything else is the pluggable
// ConsolidationPolicy's call. Each tick decides from live state alone:
// the node power views plus a two-number job summary
// (summarize_job_demand) recomputed from the World, so a migration that
// lands between the controller and the tick at one timestamp is seen.
//
// Energy: draw changes only on the transitions above (plus P-state
// moves), so the EnergyMeter integrates exactly — a power-enabled run
// whose policy never acts ("none") costs zero behavioral difference and
// its energy is node_count × active_w × elapsed, closed-form.

#include <functional>
#include <memory>
#include <vector>

#include "core/world.hpp"
#include "obs/context.hpp"
#include "power/energy_meter.hpp"
#include "power/policy.hpp"
#include "power/power_model.hpp"
#include "sim/engine.hpp"

namespace heteroplace::power {

/// What a consolidation policy needs from the live jobs.
struct JobDemandSummary {
  /// Σ speed caps of the active jobs, summed in World::active_jobs() order.
  double max_speed_mhz{0.0};
  /// See ConsolidationInput::unplaced_image_mb.
  double unplaced_image_mb{0.0};
};

/// Summarize the live jobs in one pass over world.active_jobs(). The
/// largest-node filter on unplaced images reads every node's capacity,
/// whatever its power state.
[[nodiscard]] JobDemandSummary summarize_job_demand(const core::World& world);

struct PowerOptions {
  /// Policy evaluation period (runners default it to the control cycle).
  util::Seconds check_interval{600.0};
  ParkDepth park_depth{ParkDepth::kStandby};
  /// Cap on this world's total draw (W); <= 0 = uncapped. The built-in
  /// policy enforces it by P-state throttling.
  double cap_w{0.0};
  /// Never park below this many awake (active or waking) nodes.
  int min_active_nodes{1};
  /// Parallel-batch shard for this manager's events (ticks, park/wake
  /// completions). Federated runners set it to the domain index — all
  /// effects stay inside this manager's World. kNoShard = serial.
  sim::ShardId shard{sim::kNoShard};
};

/// Cumulative counters, sampled into the power_* metric series.
struct PowerStats {
  long parks{0};
  long wakes{0};
  long pstate_changes{0};
};

class PowerManager {
 public:
  /// The cluster must be fully populated (all nodes added) first: the
  /// meter is sized at construction and every node starts active at P0.
  PowerManager(sim::Engine& engine, core::World& world, PowerModel model,
               std::unique_ptr<ConsolidationPolicy> policy, PowerOptions options = {});

  PowerManager(const PowerManager&) = delete;
  PowerManager& operator=(const PowerManager&) = delete;

  /// Schedule the periodic policy evaluation. Call once, after the
  /// controllers are started.
  void start();

  /// One policy evaluation right now (tests / manual stepping).
  void tick();

  /// Attach observability: park/wake/P-state instants on this domain's
  /// power lane, tick timing, and park/wake counters.
  void set_obs(const obs::ObsContext& ctx);

  /// Fault-injection hooks (see faults::FaultInjector). A crashed node
  /// draws zero power and sits outside the sleep-state machine until its
  /// recovery restores active draw at the current P-state.
  void on_node_failed(util::NodeId id);
  void on_node_recovered(util::NodeId id);

  [[nodiscard]] const EnergyMeter& meter() const { return meter_; }
  /// Instantaneous cluster draw (W).
  [[nodiscard]] double current_draw_w() const { return meter_.total_draw_w(); }
  /// Energy consumed through `now` (Wh).
  [[nodiscard]] double energy_wh(util::Seconds now) const { return meter_.total_energy_wh(now); }

  [[nodiscard]] const PowerStats& stats() const { return stats_; }
  [[nodiscard]] const PowerModel& model() const { return model_; }
  [[nodiscard]] const ConsolidationPolicy& policy() const { return *policy_; }
  /// Current P-state ladder position (0 = full speed).
  [[nodiscard]] int pstate() const { return pstate_; }
  /// Nodes currently out of the placement pool — parking *or* parked.
  /// A parking node still draws active power until its latency elapses,
  /// so this intentionally leads the draw drop in the power_w series.
  [[nodiscard]] std::size_t parked_count() const;

 private:
  void park_node(util::NodeId id);
  void wake_node(util::NodeId id);
  void apply_pstate(int p);

  sim::Engine& engine_;
  core::World& world_;
  PowerModel model_;
  std::unique_ptr<ConsolidationPolicy> policy_;
  PowerOptions options_;
  EnergyMeter meter_;
  PowerStats stats_;
  obs::ObsContext obs_;
  obs::Counter* parks_metric_{nullptr};
  obs::Counter* wakes_metric_{nullptr};
  int pstate_{0};
  /// Per-node time the node was first seen empty (tick granularity);
  /// negative while hosting or not active.
  std::vector<double> empty_since_;
  std::function<void()> tick_loop_;
  bool started_{false};
};

}  // namespace heteroplace::power
