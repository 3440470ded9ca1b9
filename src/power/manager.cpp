#include "power/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/utility_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/sla.hpp"
#include "obs/trace.hpp"

namespace heteroplace::power {

namespace {
using cluster::PowerState;

/// The meter is initialized from model.active_w(0) in the member
/// initializer list, so the model must be validated before any member
/// reads it — a body-side validate() would run too late.
PowerModel validated(PowerModel model) {
  model.validate();
  return model;
}

}  // namespace

PowerManager::PowerManager(sim::Engine& engine, core::World& world, PowerModel model,
                           std::unique_ptr<ConsolidationPolicy> policy, PowerOptions options)
    : engine_(engine),
      world_(world),
      model_(validated(std::move(model))),
      policy_(std::move(policy)),
      options_(options),
      meter_(world.cluster().node_count(), model_.active_w(0), engine.now()),
      empty_since_(world.cluster().node_count(), -1.0) {
  if (!policy_) throw std::invalid_argument("PowerManager: policy must not be null");
  if (options_.check_interval.get() <= 0.0) {
    throw std::invalid_argument("PowerManager: check_interval must be positive");
  }
  if (options_.min_active_nodes < 0) {
    throw std::invalid_argument("PowerManager: min_active_nodes must be nonnegative");
  }
  if (world_.cluster().node_count() == 0) {
    throw std::invalid_argument("PowerManager: cluster has no nodes (populate it first)");
  }
}

void PowerManager::set_obs(const obs::ObsContext& ctx) {
  obs_ = ctx;
  if (obs_.metrics != nullptr) {
    parks_metric_ =
        &obs_.metrics->counter("power_parks_total", "Node park transitions begun", obs_.labels);
    wakes_metric_ =
        &obs_.metrics->counter("power_wakes_total", "Node wake transitions begun", obs_.labels);
  }
}

void PowerManager::start() {
  if (started_) throw std::logic_error("PowerManager::start: already started");
  started_ = true;
  // Perpetual evaluation loop, after the controllers (and the migration
  // manager) at each shared timestamp.
  tick_loop_ = [this] {
    tick();
    engine_.schedule_in(options_.check_interval, sim::EventPriority::kPower, options_.shard,
                        tick_loop_);
  };
  engine_.schedule_in(options_.check_interval, sim::EventPriority::kPower, options_.shard,
                      tick_loop_);
}

std::size_t PowerManager::parked_count() const {
  std::size_t n = 0;
  for (const auto& node : world_.cluster().nodes()) {
    if (node.power_state() == PowerState::kParking || node.power_state() == PowerState::kParked) {
      ++n;
    }
  }
  return n;
}

void PowerManager::tick() {
  const obs::ScopedTimer tick_timer(obs_.profiler, obs::Phase::kPowerTick);
  const util::Seconds now = engine_.now();
  auto& cl = world_.cluster();

  // Idle bookkeeping (tick granularity): a node's idle clock starts the
  // first tick that finds it active and empty, and resets the moment it
  // hosts anything — in-flight starts already hold a memory reservation,
  // so a node with work on the way never reads as idle.
  for (std::size_t i = 0; i < cl.node_count(); ++i) {
    const cluster::Node& node = cl.nodes()[i];
    if (node.placeable() && node.resident_count() == 0) {
      if (empty_since_[i] < 0.0) empty_since_[i] = now.get();
    } else {
      empty_since_[i] = -1.0;
    }
  }

  // A metering-only policy never reads the snapshot — skip the
  // O(nodes + jobs + apps) construction and the decide() call outright.
  if (!policy_->acts()) return;

  // Snapshot: the solver's view of the cluster plus the power state.
  // When a controller shares its same-timestamp skeleton, reuse it
  // instead of rebuilding the identical O(nodes + jobs + apps) snapshot.
  const core::PlacementProblem* shared =
      problem_provider_ ? problem_provider_(now) : nullptr;
  core::PlacementProblem local;
  if (shared == nullptr) local = core::build_problem_skeleton(world_);
  const core::PlacementProblem& problem = shared != nullptr ? *shared : local;
  ConsolidationInput in;
  in.problem = &problem;
  in.model = &model_;
  in.pstate = pstate_;
  in.draw_w = meter_.total_draw_w();
  in.cap_w = options_.cap_w;
  in.park_depth = options_.park_depth;
  in.min_active_nodes = options_.min_active_nodes;
  in.active_cpu_mhz = cl.placeable_capacity().cpu.get();
  double offered = 0.0;
  for (const core::SolverJob& j : problem.jobs) offered += j.max_speed.get();
  for (const auto& app : world_.apps()) offered += app.offered_load(now).get();
  in.offered_cpu_mhz = offered;
  in.nodes.reserve(cl.node_count());
  for (std::size_t i = 0; i < cl.node_count(); ++i) {
    const cluster::Node& node = cl.nodes()[i];
    NodePowerView view;
    view.id = node.id();
    view.state = node.power_state();
    view.empty = node.resident_count() == 0;
    view.idle_s = empty_since_[i] >= 0.0 ? now.get() - empty_since_[i] : 0.0;
    view.cpu_capacity_mhz = node.capacity().cpu.get();
    view.mem_capacity_mb = node.capacity().mem.get();
    view.mem_free_mb = node.mem_free().get();
    in.nodes.push_back(view);
    if (node.power_state() == PowerState::kWaking) {
      in.waking_cpu_mhz += node.capacity().cpu.get() * model_.speed_at(pstate_);
    }
  }

  const ConsolidationActions actions = policy_->decide(in, now);

  // Wakes first (they can only add capacity), then parks, re-validated
  // against live state: the policy proposed against a snapshot, and
  // eligibility is the manager's responsibility.
  for (util::NodeId id : actions.wake) {
    if (cl.node(id).power_state() == PowerState::kParked) wake_node(id);
  }
  int awake = 0;
  for (const auto& node : cl.nodes()) {
    if (node.power_state() == PowerState::kActive || node.power_state() == PowerState::kWaking) {
      ++awake;
    }
  }
  for (util::NodeId id : actions.park) {
    const cluster::Node& node = cl.node(id);
    if (node.power_state() != PowerState::kActive || node.resident_count() != 0) continue;
    if (awake <= options_.min_active_nodes) break;  // never park below the floor
    park_node(id);
    --awake;
  }

  if (actions.target_pstate >= 0) {
    const int target = std::min(actions.target_pstate, model_.deepest_pstate());
    if (target != pstate_) apply_pstate(target);
  }
}

void PowerManager::park_node(util::NodeId id) {
  world_.cluster().set_power_state(id, PowerState::kParking);
  ++stats_.parks;
  if (parks_metric_ != nullptr) parks_metric_->inc();
  if (obs_.trace != nullptr) {
    obs_.trace->instant(obs_.pid, obs::Lane::kPower, "park", engine_.now().get(),
                        {{"node", static_cast<double>(id.get())}});
  }
  // The node draws active power through the transition; the meter
  // switches to the sleep draw when the park latency elapses.
  const std::size_t idx = id.get();
  engine_.schedule_in(util::Seconds{model_.park_latency_s}, sim::EventPriority::kPower,
                      options_.shard, [this, id, idx] {
                        cluster::Cluster& cl = world_.cluster();
                        // A crash (fault injection) may have pre-empted the
                        // transition; the injector owns the node until recovery.
                        if (cl.node(id).power_state() != PowerState::kParking) return;
                        cl.set_power_state(id, PowerState::kParked);
                        meter_.set_draw(idx, model_.parked_w(options_.park_depth), engine_.now());
                        if (obs_.trace != nullptr) {
                          obs_.trace->instant(obs_.pid, obs::Lane::kPower, "parked",
                                              engine_.now().get(),
                                              {{"node", static_cast<double>(id.get())}});
                        }
                      });
}

void PowerManager::wake_node(util::NodeId id) {
  world_.cluster().set_power_state(id, PowerState::kWaking);
  ++stats_.wakes;
  if (wakes_metric_ != nullptr) wakes_metric_->inc();
  if (obs_.sla != nullptr) obs_.sla->on_wake_begin(engine_.now().get());
  if (obs_.trace != nullptr) {
    obs_.trace->instant(obs_.pid, obs::Lane::kPower, "wake", engine_.now().get(),
                        {{"node", static_cast<double>(id.get())}});
  }
  // Spin-up draws active power immediately; capacity arrives only when
  // the wake latency elapses and the node rejoins placement.
  meter_.set_draw(id.get(), model_.active_w(pstate_), engine_.now());
  engine_.schedule_in(util::Seconds{model_.wake_latency_s}, sim::EventPriority::kPower,
                      options_.shard, [this, id] {
                        cluster::Cluster& cl = world_.cluster();
                        // The wake interval ends here even when a crash
                        // mid-wake aborts the transition below — the ledger's
                        // begin/end metering must stay balanced.
                        if (obs_.sla != nullptr) obs_.sla->on_wake_end(engine_.now().get());
                        // See park_node: a crash mid-wake leaves the node to
                        // the fault injector.
                        if (cl.node(id).power_state() != PowerState::kWaking) return;
                        cl.set_power_state(id, PowerState::kActive);
                        cl.set_speed_factor(id, model_.speed_at(pstate_));
                        meter_.set_draw(id.get(), model_.active_w(pstate_), engine_.now());
                        if (obs_.trace != nullptr) {
                          obs_.trace->instant(obs_.pid, obs::Lane::kPower, "woke",
                                              engine_.now().get(),
                                              {{"node", static_cast<double>(id.get())}});
                        }
                      });
}

// Throttling changes *planning* capacity: the solver's next plan fits
// the scaled cpu and the executor resizes shares down then. Shares
// already granted keep running untouched for up to one control cycle —
// clamping them here would need the executor's completion-rescheduling
// machinery (see the per-node DVFS follow-up in ROADMAP.md) — so during
// that window metered draw (throttled) understates delivered MHz.
void PowerManager::apply_pstate(int p) {
  pstate_ = p;
  ++stats_.pstate_changes;
  const util::Seconds now = engine_.now();
  if (obs_.trace != nullptr) {
    obs_.trace->instant(obs_.pid, obs::Lane::kPower, "pstate", now.get(),
                        {{"p", static_cast<double>(p)},
                         {"speed", model_.speed_at(p)},
                         {"active_w", model_.active_w(p)}});
  }
  const double factor = model_.speed_at(p);
  const double watts = model_.active_w(p);
  auto& cl = world_.cluster();
  for (std::size_t i = 0; i < cl.node_count(); ++i) {
    const util::NodeId id{static_cast<util::NodeId::underlying_type>(i)};
    switch (cl.node(id).power_state()) {
      case PowerState::kActive:
        cl.set_speed_factor(id, factor);
        meter_.set_draw(i, watts, now);
        break;
      case PowerState::kParking:
      case PowerState::kWaking:
        // Transitioning nodes draw active power; their speed factor is
        // (re)applied when the wake completes.
        meter_.set_draw(i, watts, now);
        break;
      case PowerState::kParked:
        break;  // sleep draw is P-state-independent
      case PowerState::kFailed:
        break;  // crashed nodes draw nothing until recovery
    }
  }
}

void PowerManager::on_node_failed(util::NodeId id) {
  meter_.set_draw(id.get(), 0.0, engine_.now());
  empty_since_[id.get()] = -1.0;  // no idle credit accrues while down
}

void PowerManager::on_node_recovered(util::NodeId id) {
  world_.cluster().set_speed_factor(id, model_.speed_at(pstate_));
  meter_.set_draw(id.get(), model_.active_w(pstate_), engine_.now());
}

}  // namespace heteroplace::power
