#include "power/manager.hpp"

#include <algorithm>
#include <stdexcept>

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

JobDemandSummary summarize_job_demand(const core::World& world) {
  double largest_node_mem = 0.0;
  for (const auto& node : world.cluster().nodes()) {
    largest_node_mem = std::max(largest_node_mem, node.capacity().mem.get());
  }
  JobDemandSummary out;
  for (const workload::Job* job : world.active_jobs()) {
    out.max_speed_mhz += job->spec().max_speed.get();
    // Suspended jobs count too: their VM is unplaced and the executor's
    // resume needs a node with room, exactly like a first placement.
    const bool unplaced = (job->phase() == workload::JobPhase::kPending ||
                           job->phase() == workload::JobPhase::kSuspended) &&
                          !job->node().valid();
    const double image = job->spec().memory.get();
    if (unplaced && image <= largest_node_mem) {
      out.unplaced_image_mb = std::max(out.unplaced_image_mb, image);
    }
  }
  return out;
}

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
  const util::Seconds now = engine_.now();
  const obs::Span tick_span(obs_, obs::SpanKind::kPowerTick, now.get());
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

  // A metering-only policy never reads the input — skip the
  // O(nodes + jobs + apps) construction and the decide() call outright.
  if (!policy_->acts()) return;

  const JobDemandSummary jobs = summarize_job_demand(world_);
  ConsolidationInput in;
  in.model = &model_;
  in.pstate = pstate_;
  in.draw_w = meter_.total_draw_w();
  in.cap_w = options_.cap_w;
  in.park_depth = options_.park_depth;
  in.min_active_nodes = options_.min_active_nodes;
  in.active_cpu_mhz = cl.placeable_capacity().cpu.get();
  double offered = jobs.max_speed_mhz;
  for (const auto& app : world_.apps()) offered += app.offered_load(now).get();
  in.offered_cpu_mhz = offered;
  in.unplaced_image_mb = jobs.unplaced_image_mb;
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
  obs_.node_park(id, engine_.now().get());
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
                        obs_.node_parked(id, engine_.now().get());
                      });
}

void PowerManager::wake_node(util::NodeId id) {
  world_.cluster().set_power_state(id, PowerState::kWaking);
  ++stats_.wakes;
  obs_.node_wake(id, engine_.now().get());
  // Spin-up draws active power immediately; capacity arrives only when
  // the wake latency elapses and the node rejoins placement.
  meter_.set_draw(id.get(), model_.active_w(pstate_), engine_.now());
  engine_.schedule_in(util::Seconds{model_.wake_latency_s}, sim::EventPriority::kPower,
                      options_.shard, [this, id] {
                        cluster::Cluster& cl = world_.cluster();
                        // See park_node: a crash mid-wake leaves the node to
                        // the fault injector. The wake interval ends either
                        // way — the ledger's begin/end metering must stay
                        // balanced.
                        const bool rejoined = cl.node(id).power_state() == PowerState::kWaking;
                        if (rejoined) {
                          cl.set_power_state(id, PowerState::kActive);
                          cl.set_speed_factor(id, model_.speed_at(pstate_));
                          meter_.set_draw(id.get(), model_.active_w(pstate_), engine_.now());
                        }
                        obs_.node_woke(id, rejoined, engine_.now().get());
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
  const double factor = model_.speed_at(p);
  const double watts = model_.active_w(p);
  obs_.pstate(p, factor, watts, now.get());
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
