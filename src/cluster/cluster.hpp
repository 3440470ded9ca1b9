#pragma once

// Cluster state: the set of nodes and VMs, with placement bookkeeping.
//
// The Cluster is the "plant" that the placement controller manipulates.
// It enforces the physical invariants (no CPU or memory over-commitment,
// legal VM lifecycle transitions); policy lives elsewhere.
//
// Invariant: nodes are mutated only through Cluster. Callers get const
// Node& only; power-state and DVFS changes go through set_power_state /
// set_speed_factor, VM residency through place_vm / unplace_vm /
// set_cpu_share. That is what keeps the cached capacity aggregates
// (total_capacity, placeable_capacity, placeable_capacity_by_class)
// current by construction, and what lets every change bump the change
// counter: the federation's routing table refreshes a domain only when
// its counter moved, and then reads these aggregates in O(1) instead of
// rescanning every node.
//
// Cost model for VMs: every VM ever created stays in vms_ (stopped ones
// included), so whole-registry scans grow with the run. The per-cycle
// readers (executor, problem build, sampler) use web_instances()
// instead: the web-instance VMs that are not stopped, kept current by
// create_web_vm and set_vm_state, so they cost O(live web instances).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/machine_class.hpp"
#include "cluster/node.hpp"
#include "cluster/vm.hpp"
#include "util/ids.hpp"

namespace heteroplace::cluster {

class Cluster {
 public:
  Cluster() = default;

  // --- topology -----------------------------------------------------------

  util::NodeId add_node(Resources capacity, ClassId klass = 0);

  /// Homogeneous convenience: `count` nodes of `per_node` capacity.
  void add_nodes(int count, Resources per_node, ClassId klass = 0);

  // --- machine classes ------------------------------------------------------

  /// Register a machine class; nodes reference classes by the returned
  /// id. The registry always holds the implicit default class at id 0.
  ClassId add_class(MachineClass c) {
    capacity_changed();  // the per-class vector grows
    return classes_.add(std::move(c));
  }

  /// Add `count` nodes of class `klass`, capacity taken from the class
  /// definition (delivered MHz × memory). Throws on a bad id or a class
  /// without cores/core_mhz/mem_mb.
  void add_class_nodes(ClassId klass, int count);

  [[nodiscard]] const MachineClassRegistry& classes() const { return classes_; }

  /// Placeable capacity aggregated per class id (vector indexed by
  /// ClassId, sized classes().size()): active nodes only, CPU scaled by
  /// each node's P-state — the per-class analogue of placeable_capacity.
  /// Cached like placeable_capacity(); the reference stays valid until
  /// the next node or class mutation.
  [[nodiscard]] const std::vector<Resources>& placeable_capacity_by_class() const;

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const Node& node(util::NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  // --- node power state (the only node mutators besides VM placement) -------

  /// Drive a node's sleep state machine (see Node::set_power_state).
  void set_power_state(util::NodeId id, PowerState s);

  /// Set a node's DVFS speed factor (see Node::set_speed_factor).
  void set_speed_factor(util::NodeId id, double f);

  /// Raw capacity of every node, parked or not. O(1): a running sum kept
  /// by add_node, folded in node order like a fresh loop would be.
  [[nodiscard]] Resources total_capacity() const { return total_capacity_; }

  /// Capacity placement may use right now: active nodes only, CPU scaled
  /// by each node's P-state. With every node active at full speed this is
  /// bit-identical to total_capacity() (the power-disabled invariant).
  /// O(1) between node mutations; the first read after a power-state or
  /// speed change re-folds every node in order, so the value is
  /// bit-identical to a fresh sum.
  [[nodiscard]] Resources placeable_capacity() const;

  // --- VM lifecycle --------------------------------------------------------

  /// Define a job-container VM (state kPending, not placed).
  util::VmId create_job_vm(util::JobId job, util::MemMb memory);

  /// Define a web-instance VM for a transactional app.
  util::VmId create_web_vm(util::AppId app, util::MemMb memory);

  [[nodiscard]] const Vm& vm(util::VmId id) const;
  [[nodiscard]] bool vm_exists(util::VmId id) const { return vms_.count(id) > 0; }

  /// Web-instance VMs not (yet) stopped, in creation order: the
  /// subsequence of all VMs that a filter on kind == kWebInstance and
  /// state != kStopped would yield, without visiting the others.
  [[nodiscard]] const std::vector<util::VmId>& web_instances() const { return live_web_; }

  /// Reserve the VM's memory on `node` (CPU share starts at 0) and record
  /// the VM as hosted there. Fails if the VM is already placed or memory
  /// does not fit. Does NOT change the VM state.
  [[nodiscard]] bool place_vm(util::VmId id, util::NodeId node);

  /// Release the VM's reservation and clear its node. CPU share drops to 0.
  void unplace_vm(util::VmId id);

  /// Lifecycle transition; throws std::logic_error on an illegal edge.
  void set_vm_state(util::VmId id, VmState state);

  /// Grant a CPU share to a placed VM; fails on node CPU over-commitment.
  [[nodiscard]] bool set_cpu_share(util::VmId id, util::CpuMhz cpu);

  // --- aggregate queries ---------------------------------------------------

  /// Total CPU currently granted to VMs of the given kind, summed in VM
  /// creation order.
  [[nodiscard]] util::CpuMhz allocated_cpu(VmKind kind) const;

  /// VMs of a kind in a given state (deterministic id order).
  [[nodiscard]] std::vector<util::VmId> vms_in_state(VmKind kind, VmState state) const;

  /// How many additional VMs with `memory` each could be packed on `node`
  /// given its current free memory.
  [[nodiscard]] int free_memory_slots(util::NodeId node, util::MemMb memory) const;

  /// Invariant check: returns human-readable violations (empty == healthy).
  /// Checked invariants: per-node resource sums within capacity; node
  /// resident sets consistent with VM back-pointers; memory reservations
  /// consistent with VM states; CPU shares only on running VMs.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Count every change to the capacity aggregates (node or class added,
  /// power state or speed changed) in `*counter`; nullptr (the default)
  /// counts nothing. The federation's routing table reads the counter to
  /// refresh only the domains whose status inputs changed.
  void set_change_counter(std::uint64_t* counter) { change_counter_ = counter; }

 private:
  [[nodiscard]] Vm& vm_mut(util::VmId id);
  [[nodiscard]] Node& node_mut(util::NodeId id);
  /// Re-fold the placeable aggregates if a node or class changed since
  /// the last read.
  void refresh_placeable() const;
  /// Invalidate the placeable aggregates and bump the change counter.
  void capacity_changed() {
    placeable_dirty_ = true;
    if (change_counter_ != nullptr) ++*change_counter_;
  }

  std::vector<Node> nodes_;
  Resources total_capacity_{};
  // Placeable aggregates, rebuilt lazily after a mutation. A cluster
  // belongs to one domain, and the engine never runs two events of one
  // domain concurrently, so the lazy rebuild needs no lock.
  mutable bool placeable_dirty_{true};
  mutable Resources placeable_{};
  mutable std::vector<Resources> placeable_by_class_;
  std::uint64_t* change_counter_{nullptr};
  MachineClassRegistry classes_;
  std::unordered_map<util::VmId, Vm> vms_;
  std::vector<util::VmId> vm_order_;  // insertion order for deterministic iteration
  std::vector<util::VmId> live_web_;  // non-stopped web instances; ids ascend with creation
  util::VmId::underlying_type next_vm_{0};
};

}  // namespace heteroplace::cluster
