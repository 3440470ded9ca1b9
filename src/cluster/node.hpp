#pragma once

// A physical machine: CPU capacity (sum of its processors, in MHz) and
// memory capacity (MB). Tracks which VMs reside on it and their resource
// reservations; rejects over-commitment.
//
// Power: every node carries a sleep state (the S-state machine driven by
// power::PowerManager) and a DVFS speed factor (the current P-state's
// speed scaling). Only kActive nodes are placeable; a parked or
// transitioning node contributes zero capacity to placement. Both fields
// default to full-power values, so a run that never touches the power
// subsystem behaves exactly as before.

#include <map>
#include <vector>

#include "cluster/machine_class.hpp"
#include "cluster/resources.hpp"
#include "util/ids.hpp"

namespace heteroplace::cluster {

/// Node sleep states. kParking/kWaking are the modeled transition
/// windows: the node is off-limits to placement but still draws power.
enum class PowerState {
  kActive,   // powered, placeable
  kParking,  // entering a sleep state (park latency running)
  kParked,   // asleep (standby or off); zero capacity
  kWaking,   // powering back up (wake latency running); not yet placeable
  kFailed,   // crashed (fault injection); zero capacity, zero draw
};

[[nodiscard]] const char* to_string(PowerState s);

class Node {
 public:
  Node(util::NodeId id, Resources capacity, ClassId klass = 0)
      : id_(id), capacity_(capacity), klass_(klass) {}

  [[nodiscard]] util::NodeId id() const { return id_; }
  [[nodiscard]] Resources capacity() const { return capacity_; }

  /// Machine class this node belongs to (0 = the implicit default); the
  /// class table lives in the owning Cluster's registry.
  [[nodiscard]] ClassId klass() const { return klass_; }
  [[nodiscard]] Resources used() const { return used_; }
  [[nodiscard]] Resources available() const { return capacity_ - used_; }
  [[nodiscard]] util::CpuMhz cpu_free() const { return available().cpu; }
  [[nodiscard]] util::MemMb mem_free() const { return available().mem; }

  /// Could `r` be admitted right now? A node that is not active never
  /// admits anything, whatever its free capacity.
  [[nodiscard]] bool can_host(Resources r) const {
    return placeable() && r.fits_in(available());
  }

  // --- power ---------------------------------------------------------------

  [[nodiscard]] PowerState power_state() const { return power_state_; }

  /// Drive the sleep state machine. Transition legality is the
  /// PowerManager's business; the node only enforces the physical
  /// invariant that a machine hosting VMs cannot leave kActive
  /// (throws std::logic_error).
  void set_power_state(PowerState s);

  [[nodiscard]] bool placeable() const { return power_state_ == PowerState::kActive; }

  /// Current P-state speed scaling in (0, 1]; 1 = full speed.
  [[nodiscard]] double speed_factor() const { return speed_factor_; }

  /// Set the DVFS speed factor; throws std::invalid_argument outside (0, 1].
  void set_speed_factor(double f);

  /// CPU the placement layer may plan with: the capacity scaled by the
  /// current P-state while active, zero otherwise. At full speed this is
  /// bit-identical to capacity().cpu (power-disabled runs see no change).
  [[nodiscard]] util::CpuMhz placeable_cpu() const {
    if (!placeable()) return util::CpuMhz{0.0};
    return speed_factor_ == 1.0 ? capacity_.cpu : capacity_.cpu * speed_factor_;
  }

  /// Admit a VM with reservation `r`. Returns false (no change) if it
  /// does not fit or the VM is already resident.
  [[nodiscard]] bool add_vm(util::VmId vm, Resources r);

  /// Remove a resident VM, releasing its reservation. Returns false if
  /// the VM is not resident.
  bool remove_vm(util::VmId vm);

  /// Change a resident VM's CPU share; fails (false) if the node's CPU
  /// would be over-committed. Memory reservations never change in place.
  [[nodiscard]] bool set_vm_cpu(util::VmId vm, util::CpuMhz cpu);

  [[nodiscard]] bool hosts(util::VmId vm) const { return residents_.count(vm) > 0; }
  [[nodiscard]] const std::map<util::VmId, Resources>& residents() const { return residents_; }
  [[nodiscard]] std::size_t resident_count() const { return residents_.size(); }

 private:
  util::NodeId id_;
  Resources capacity_;
  ClassId klass_{0};
  Resources used_{};
  std::map<util::VmId, Resources> residents_;  // ordered for determinism
  PowerState power_state_{PowerState::kActive};
  double speed_factor_{1.0};
};

}  // namespace heteroplace::cluster
