#include "cluster/node.hpp"

#include <stdexcept>

namespace heteroplace::cluster {

const char* to_string(PowerState s) {
  switch (s) {
    case PowerState::kActive:
      return "active";
    case PowerState::kParking:
      return "parking";
    case PowerState::kParked:
      return "parked";
    case PowerState::kWaking:
      return "waking";
    case PowerState::kFailed:
      return "failed";
  }
  return "?";
}

void Node::set_power_state(PowerState s) {
  if (s != PowerState::kActive && !residents_.empty()) {
    throw std::logic_error("Node::set_power_state: node hosts VMs and cannot leave active");
  }
  power_state_ = s;
}

void Node::set_speed_factor(double f) {
  if (!(f > 0.0) || f > 1.0) {
    throw std::invalid_argument("Node::set_speed_factor: factor must be in (0, 1]");
  }
  speed_factor_ = f;
}

bool Node::add_vm(util::VmId vm, Resources r) {
  if (!placeable()) return false;  // parked / transitioning nodes admit nothing
  if (residents_.count(vm) > 0) return false;
  if (!r.fits_in(available())) return false;
  residents_.emplace(vm, r);
  used_ += r;
  return true;
}

bool Node::remove_vm(util::VmId vm) {
  auto it = residents_.find(vm);
  if (it == residents_.end()) return false;
  used_ -= it->second;
  residents_.erase(it);
  return true;
}

bool Node::set_vm_cpu(util::VmId vm, util::CpuMhz cpu) {
  auto it = residents_.find(vm);
  if (it == residents_.end()) return false;
  const util::CpuMhz others = used_.cpu - it->second.cpu;
  if (others.get() + cpu.get() > capacity_.cpu.get() + 1e-6) return false;
  used_.cpu = others + cpu;
  it->second.cpu = cpu;
  return true;
}

}  // namespace heteroplace::cluster
