#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace heteroplace::cluster {

util::NodeId Cluster::add_node(Resources capacity, ClassId klass) {
  (void)classes_.at(klass);  // validate the id against the registry
  const util::NodeId id{static_cast<util::NodeId::underlying_type>(nodes_.size())};
  nodes_.emplace_back(id, capacity, klass);
  total_capacity_ += capacity;
  capacity_changed();
  return id;
}

void Cluster::add_nodes(int count, Resources per_node, ClassId klass) {
  for (int i = 0; i < count; ++i) add_node(per_node, klass);
}

void Cluster::add_class_nodes(ClassId klass, int count) {
  const MachineClass& c = classes_.at(klass);
  if (c.cores <= 0 || c.core_mhz <= 0.0 || c.mem_mb <= 0.0) {
    throw std::invalid_argument("Cluster::add_class_nodes: class '" + c.name +
                                "' needs cores, core_mhz and mem_mb to instantiate nodes");
  }
  add_nodes(count, c.capacity(), klass);
}

void Cluster::refresh_placeable() const {
  if (!placeable_dirty_) return;
  Resources total{};
  placeable_by_class_.assign(classes_.size(), Resources{});
  for (const auto& n : nodes_) {
    if (!n.placeable()) continue;
    const Resources r{n.placeable_cpu(), n.capacity().mem};
    total += r;
    placeable_by_class_[static_cast<std::size_t>(n.klass())] += r;
  }
  placeable_ = total;
  placeable_dirty_ = false;
}

const std::vector<Resources>& Cluster::placeable_capacity_by_class() const {
  refresh_placeable();
  return placeable_by_class_;
}

Resources Cluster::placeable_capacity() const {
  refresh_placeable();
  return placeable_;
}

Node& Cluster::node_mut(util::NodeId id) {
  if (!id.valid() || id.get() >= nodes_.size()) {
    throw std::out_of_range("Cluster::node: bad node id");
  }
  return nodes_[id.get()];
}

const Node& Cluster::node(util::NodeId id) const {
  return const_cast<Cluster*>(this)->node_mut(id);
}

void Cluster::set_power_state(util::NodeId id, PowerState s) {
  node_mut(id).set_power_state(s);
  capacity_changed();
}

void Cluster::set_speed_factor(util::NodeId id, double f) {
  node_mut(id).set_speed_factor(f);
  capacity_changed();
}

util::VmId Cluster::create_job_vm(util::JobId job, util::MemMb memory) {
  const util::VmId id{next_vm_++};
  Vm vm;
  vm.id = id;
  vm.kind = VmKind::kJobContainer;
  vm.memory = memory;
  vm.job = job;
  vms_.emplace(id, vm);
  vm_order_.push_back(id);
  return id;
}

util::VmId Cluster::create_web_vm(util::AppId app, util::MemMb memory) {
  const util::VmId id{next_vm_++};
  Vm vm;
  vm.id = id;
  vm.kind = VmKind::kWebInstance;
  vm.memory = memory;
  vm.app = app;
  vms_.emplace(id, vm);
  vm_order_.push_back(id);
  live_web_.push_back(id);
  return id;
}

const Vm& Cluster::vm(util::VmId id) const {
  auto it = vms_.find(id);
  if (it == vms_.end()) throw std::out_of_range("Cluster::vm: unknown vm id");
  return it->second;
}

Vm& Cluster::vm_mut(util::VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) throw std::out_of_range("Cluster::vm: unknown vm id");
  return it->second;
}

bool Cluster::place_vm(util::VmId id, util::NodeId node_id) {
  Vm& v = vm_mut(id);
  if (v.placed()) return false;
  Node& n = node_mut(node_id);
  if (!n.add_vm(id, Resources{util::CpuMhz{0.0}, v.memory})) return false;
  v.node = node_id;
  v.cpu_share = util::CpuMhz{0.0};
  return true;
}

void Cluster::unplace_vm(util::VmId id) {
  Vm& v = vm_mut(id);
  if (!v.placed()) return;
  node_mut(v.node).remove_vm(id);
  v.node = util::NodeId{};
  v.cpu_share = util::CpuMhz{0.0};
}

void Cluster::set_vm_state(util::VmId id, VmState state) {
  Vm& v = vm_mut(id);
  if (!vm_transition_allowed(v.state, state)) {
    std::ostringstream os;
    os << "illegal VM transition " << to_string(v.state) << " -> " << to_string(state)
       << " for vm " << id;
    throw std::logic_error(os.str());
  }
  v.state = state;
  if (state == VmState::kStopped && v.kind == VmKind::kWebInstance) {
    // Ids ascend with creation, so the index is sorted: binary search.
    auto it = std::lower_bound(live_web_.begin(), live_web_.end(), id);
    if (it != live_web_.end() && *it == id) live_web_.erase(it);
  }
}

bool Cluster::set_cpu_share(util::VmId id, util::CpuMhz cpu) {
  Vm& v = vm_mut(id);
  if (!v.placed()) return false;
  if (cpu.get() < 0.0) return false;
  if (!node_mut(v.node).set_vm_cpu(id, cpu)) return false;
  v.cpu_share = cpu;
  return true;
}

util::CpuMhz Cluster::allocated_cpu(VmKind kind) const {
  util::CpuMhz total{0.0};
  for (util::VmId id : vm_order_) {
    const Vm& v = vms_.at(id);
    if (v.kind == kind) total += v.cpu_share;
  }
  return total;
}

std::vector<util::VmId> Cluster::vms_in_state(VmKind kind, VmState state) const {
  std::vector<util::VmId> out;
  for (util::VmId id : vm_order_) {
    const Vm& v = vms_.at(id);
    if (v.kind == kind && v.state == state) out.push_back(id);
  }
  return out;
}

int Cluster::free_memory_slots(util::NodeId node_id, util::MemMb memory) const {
  if (memory.get() <= 0.0) return 0;
  const double free = node(node_id).mem_free().get();
  return static_cast<int>(std::floor(free / memory.get() + 1e-9));
}

std::vector<std::string> Cluster::validate() const {
  std::vector<std::string> issues;
  auto complain = [&](const std::string& msg) { issues.push_back(msg); };

  for (const auto& n : nodes_) {
    if (!n.placeable() && n.resident_count() > 0) {
      complain("non-active node still hosts VMs");
    }
    Resources sum{};
    for (const auto& [vm_id, r] : n.residents()) {
      sum += r;
      auto it = vms_.find(vm_id);
      if (it == vms_.end()) {
        complain("node hosts unknown vm");
        continue;
      }
      const Vm& v = it->second;
      if (v.node != n.id()) complain("vm back-pointer disagrees with node resident list");
      if (!vm_state_holds_memory(v.state) && r.mem.get() > 0.0) {
        complain("vm in state " + std::string(to_string(v.state)) + " still reserves memory");
      }
      if (v.state != VmState::kRunning && r.cpu.get() > 1e-9) {
        complain("non-running vm holds a CPU share");
      }
      if (std::fabs(v.cpu_share.get() - r.cpu.get()) > 1e-6) {
        complain("vm cpu_share disagrees with node reservation");
      }
    }
    if (sum.cpu.get() > n.capacity().cpu.get() + 1e-6) complain("node CPU over-committed");
    if (sum.mem.get() > n.capacity().mem.get() + 1e-9) complain("node memory over-committed");
    if (std::fabs(sum.cpu.get() - n.used().cpu.get()) > 1e-6 ||
        std::fabs(sum.mem.get() - n.used().mem.get()) > 1e-6) {
      complain("node aggregate usage out of sync with residents");
    }
  }

  for (const auto& [id, v] : vms_) {
    if (v.placed()) {
      if (v.node.get() >= nodes_.size()) {
        complain("vm placed on nonexistent node");
        continue;
      }
      if (!nodes_[v.node.get()].hosts(id)) complain("placed vm missing from node resident list");
      if (!vm_state_holds_memory(v.state)) {
        complain("vm placed while in non-resident state " + std::string(to_string(v.state)));
      }
    } else {
      if (vm_state_holds_memory(v.state)) {
        complain("vm holds memory-bearing state but is not placed");
      }
      if (v.cpu_share.get() > 0.0) complain("unplaced vm has a CPU share");
    }
  }
  return issues;
}

}  // namespace heteroplace::cluster
