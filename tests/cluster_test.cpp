// Tests for the cluster substrate: nodes, VMs, placement bookkeeping.

#include "cluster/cluster.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using cluster::Cluster;
using cluster::Resources;
using cluster::VmKind;
using cluster::VmState;

namespace {
Resources res(double cpu, double mem) { return Resources{util::CpuMhz{cpu}, util::MemMb{mem}}; }
}  // namespace

// --- Resources ----------------------------------------------------------------

TEST(Resources, ArithmeticAndFits) {
  const Resources a = res(1000, 512);
  const Resources b = res(500, 256);
  EXPECT_EQ(a + b, res(1500, 768));
  EXPECT_EQ(a - b, res(500, 256));
  EXPECT_TRUE(b.fits_in(a));
  EXPECT_FALSE(a.fits_in(b));
  EXPECT_TRUE(a.fits_in(a));  // boundary
}

TEST(Resources, CpuEpsilonAbsorbsFloatNoise) {
  const Resources a = res(1000.0000001, 100);
  EXPECT_TRUE(a.fits_in(res(1000, 100)));
}

// --- Node -----------------------------------------------------------------------

TEST(Node, AdmitsAndReleasesVms) {
  cluster::Node n(util::NodeId{0}, res(12000, 4096));
  EXPECT_TRUE(n.add_vm(util::VmId{1}, res(0, 1300)));
  EXPECT_TRUE(n.add_vm(util::VmId{2}, res(0, 1300)));
  EXPECT_TRUE(n.add_vm(util::VmId{3}, res(0, 1300)));
  // Only 3 × 1300 MB fit in 4096 MB — the paper's memory constraint.
  EXPECT_FALSE(n.add_vm(util::VmId{4}, res(0, 1300)));
  EXPECT_EQ(n.resident_count(), 3u);
  EXPECT_TRUE(n.remove_vm(util::VmId{2}));
  EXPECT_TRUE(n.add_vm(util::VmId{4}, res(0, 1300)));
}

TEST(Node, RejectsDuplicateVm) {
  cluster::Node n(util::NodeId{0}, res(12000, 4096));
  EXPECT_TRUE(n.add_vm(util::VmId{1}, res(0, 100)));
  EXPECT_FALSE(n.add_vm(util::VmId{1}, res(0, 100)));
}

TEST(Node, RemoveUnknownVmFails) {
  cluster::Node n(util::NodeId{0}, res(12000, 4096));
  EXPECT_FALSE(n.remove_vm(util::VmId{9}));
}

TEST(Node, CpuShareAccounting) {
  cluster::Node n(util::NodeId{0}, res(12000, 4096));
  ASSERT_TRUE(n.add_vm(util::VmId{1}, res(0, 1000)));
  ASSERT_TRUE(n.add_vm(util::VmId{2}, res(0, 1000)));
  EXPECT_TRUE(n.set_vm_cpu(util::VmId{1}, 8000_mhz));
  EXPECT_TRUE(n.set_vm_cpu(util::VmId{2}, 4000_mhz));
  EXPECT_DOUBLE_EQ(n.cpu_free().get(), 0.0);
  // Over-commit rejected, state unchanged.
  EXPECT_FALSE(n.set_vm_cpu(util::VmId{2}, 4001_mhz));
  EXPECT_DOUBLE_EQ(n.used().cpu.get(), 12000.0);
  // Shrink then regrow.
  EXPECT_TRUE(n.set_vm_cpu(util::VmId{1}, 1000_mhz));
  EXPECT_TRUE(n.set_vm_cpu(util::VmId{2}, 11000_mhz));
}

TEST(Node, SetCpuOnNonResidentFails) {
  cluster::Node n(util::NodeId{0}, res(12000, 4096));
  EXPECT_FALSE(n.set_vm_cpu(util::VmId{1}, 100_mhz));
}

// --- VM state machine ------------------------------------------------------------

TEST(VmStateMachine, LegalLifecyclePath) {
  using cluster::vm_transition_allowed;
  EXPECT_TRUE(vm_transition_allowed(VmState::kPending, VmState::kStarting));
  EXPECT_TRUE(vm_transition_allowed(VmState::kStarting, VmState::kRunning));
  EXPECT_TRUE(vm_transition_allowed(VmState::kRunning, VmState::kSuspending));
  EXPECT_TRUE(vm_transition_allowed(VmState::kSuspending, VmState::kSuspended));
  EXPECT_TRUE(vm_transition_allowed(VmState::kSuspended, VmState::kResuming));
  EXPECT_TRUE(vm_transition_allowed(VmState::kResuming, VmState::kRunning));
  EXPECT_TRUE(vm_transition_allowed(VmState::kRunning, VmState::kMigrating));
  EXPECT_TRUE(vm_transition_allowed(VmState::kMigrating, VmState::kRunning));
  EXPECT_TRUE(vm_transition_allowed(VmState::kMigrating, VmState::kSuspended));
}

TEST(VmStateMachine, IllegalEdgesRejected) {
  using cluster::vm_transition_allowed;
  EXPECT_FALSE(vm_transition_allowed(VmState::kPending, VmState::kRunning));
  EXPECT_FALSE(vm_transition_allowed(VmState::kSuspended, VmState::kRunning));
  EXPECT_FALSE(vm_transition_allowed(VmState::kStopped, VmState::kStarting));
  EXPECT_FALSE(vm_transition_allowed(VmState::kRunning, VmState::kResuming));
}

TEST(VmStateMachine, MemoryAndExecutionSemantics) {
  EXPECT_TRUE(cluster::vm_state_holds_memory(VmState::kRunning));
  EXPECT_TRUE(cluster::vm_state_holds_memory(VmState::kSuspending));
  EXPECT_FALSE(cluster::vm_state_holds_memory(VmState::kSuspended));
  EXPECT_FALSE(cluster::vm_state_holds_memory(VmState::kPending));
  EXPECT_TRUE(cluster::vm_state_executes(VmState::kRunning));
  EXPECT_FALSE(cluster::vm_state_executes(VmState::kStarting));
}

// --- Cluster ----------------------------------------------------------------------

TEST(ClusterState, AddNodesAndCapacity) {
  Cluster c;
  c.add_nodes(25, res(12000, 4096));
  EXPECT_EQ(c.node_count(), 25u);
  EXPECT_DOUBLE_EQ(c.total_capacity().cpu.get(), 300000.0);  // the paper's cluster
  EXPECT_DOUBLE_EQ(c.total_capacity().mem.get(), 25.0 * 4096.0);
}

TEST(ClusterState, PlaceAndUnplaceVm) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  const auto vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  EXPECT_FALSE(c.vm(vm).placed());
  ASSERT_TRUE(c.place_vm(vm, n0));
  EXPECT_TRUE(c.vm(vm).placed());
  EXPECT_DOUBLE_EQ(c.node(n0).used().mem.get(), 1300.0);
  // Double placement fails.
  EXPECT_FALSE(c.place_vm(vm, n0));
  c.unplace_vm(vm);
  EXPECT_FALSE(c.vm(vm).placed());
  EXPECT_DOUBLE_EQ(c.node(n0).used().mem.get(), 0.0);
}

TEST(ClusterState, CpuShareRequiresPlacement) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  const auto vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  EXPECT_FALSE(c.set_cpu_share(vm, 100_mhz));
  ASSERT_TRUE(c.place_vm(vm, n0));
  EXPECT_TRUE(c.set_cpu_share(vm, 3000_mhz));
  EXPECT_FALSE(c.set_cpu_share(vm, 13000_mhz));  // exceeds node
  EXPECT_FALSE(c.set_cpu_share(vm, util::CpuMhz{-5.0}));
  c.unplace_vm(vm);
  EXPECT_DOUBLE_EQ(c.vm(vm).cpu_share.get(), 0.0);
}

TEST(ClusterState, IllegalTransitionThrows) {
  Cluster c;
  const auto vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  EXPECT_THROW(c.set_vm_state(vm, VmState::kRunning), std::logic_error);
}

TEST(ClusterState, FreeMemorySlots) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  EXPECT_EQ(c.free_memory_slots(n0, 1300_mb), 3);
  const auto vm = c.create_web_vm(util::AppId{0}, 1024_mb);
  ASSERT_TRUE(c.place_vm(vm, n0));
  EXPECT_EQ(c.free_memory_slots(n0, 1300_mb), 2);  // 3072 left → 2 jobs
  EXPECT_EQ(c.free_memory_slots(n0, 0_mb), 0);
}

TEST(ClusterState, AllocatedCpuByKind) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  const auto job_vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  const auto web_vm = c.create_web_vm(util::AppId{0}, 1024_mb);
  ASSERT_TRUE(c.place_vm(job_vm, n0));
  ASSERT_TRUE(c.place_vm(web_vm, n0));
  c.set_vm_state(job_vm, VmState::kStarting);
  c.set_vm_state(job_vm, VmState::kRunning);
  c.set_vm_state(web_vm, VmState::kStarting);
  c.set_vm_state(web_vm, VmState::kRunning);
  ASSERT_TRUE(c.set_cpu_share(job_vm, 3000_mhz));
  ASSERT_TRUE(c.set_cpu_share(web_vm, 5000_mhz));
  EXPECT_DOUBLE_EQ(c.allocated_cpu(VmKind::kJobContainer).get(), 3000.0);
  EXPECT_DOUBLE_EQ(c.allocated_cpu(VmKind::kWebInstance).get(), 5000.0);
}

TEST(ClusterState, VmsInStateFiltersAndOrders) {
  Cluster c;
  c.add_node(res(12000, 8192));
  const auto v1 = c.create_job_vm(util::JobId{1}, 100_mb);
  const auto v2 = c.create_job_vm(util::JobId{2}, 100_mb);
  const auto v3 = c.create_web_vm(util::AppId{0}, 100_mb);
  (void)v3;
  auto pending = c.vms_in_state(VmKind::kJobContainer, VmState::kPending);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], v1);
  EXPECT_EQ(pending[1], v2);
}

TEST(ClusterState, ValidateCleanClusterHasNoIssues) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  const auto vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  ASSERT_TRUE(c.place_vm(vm, n0));
  c.set_vm_state(vm, VmState::kStarting);
  EXPECT_TRUE(c.validate().empty());
  c.set_vm_state(vm, VmState::kRunning);
  ASSERT_TRUE(c.set_cpu_share(vm, 1000_mhz));
  EXPECT_TRUE(c.validate().empty());
}

TEST(ClusterState, ValidateDetectsSuspendedVmHoldingMemory) {
  Cluster c;
  const auto n0 = c.add_node(res(12000, 4096));
  const auto vm = c.create_job_vm(util::JobId{0}, 1300_mb);
  ASSERT_TRUE(c.place_vm(vm, n0));
  c.set_vm_state(vm, VmState::kStarting);
  c.set_vm_state(vm, VmState::kRunning);
  c.set_vm_state(vm, VmState::kSuspending);
  c.set_vm_state(vm, VmState::kSuspended);
  // Forgot to unplace: the validator must flag it.
  EXPECT_FALSE(c.validate().empty());
  c.unplace_vm(vm);
  EXPECT_TRUE(c.validate().empty());
}

// Property: random legal operation sequences keep the cluster valid.
class ClusterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterFuzz, RandomOpsPreserveInvariants) {
  util::Rng rng(GetParam());
  Cluster c;
  c.add_nodes(4, res(12000, 4096));
  std::vector<util::VmId> vms;
  for (int i = 0; i < 12; ++i) {
    vms.push_back(c.create_job_vm(util::JobId{static_cast<unsigned>(i)}, 1300_mb));
  }
  for (int step = 0; step < 400; ++step) {
    const auto vm_id = vms[rng.uniform_int(0, vms.size() - 1)];
    const auto& vm = c.vm(vm_id);
    switch (vm.state) {
      case VmState::kPending: {
        const util::NodeId n{static_cast<unsigned>(rng.uniform_int(0, 3))};
        if (c.place_vm(vm_id, n)) c.set_vm_state(vm_id, VmState::kStarting);
        break;
      }
      case VmState::kStarting:
        c.set_vm_state(vm_id, VmState::kRunning);
        break;
      case VmState::kRunning:
        if (rng.chance(0.5)) {
          (void)c.set_cpu_share(vm_id, util::CpuMhz{rng.uniform(0.0, 3000.0)});
        } else {
          (void)c.set_cpu_share(vm_id, util::CpuMhz{0.0});
          c.set_vm_state(vm_id, VmState::kSuspending);
        }
        break;
      case VmState::kSuspending:
        c.set_vm_state(vm_id, VmState::kSuspended);
        c.unplace_vm(vm_id);
        break;
      case VmState::kSuspended: {
        const util::NodeId n{static_cast<unsigned>(rng.uniform_int(0, 3))};
        if (c.place_vm(vm_id, n)) c.set_vm_state(vm_id, VmState::kResuming);
        break;
      }
      case VmState::kResuming:
        c.set_vm_state(vm_id, VmState::kRunning);
        break;
      default:
        break;
    }
    const auto issues = c.validate();
    ASSERT_TRUE(issues.empty()) << "step " << step << ": " << issues.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFuzz, ::testing::Values(3u, 17u, 2024u));

// --- web-instance index == reference filter over every VM --------------------
//
// web_instances() replaces a scan of every VM ever created filtered on
// kind == kWebInstance && state != kStopped. The test keeps its own
// creation-order list of all VM ids (the order the cluster assigns them)
// and checks the index against that filter after every step of a seeded
// mix of instance start / stop / fault-stop interleaved with job VMs.

namespace {

void expect_web_index_matches_reference(const Cluster& c, const std::vector<util::VmId>& created,
                                        const std::string& step) {
  std::vector<util::VmId> want;
  for (util::VmId id : created) {
    const auto& v = c.vm(id);
    if (v.kind == VmKind::kWebInstance && v.state != VmState::kStopped) want.push_back(id);
  }
  ASSERT_EQ(c.web_instances(), want) << step;
}

}  // namespace

class WebIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WebIndexFuzz, WebInstancesMatchFilteredVmScan) {
  util::Rng rng(GetParam());
  Cluster c;
  c.add_nodes(6, res(12000, 4096));
  std::vector<util::VmId> created;
  auto random_node = [&] { return util::NodeId{static_cast<unsigned>(rng.uniform_int(0, 5))}; };
  auto random_vm = [&] { return created[rng.uniform_int(0, created.size() - 1)]; };
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.uniform_int(0, 9);
    const std::string label = "step " + std::to_string(step) + " op " + std::to_string(op);
    if (created.empty() || op <= 2) {
      // Instance start (executor pass 4): a failed placement stops the
      // fresh VM straight from kPending.
      const auto id = c.create_web_vm(util::AppId{static_cast<unsigned>(rng.uniform_int(0, 2))},
                                      1024_mb);
      created.push_back(id);
      if (c.place_vm(id, random_node())) {
        c.set_vm_state(id, VmState::kStarting);
      } else {
        c.set_vm_state(id, VmState::kStopped);
      }
    } else if (op == 3) {
      const auto id = c.create_job_vm(util::JobId{static_cast<unsigned>(step)}, 512_mb);
      created.push_back(id);
      if (c.place_vm(id, random_node())) c.set_vm_state(id, VmState::kStarting);
    } else if (op <= 5) {
      // Boot completes.
      const auto id = random_vm();
      if (c.vm(id).state == VmState::kStarting) c.set_vm_state(id, VmState::kRunning);
    } else {
      // Planned stop (pass 1, running or starting) or fault-stop (a
      // crashed node tears down whatever it hosts, any live state).
      const auto id = random_vm();
      const auto& v = c.vm(id);
      if (v.state == VmState::kStopped) continue;
      const bool planned = op <= 7;
      if (planned && v.state != VmState::kRunning && v.state != VmState::kStarting) continue;
      c.set_vm_state(id, VmState::kStopped);
      c.unplace_vm(id);
    }
    expect_web_index_matches_reference(c, created, label);
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(c.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WebIndexFuzz, ::testing::Values(11u, 404u, 20080625u));

TEST(ClusterState, AllocatedCpuFoldsInCreationOrder) {
  // Shares whose float sum depends on the order of addition: in creation
  // order each 1.0 is absorbed by 1e16 (half an ulp, ties to even); summed
  // small-first they survive. The fold must follow creation order,
  // whatever order the VM hash map iterates in.
  Cluster c;
  const std::vector<double> shares{1e16, 1.0, 1.0, 1.0, 1.0};
  double want = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const auto n = c.add_node(res(2e16, 4096));
    const auto id = c.create_web_vm(util::AppId{0}, 64_mb);
    ASSERT_TRUE(c.place_vm(id, n));
    c.set_vm_state(id, VmState::kStarting);
    c.set_vm_state(id, VmState::kRunning);
    ASSERT_TRUE(c.set_cpu_share(id, util::CpuMhz{shares[i]}));
    want += shares[i];
  }
  ASSERT_EQ(want, 1e16);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.allocated_cpu(VmKind::kWebInstance).get()),
            std::bit_cast<std::uint64_t>(want));
}

// --- cached capacity aggregates ----------------------------------------------
//
// total_capacity, placeable_capacity and placeable_capacity_by_class are
// cached inside Cluster. These checks pin the caches bit for bit against
// a fresh fold over the nodes in node order (the uncached definition)
// across every power-state and DVFS transition the power manager and the
// fault injector drive.

namespace {

using cluster::PowerState;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_eq(Resources a, Resources b, const std::string& what) {
  EXPECT_EQ(bits(a.cpu.get()), bits(b.cpu.get())) << what << " cpu";
  EXPECT_EQ(bits(a.mem.get()), bits(b.mem.get())) << what << " mem";
}

void expect_caches_match_recompute(const Cluster& c, const std::string& step) {
  Resources total{};
  Resources placeable{};
  std::vector<Resources> by_class(c.classes().size());
  for (const auto& n : c.nodes()) {
    total += n.capacity();
    if (!n.placeable()) continue;
    const Resources r{n.placeable_cpu(), n.capacity().mem};
    placeable += r;
    by_class[static_cast<std::size_t>(n.klass())] += r;
  }
  expect_bitwise_eq(c.total_capacity(), total, step + ": total_capacity");
  expect_bitwise_eq(c.placeable_capacity(), placeable, step + ": placeable_capacity");
  const std::vector<Resources>& cached = c.placeable_capacity_by_class();
  ASSERT_EQ(cached.size(), by_class.size()) << step;
  for (std::size_t k = 0; k < by_class.size(); ++k) {
    expect_bitwise_eq(cached[k], by_class[k], step + ": class " + std::to_string(k));
  }
}

}  // namespace

TEST(ClusterCache, CapacityAggregatesMatchRecomputeAcrossPowerTransitions) {
  Cluster c;
  // Capacities whose sums round, so a reordered fold would show.
  c.add_nodes(3, res(12000.1, 4096.3));
  expect_caches_match_recompute(c, "default class only");
  cluster::MachineClass fast;
  fast.name = "fast";
  fast.cores = 3;
  fast.core_mhz = 3333.3;
  fast.mem_mb = 2047.7;
  fast.speed_factor = 0.9;
  const cluster::ClassId k_fast = c.add_class(fast);
  expect_caches_match_recompute(c, "class added after nodes");
  c.add_class_nodes(k_fast, 4);
  c.add_node(res(0.1, 0.7));
  expect_caches_match_recompute(c, "initial");

  const util::NodeId n1{1};
  const util::NodeId n4{4};
  const util::NodeId n6{6};

  c.set_power_state(n1, PowerState::kParking);
  expect_caches_match_recompute(c, "parking");
  c.set_power_state(n1, PowerState::kParked);
  expect_caches_match_recompute(c, "parked");
  EXPECT_LT(c.placeable_capacity().cpu.get(), c.total_capacity().cpu.get());

  c.set_power_state(n1, PowerState::kWaking);
  expect_caches_match_recompute(c, "waking");
  c.set_power_state(n1, PowerState::kActive);
  expect_caches_match_recompute(c, "woke");

  // DVFS step: every active node throttled, with no read in between.
  for (const auto& n : c.nodes()) c.set_speed_factor(n.id(), 0.7);
  expect_caches_match_recompute(c, "dvfs 0.7");
  for (const auto& n : c.nodes()) c.set_speed_factor(n.id(), 1.0);
  expect_caches_match_recompute(c, "dvfs 1.0");

  c.set_power_state(n4, PowerState::kFailed);
  expect_caches_match_recompute(c, "crash");
  c.set_power_state(n6, PowerState::kFailed);
  c.set_speed_factor(n1, 0.45);
  expect_caches_match_recompute(c, "second crash + throttle");
  c.set_power_state(n4, PowerState::kActive);
  expect_caches_match_recompute(c, "repair");
  c.set_power_state(n6, PowerState::kActive);
  expect_caches_match_recompute(c, "second repair");

  // A rejected transition (the node hosts a VM) leaves the caches valid.
  const util::VmId vm = c.create_job_vm(util::JobId{0}, 100_mb);
  ASSERT_TRUE(c.place_vm(vm, n4));
  EXPECT_THROW(c.set_power_state(n4, PowerState::kParking), std::logic_error);
  expect_caches_match_recompute(c, "rejected park");
}
