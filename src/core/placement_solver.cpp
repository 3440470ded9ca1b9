#include "core/placement_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace heteroplace::core {

namespace {

constexpr double kEps = 1e-9;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

/// Mutable per-node ledger used while the solver assembles the placement.
///
/// The per-node aggregates (target_sum, granted_sum) are maintained
/// incrementally: the seed implementation re-summed residents inside
/// target_headroom(), the instance-shortfall fixup, and the starvation
/// rescue, which made those phases O(apps·nodes·residents) /
/// O(jobs·nodes·residents) — the dominant cost at cluster scale.
struct NodeScratch {
  util::NodeId id{};
  double cpu_cap{0.0};
  double mem_cap{0.0};
  double mem_free{0.0};
  double target_sum{0.0};   // Σ residents' targets
  double granted_sum{0.0};  // Σ residents' grants (valid from phase 5 on)

  struct Resident {
    bool is_job{true};
    std::size_t index{0};  // into problem.jobs or problem.apps
    double target{0.0};
    double cap{0.0};
    double grant{0.0};
    double urgency{0.0};       // jobs only: eviction ranking
    bool evictable{false};     // jobs only
    double memory{0.0};
    std::uint32_t seq{0};  // insertion order; survives swap-removal
  };
  std::vector<Resident> residents;

  /// Start a solve on `n`: every field set, residents emptied (their
  /// buffer keeps its capacity).
  void reset(const SolverNode& n) {
    id = n.id;
    cpu_cap = n.cpu_capacity.get();
    mem_cap = n.mem_capacity.get();
    mem_free = n.mem_capacity.get();
    target_sum = 0.0;
    granted_sum = 0.0;
    residents.clear();
  }

  [[nodiscard]] double target_headroom() const { return cpu_cap - target_sum; }

  void add_resident(Resident r) {
    mem_free -= r.memory;
    target_sum += r.target;
    residents.push_back(r);
  }

  /// Swap-remove the resident at `pos` (O(1); does not preserve position
  /// order — residents carry `seq` for the phases that need insertion
  /// order). Releases its memory and target from the aggregates.
  Resident take_resident(std::size_t pos) {
    Resident r = residents[pos];
    mem_free += r.memory;
    target_sum -= r.target;
    granted_sum -= r.grant;
    residents[pos] = residents.back();
    residents.pop_back();
    return r;
  }
};

using ResidentPtrs = std::vector<NodeScratch::Resident*>;

struct AppScratch {
  std::size_t index{0};
  double per_inst_cap{0.0};
  int desired{0};
  std::vector<util::NodeId> kept_nodes;  // instances we keep
  int to_add{0};
};

/// A waiting job in phase 4's max-heap.
struct WaitingKey {
  double urgency;
  util::JobId id;
  std::uint32_t index;
  bool was_running;  // displaced mid-run → migrate if re-placed
};

/// A node in a phase-4 slot heap, stamped with the node's version.
struct SlotKey {
  double headroom;
  std::uint32_t index;
  std::uint32_t version;
};

using MemKey = std::pair<double, std::uint32_t>;  // (mem_free at push, node index)

/// The solver's whole working set, one per thread.
///
/// Cost model: solve_placement() runs every control cycle on problems
/// that change little between cycles, so it clears and resizes these
/// buffers at entry and never frees them — after the first few cycles a
/// solve allocates only its answer. Containers of containers (nodes,
/// apps, per-group heaps, per-app sites) only ever grow, so a smaller
/// problem leaves the inner buffers of the unused tail alive for the
/// next larger one. Nothing is read before it is reset, so a call that
/// threw leaves nothing the next call depends on.
///
/// Per thread, not per policy: a federation holds one policy per domain
/// (100 on the macro shape), and per-policy buffers would keep 100
/// copies alive, while a domain's cycle runs on one engine thread at a
/// time, so per thread there are at most as many copies as engine
/// threads.
struct SolverScratch {
  std::vector<NodeScratch> nodes;
  std::vector<std::uint32_t> node_slot;  // node id → index in problem.nodes

  // Compatibility groups.
  std::vector<cluster::ConstraintSet> groups;
  std::vector<std::size_t> job_group;
  std::vector<std::size_t> app_group;
  std::vector<char> elig;  // n_groups × n_nodes, row-major
  std::vector<double> group_max_cpu;
  std::vector<int> group_node_count;

  // Phases 1–3.
  std::vector<AppScratch> apps;
  std::vector<SolverAppInstance> sorted_instances;
  std::vector<std::size_t> displaced;  // running jobs pushed off their node
  std::vector<std::uint64_t> presence;
  std::vector<std::size_t> order, victims, best_victims;

  // Phase 4.
  std::vector<WaitingKey> waiting;
  std::vector<double> group_min_mem;
  std::vector<int> group_heap_count;
  std::vector<std::vector<SlotKey>> slot_heaps;
  std::vector<std::uint32_t> slot_versions;  // n_groups × n_nodes, row-major
  std::vector<SlotKey> deferred;
  std::vector<std::vector<MemKey>> mem_heaps;

  // Phase 5.
  std::vector<int> placed_instances;
  std::vector<double> app_granted;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> app_sites;
  ResidentPtrs fill_a, fill_b;

  // Emission, by problem job index.
  std::vector<std::uint32_t> job_node;
  std::vector<double> job_grant;
};

SolverScratch& thread_scratch() {
  thread_local SolverScratch scratch;
  return scratch;
}

/// The first `n` elements of `v`, growing it if needed; never shrinks,
/// so the elements' own buffers survive a smaller problem.
template <class T>
std::span<T> first_n(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

/// Proportional-to-target fill of `active` within `budget`, respecting
/// per-resident caps (peeling off capped residents, which reorders
/// `active`). Returns the budget left over.
double proportional_fill(ResidentPtrs& active, double budget) {
  while (!active.empty() && budget > kEps) {
    double total_target = 0.0;
    for (const auto* r : active) total_target += r->target;
    if (total_target <= budget + kEps) {
      // Everyone gets their full target (cap can bind below target only
      // if the caller passed target > cap; clamp defensively).
      for (auto* r : active) {
        r->grant = std::min(r->target, r->cap);
        budget -= r->grant;
      }
      return budget;
    }
    const double scale = budget / total_target;
    bool any_capped = false;
    for (std::size_t i = 0; i < active.size();) {
      NodeScratch::Resident* r = active[i];
      if (scale * r->target >= r->cap - kEps) {
        r->grant = r->cap;
        budget -= r->cap;
        active[i] = active.back();
        active.pop_back();
        any_capped = true;
      } else {
        ++i;
      }
    }
    if (!any_capped) {
      for (auto* r : active) {
        r->grant = scale * r->target;
      }
      return 0.0;
    }
  }
  return budget;
}

/// Distribute a node's CPU among its residents in two tiers: web
/// instances first (up to their targets — the transactional middleware
/// tier is capacity-guaranteed, mirroring the flow-controlled app servers
/// of the paper's prototype), then job containers share the remainder.
/// Without tiering, a proportional squeeze on a crowded node hits the
/// steep transactional utility curve far harder than the jobs' shallow
/// one and breaks the equalization that the continuous stage computed.
/// Leaves granted_sum consistent with the assigned grants. `instances`
/// and `jobs` are caller-owned buffers, overwritten.
void waterfill_node(NodeScratch& node, ResidentPtrs& instances, ResidentPtrs& jobs) {
  instances.clear();
  jobs.clear();
  for (auto& r : node.residents) {
    r.grant = 0.0;
    if (r.target <= kEps) continue;
    (r.is_job ? jobs : instances).push_back(&r);
  }
  const double after_instances = proportional_fill(instances, node.cpu_cap);
  proportional_fill(jobs, after_instances);
  node.granted_sum = 0.0;
  for (const auto& r : node.residents) node.granted_sum += r.grant;
}

/// Work conservation: spread a node's unallocated CPU equally among *job*
/// residents with headroom (batch work soaks idle cycles up to max
/// speed). Instances stay at their equalized targets — granting beyond
/// target would push the app's utility above the equalized level and
/// defeat the arbitration. `open` is a caller-owned buffer, overwritten.
void spread_leftover_to_jobs(NodeScratch& node, ResidentPtrs& open) {
  double remaining = node.cpu_cap - node.granted_sum;
  for (int pass = 0; pass < 64 && remaining > kEps; ++pass) {
    open.clear();
    for (auto& r : node.residents) {
      if (r.is_job && r.cap - r.grant > kEps) open.push_back(&r);
    }
    if (open.empty()) break;
    const double share = remaining / static_cast<double>(open.size());
    for (auto* r : open) {
      const double add = std::min(share, r->cap - r->grant);
      r->grant += add;
      remaining -= add;
    }
  }
  node.granted_sum = node.cpu_cap - remaining;
}

[[nodiscard]] bool job_holds_memory(workload::JobPhase p) {
  switch (p) {
    case workload::JobPhase::kStarting:
    case workload::JobPhase::kRunning:
    case workload::JobPhase::kResuming:
    case workload::JobPhase::kMigrating:
      return true;
    case workload::JobPhase::kPending:
    case workload::JobPhase::kSuspending:  // memory drains mid-cycle
    case workload::JobPhase::kSuspended:
    case workload::JobPhase::kCompleted:
      return false;
  }
  return false;
}

}  // namespace

SolverResult solve_placement(const PlacementProblem& problem, const SolverConfig& config,
                             const obs::ObsContext& obs, double now) {
  SolverResult result;
  auto& stats = result.stats;
  SolverScratch& s = thread_scratch();
  obs::AuditLog* const audit = obs.audit;

  const std::size_t n_nodes = problem.nodes.size();
  const std::span<NodeScratch> nodes = first_n(s.nodes, n_nodes);
  const std::span<AppScratch> app_scratch = first_n(s.apps, problem.apps.size());
  const auto eligible = [&](std::size_t g, std::size_t ni) {
    return s.elig[g * n_nodes + ni] != 0;
  };
  // Dense id→index table (node ids are dense per cluster), refilled below.
  const auto index_of = [&](util::NodeId id) -> std::size_t {
    const std::size_t v = id.get();
    if (v >= s.node_slot.size() || s.node_slot[v] == kNoSlot) {
      throw std::invalid_argument("solve_placement: VM references unknown node");
    }
    return s.node_slot[v];
  };
  std::uint32_t next_seq = 0;

  // Audit emission shared by the pinning, packing and rescue phases.
  auto audit_job = [&](const char* verdict, const SolverJob& job, std::size_t g, int node,
                       double headroom) {
    if (audit == nullptr) return;
    obs::AuditRecord rec;
    rec.t = now;
    rec.kind = 'J';
    rec.verdict = verdict;
    rec.consumer = static_cast<std::int64_t>(job.id.get());
    rec.node = node;
    rec.group = static_cast<int>(g);
    rec.headroom = headroom;
    audit->record(rec);
  };

  {
    const obs::Span span(obs, obs::SpanKind::kSolvePin, now);

    // ---- scratch reset -----------------------------------------------------
    util::NodeId::underlying_type max_id = 0;
    for (std::size_t i = 0; i < n_nodes; ++i) {
      nodes[i].reset(problem.nodes[i]);
      max_id = std::max(max_id, problem.nodes[i].id.get());
    }
    s.node_slot.assign(n_nodes == 0 ? 0 : std::size_t{max_id} + 1, kNoSlot);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      std::uint32_t& slot = s.node_slot[problem.nodes[i].id.get()];
      if (slot == kNoSlot) slot = static_cast<std::uint32_t>(i);  // first of a duplicate id
    }

    // ---- compatibility groups ----------------------------------------------
    // Jobs and apps sharing a ConstraintSet form one group with a fixed
    // node-eligibility set; every phase below filters candidates through
    // it, and the phase-4 argmax heaps are built per group so a pop can
    // never surface an incompatible node. Group 0 is the empty constraint:
    // a constraint-free problem has exactly that one group over every
    // node, and each per-group structure degenerates to the single global
    // one — preserving the pre-class solve bit for bit.
    auto& groups = s.groups;
    groups.clear();
    groups.emplace_back();
    auto group_of = [&](const cluster::ConstraintSet& c) -> std::size_t {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g] == c) return g;
      }
      groups.push_back(c);
      return groups.size() - 1;
    };
    s.job_group.resize(problem.jobs.size());
    for (std::size_t ji = 0; ji < problem.jobs.size(); ++ji) {
      s.job_group[ji] = group_of(problem.jobs[ji].constraint);
    }
    s.app_group.resize(problem.apps.size());
    for (std::size_t ai = 0; ai < problem.apps.size(); ++ai) {
      s.app_group[ai] = group_of(problem.apps[ai].constraint);
    }
    const std::size_t n_groups = groups.size();

    s.elig.assign(n_groups * n_nodes, 0);
    s.group_max_cpu.assign(n_groups, 0.0);
    s.group_node_count.assign(n_groups, 0);
    for (std::size_t g = 0; g < n_groups; ++g) {
      for (std::size_t ni = 0; ni < n_nodes; ++ni) {
        if (!problem.node_admits(groups[g], problem.nodes[ni].klass)) continue;
        s.elig[g * n_nodes + ni] = 1;
        s.group_max_cpu[g] = std::max(s.group_max_cpu[g], problem.nodes[ni].cpu_capacity.get());
        ++s.group_node_count[g];
      }
    }

    // ---- Phase 1: decide per-app instance counts ---------------------------
    for (std::size_t ai = 0; ai < problem.apps.size(); ++ai) {
      const SolverApp& app = problem.apps[ai];
      AppScratch& as = app_scratch[ai];
      as.index = ai;
      as.kept_nodes.clear();
      as.to_add = 0;
      // Sizing sees only the machines this app may run on: the biggest
      // compatible node caps an instance, the compatible node count caps
      // the cluster (one instance per node).
      const double app_max_cpu = s.group_max_cpu[s.app_group[ai]];
      const int max_by_nodes = s.group_node_count[s.app_group[ai]];
      if (max_by_nodes == 0) {
        // No machine satisfies the app's constraints: nothing new can be
        // placed, and movable instances are dropped (they should never
        // have been where they are). Booting instances ride out the cycle.
        as.per_inst_cap = 0.0;
        for (const auto& inst : app.current) {
          if (!inst.movable) {
            as.kept_nodes.push_back(inst.node);
          } else {
            ++stats.instances_dropped;
          }
        }
        as.desired = static_cast<int>(as.kept_nodes.size());
        continue;
      }
      as.per_inst_cap = std::min(app.max_cpu_per_instance.get(), app_max_cpu);
      if (as.per_inst_cap <= 0.0) as.per_inst_cap = app_max_cpu;

      const int hard_max = std::min(app.max_instances, max_by_nodes);
      // Size the cluster assuming an instance only obtains a fraction of
      // its node (it shares the node with collocated jobs).
      const double effective_per_inst =
          as.per_inst_cap * std::clamp(config.instance_capacity_factor, 0.05, 1.0);
      int needed = static_cast<int>(std::ceil(app.target.get() / effective_per_inst - 1e-9));
      needed = std::clamp(needed, std::max(app.min_instances, 1), std::max(hard_max, 1));

      const int current = static_cast<int>(app.current.size());
      int keep;
      if (needed > current) {
        keep = current;
        as.to_add = needed - current;
      } else {
        // Shrink hysteresis: drop instances only when the target is served
        // comfortably by fewer.
        const double comfortable =
            (static_cast<double>(current) - 1.0) * effective_per_inst *
            (1.0 - config.instance_grow_headroom);
        if (current > needed && app.target.get() < comfortable) {
          keep = std::max({needed, app.min_instances, 1});
        } else {
          keep = current;
        }
      }
      as.desired = keep + as.to_add;

      // Keep immovable (booting) instances unconditionally, then movable
      // ones in node-id order until `keep` is reached.
      auto& sorted = s.sorted_instances;
      sorted.assign(app.current.begin(), app.current.end());
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const SolverAppInstance& a, const SolverAppInstance& b) {
                         if (a.movable != b.movable) return !a.movable;  // immovable first
                         return a.node < b.node;
                       });
      for (const auto& inst : sorted) {
        if (static_cast<int>(as.kept_nodes.size()) < keep || !inst.movable) {
          as.kept_nodes.push_back(inst.node);
        } else {
          ++stats.instances_dropped;
        }
      }
    }

    // ---- Phase 2: reserve memory for everything currently placed -----------
    // Kept instances. Give each a provisional CPU target (the app's target
    // split over the planned instance count) so the job-packing phase sees
    // realistic per-node headroom; phase 5 recomputes the exact split.
    for (const auto& as : app_scratch) {
      const SolverApp& app = problem.apps[as.index];
      const double provisional_target =
          app.target.get() / static_cast<double>(std::max(as.desired, 1));
      for (util::NodeId nid : as.kept_nodes) {
        NodeScratch& ns = nodes[index_of(nid)];
        NodeScratch::Resident r;
        r.is_job = false;
        r.index = as.index;
        r.target = provisional_target;
        r.cap = as.per_inst_cap;
        r.memory = app.instance_memory.get();
        r.seq = next_seq++;
        ns.add_resident(r);
      }
    }
    // Currently-placed jobs (memory holders).
    for (std::size_t ji = 0; ji < problem.jobs.size(); ++ji) {
      const SolverJob& job = problem.jobs[ji];
      if (!job.current_node.valid() || !job_holds_memory(job.phase)) continue;
      NodeScratch& ns = nodes[index_of(job.current_node)];
      NodeScratch::Resident r;
      r.is_job = true;
      r.index = ji;
      r.target = job.target.get();
      r.cap = job.max_speed.get();
      r.urgency = job.urgency;
      r.memory = job.memory.get();
      const bool protected_near_done =
          job.remaining.get() <= job.max_speed.get() * config.protect_completion_horizon_s;
      r.evictable = job.movable && !protected_near_done;
      r.seq = next_seq++;
      ns.add_resident(r);
      if (job.phase == workload::JobPhase::kRunning) {
        audit_job("keep", job, s.job_group[ji], static_cast<int>(job.current_node.get()),
                  ns.target_headroom());
      }
    }
  }
  const std::size_t n_groups = s.groups.size();

  // ---- Phase 3: grow instance clusters, evicting jobs when needed ----------
  // Instance presence per app is a bitset over node indices, so the
  // "no instance of this app here yet" check is O(1) rather than a
  // rescan of the candidate node's residents per placement attempt.
  s.displaced.clear();
  {
    const obs::Span span(obs, obs::SpanKind::kSolveGrow, now);
    auto& presence = s.presence;
    presence.resize((n_nodes + 63) / 64);
    for (auto& as : app_scratch) {
      if (as.to_add == 0) continue;
      const SolverApp& app = problem.apps[as.index];
      const std::size_t ag = s.app_group[as.index];
      std::fill(presence.begin(), presence.end(), 0);
      for (util::NodeId nid : as.kept_nodes) {
        const std::size_t ni = index_of(nid);
        presence[ni / 64] |= std::uint64_t{1} << (ni % 64);
      }
      auto has_instance = [&](std::size_t ni) {
        return (presence[ni / 64] >> (ni % 64)) & 1u;
      };

      for (int k = 0; k < as.to_add; ++k) {
        // First choice: free memory, most of it (compatible nodes only).
        std::size_t best = kNone;
        for (std::size_t ni = 0; ni < n_nodes; ++ni) {
          if (!eligible(ag, ni)) continue;
          if (has_instance(ni)) continue;
          if (nodes[ni].mem_free + kEps < app.instance_memory.get()) continue;
          if (best == kNone || nodes[ni].mem_free > nodes[best].mem_free) best = ni;
        }

        if (best == kNone) {
          // Reclaim memory from the least-urgent evictable jobs: pick the
          // node where the evicted urgency mass is smallest.
          double best_cost = std::numeric_limits<double>::max();
          std::size_t best_node = kNone;
          s.best_victims.clear();
          for (std::size_t ni = 0; ni < n_nodes; ++ni) {
            NodeScratch& ns = nodes[ni];
            if (!eligible(ag, ni)) continue;
            if (has_instance(ni)) continue;
            // Greedily evict lowest-urgency jobs until the instance fits.
            auto& order = s.order;  // resident positions, jobs only
            order.clear();
            for (std::size_t p = 0; p < ns.residents.size(); ++p) {
              if (ns.residents[p].is_job && ns.residents[p].evictable) order.push_back(p);
            }
            // (urgency, insertion seq): deterministic regardless of how
            // swap-removal has permuted resident positions.
            std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
              if (ns.residents[a].urgency != ns.residents[b].urgency) {
                return ns.residents[a].urgency < ns.residents[b].urgency;
              }
              return ns.residents[a].seq < ns.residents[b].seq;
            });
            double freed = ns.mem_free;
            double cost = 0.0;
            auto& victims = s.victims;
            victims.clear();
            for (std::size_t p : order) {
              if (freed + kEps >= app.instance_memory.get()) break;
              freed += ns.residents[p].memory;
              cost += ns.residents[p].urgency + 1.0;  // +1: churn penalty per job
              victims.push_back(p);
            }
            if (freed + kEps < app.instance_memory.get()) continue;  // still no room
            if (cost < best_cost) {
              best_cost = cost;
              best_node = ni;
              std::swap(s.best_victims, victims);
            }
          }
          if (best_node != kNone) {
            // Evict from highest position first so swap-removal cannot
            // disturb the positions still queued for eviction.
            std::sort(s.best_victims.rbegin(), s.best_victims.rend());
            NodeScratch& bn = nodes[best_node];
            for (std::size_t p : s.best_victims) {
              if (audit != nullptr) {
                const NodeScratch::Resident& v = bn.residents[p];
                obs::AuditRecord rec;
                rec.t = now;
                rec.kind = 'A';
                rec.verdict = "evict";
                rec.consumer = static_cast<std::int64_t>(app.id.get());
                rec.node = static_cast<int>(bn.id.get());
                rec.group = static_cast<int>(ag);
                rec.headroom = bn.target_headroom();
                rec.victim = static_cast<std::int64_t>(problem.jobs[v.index].id.get());
                rec.slack = v.urgency;
                audit->record(rec);
              }
              const NodeScratch::Resident r = bn.take_resident(p);
              assert(r.is_job);
              s.displaced.push_back(r.index);
              ++stats.jobs_evicted;
            }
            best = best_node;
          }
        }

        if (best == kNone) continue;  // cluster simply cannot host more

        NodeScratch::Resident r;
        r.is_job = false;
        r.index = as.index;
        r.target = app.target.get() / static_cast<double>(std::max(as.desired, 1));
        r.cap = as.per_inst_cap;
        r.memory = app.instance_memory.get();
        r.seq = next_seq++;
        nodes[best].add_resident(r);
        presence[best / 64] |= std::uint64_t{1} << (best % 64);
        as.kept_nodes.push_back(nodes[best].id);
        ++stats.instances_added;
        if (audit != nullptr) {
          obs::AuditRecord rec;
          rec.t = now;
          rec.kind = 'A';
          rec.verdict = "place";
          rec.consumer = static_cast<std::int64_t>(app.id.get());
          rec.node = static_cast<int>(nodes[best].id.get());
          rec.group = static_cast<int>(ag);
          rec.headroom = nodes[best].target_headroom();
          audit->record(rec);
        }
      }
    }
  }

  // ---- Phase 4: pack waiting jobs by urgency --------------------------------
  {
    const obs::Span span(obs, obs::SpanKind::kSolvePack, now);
    // Process in (urgency desc, id asc) order — a total order, so popping
    // a max-heap visits jobs in exactly the sequence a full sort would,
    // but the heap lets the loop stop as soon as no remaining job can fit:
    // phase 4 only ever consumes memory, so once the fleet-wide max free
    // falls below the smallest waiting footprint, every remaining job is
    // waiting. At scale the waiting list dwarfs the slot count and the
    // O(n log n) sort of it was the single largest cost of a solve.
    // Admission bookkeeping is per compatibility group: a group's smallest
    // waiting footprint against the max free memory among *its* eligible
    // nodes (with one empty group these are the global min/max of before).
    auto& heap = s.waiting;
    heap.clear();
    s.group_min_mem.assign(n_groups, std::numeric_limits<double>::max());
    s.group_heap_count.assign(n_groups, 0);
    const auto push_waiting = [&](std::size_t ji, bool was_running) {
      const SolverJob& job = problem.jobs[ji];
      heap.push_back({job.urgency, job.id, static_cast<std::uint32_t>(ji), was_running});
      const std::size_t g = s.job_group[ji];
      s.group_min_mem[g] = std::min(s.group_min_mem[g], job.memory.get());
      ++s.group_heap_count[g];
    };
    for (std::size_t ji = 0; ji < problem.jobs.size(); ++ji) {
      const workload::JobPhase phase = problem.jobs[ji].phase;
      if (phase == workload::JobPhase::kPending || phase == workload::JobPhase::kSuspended) {
        push_waiting(ji, false);
      }
    }
    for (std::size_t ji : s.displaced) push_waiting(ji, true);
    const auto heap_after = [](const WaitingKey& a, const WaitingKey& b) {
      if (a.urgency != b.urgency) return a.urgency < b.urgency;  // max-heap on urgency
      return a.id > b.id;                                        // then min on id
    };
    std::make_heap(heap.begin(), heap.end(), heap_after);

    // Per-job node selection used to be a linear max-headroom scan — at
    // macro scale (50+ nodes, thousands of placements per cycle) the
    // O(jobs·nodes) product was the last super-linear term in a solve.
    // Replace it with a lazy max-heap over (target_headroom desc, node
    // index asc): popping visits nodes in exactly the order the strict-`>`
    // index-order scan preferred them, so the first valid entry whose node
    // fits the job's memory is the scan's answer, bit for bit. Entries are
    // version-stamped; placing a job bumps its node's version and pushes a
    // fresh entry, so every node has exactly one live entry and stale ones
    // are discarded on pop. Valid-but-not-fitting pops are deferred to a
    // side list and re-pushed after the pick (their keys are unchanged —
    // only the chosen node mutates). Anyone who mutates a node's
    // target_sum or cpu_cap mid-phase must bump-and-repush the same way.
    const auto slot_after = [](const SlotKey& a, const SlotKey& b) {
      if (a.headroom != b.headroom) return a.headroom < b.headroom;  // max-heap on headroom
      return a.index > b.index;                                      // then min on node index
    };
    // One slot heap (and version row) per compatibility group, over the
    // group's eligible nodes only, so an argmax pop can never surface an
    // incompatible node. A placement stales the node's entry in *every*
    // group heap that contains it.
    const std::span<std::vector<SlotKey>> slot_heaps = first_n(s.slot_heaps, n_groups);
    s.slot_versions.assign(n_groups * n_nodes, 0);
    // The admission checks below need the max free memory among a job's
    // compatible nodes; rescanning all nodes after every placement would
    // reintroduce the O(jobs·nodes) term. Phase 4 only ever *consumes*
    // memory, so a lazy max-heap keyed by mem-free-at-push works: a stale
    // top is refreshed in place (the smaller live value sinks) and each
    // placement stales at most one entry per group, making the query
    // O(log nodes) amortized.
    const std::span<std::vector<MemKey>> mem_heaps = first_n(s.mem_heaps, n_groups);
    const auto mem_after = [](const MemKey& a, const MemKey& b) { return a.first < b.first; };
    for (std::size_t g = 0; g < n_groups; ++g) {
      auto& slot_heap = slot_heaps[g];
      auto& mem_heap = mem_heaps[g];
      slot_heap.clear();
      mem_heap.clear();
      for (std::size_t ni = 0; ni < n_nodes; ++ni) {
        if (!eligible(g, ni)) continue;
        const auto i = static_cast<std::uint32_t>(ni);
        slot_heap.push_back({nodes[ni].target_headroom(), i, 0});
        mem_heap.emplace_back(nodes[ni].mem_free, i);
      }
      std::make_heap(slot_heap.begin(), slot_heap.end(), slot_after);
      std::make_heap(mem_heap.begin(), mem_heap.end(), mem_after);
    }
    const auto phase4_max_mem_free = [&](std::size_t g) -> double {
      auto& mem_heap = mem_heaps[g];
      while (!mem_heap.empty()) {
        const auto top = mem_heap.front();
        const double live = nodes[top.second].mem_free;
        if (live == top.first) return live;
        std::pop_heap(mem_heap.begin(), mem_heap.end(), mem_after);
        mem_heap.back() = {live, top.second};
        std::push_heap(mem_heap.begin(), mem_heap.end(), mem_after);
      }
      return 0.0;
    };

    auto& deferred = s.deferred;  // valid pops that did not fit this job's memory
    while (!heap.empty()) {
      bool any_admittable = false;
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (s.group_heap_count[g] > 0 && phase4_max_mem_free(g) + kEps >= s.group_min_mem[g]) {
          any_admittable = true;
          break;
        }
      }
      if (!any_admittable) {
        // Nothing left can be admitted anywhere it may run.
        stats.jobs_waiting += static_cast<int>(heap.size());
        if (audit != nullptr) {
          for (const WaitingKey& wk : heap) {
            const std::size_t g = s.job_group[wk.index];
            audit_job("reject", problem.jobs[wk.index], g, -1, phase4_max_mem_free(g));
          }
        }
        break;
      }
      std::pop_heap(heap.begin(), heap.end(), heap_after);
      const std::size_t ji = heap.back().index;
      const bool was_running = heap.back().was_running;
      heap.pop_back();
      const SolverJob& job = problem.jobs[ji];
      const std::size_t jg = s.job_group[ji];
      --s.group_heap_count[jg];
      if (was_running && !config.allow_migration) {
        ++stats.jobs_waiting;  // becomes a suspension downstream
        audit_job("reject", job, jg, -1, 0.0);
        continue;
      }
      if (phase4_max_mem_free(jg) + kEps < job.memory.get()) {
        ++stats.jobs_waiting;  // no compatible node can hold it — skip the heap drain
        audit_job("reject", job, jg, -1, phase4_max_mem_free(jg));
        continue;
      }
      auto& slot_heap = slot_heaps[jg];
      const std::uint32_t* slot_version = s.slot_versions.data() + jg * n_nodes;
      NodeScratch* best = nullptr;
      std::uint32_t best_index = 0;
      deferred.clear();
      while (!slot_heap.empty()) {
        std::pop_heap(slot_heap.begin(), slot_heap.end(), slot_after);
        const SlotKey e = slot_heap.back();
        slot_heap.pop_back();
        if (e.version != slot_version[e.index]) continue;  // stale — drop for good
        NodeScratch& ns = nodes[e.index];
        if (ns.mem_free + kEps < job.memory.get()) {
          deferred.push_back(e);  // still valid; re-admit after the pick
          continue;
        }
        best = &ns;
        best_index = e.index;
        break;
      }
      for (const SlotKey& e : deferred) {
        slot_heap.push_back(e);
        std::push_heap(slot_heap.begin(), slot_heap.end(), slot_after);
      }
      if (best == nullptr) {  // unreachable unless the group's node set is empty
        ++stats.jobs_waiting;
        audit_job("reject", job, jg, -1, 0.0);
        continue;
      }
      NodeScratch::Resident r;
      r.is_job = true;
      r.index = ji;
      r.target = job.target.get();
      r.cap = job.max_speed.get();
      r.urgency = job.urgency;
      r.memory = job.memory.get();
      const bool protected_near_done =
          job.remaining.get() <= job.max_speed.get() * config.protect_completion_horizon_s;
      r.evictable = job.movable && !protected_near_done;
      r.seq = next_seq++;
      best->add_resident(r);
      // The placement changed this node's headroom (and memory): retire
      // its live entry in every group heap holding it and push fresh ones.
      // mem_heaps self-heal on the next query (a stale top refreshes in
      // place).
      for (std::size_t g = 0; g < n_groups; ++g) {
        if (!eligible(g, best_index)) continue;
        std::uint32_t& version = s.slot_versions[g * n_nodes + best_index];
        ++version;
        slot_heaps[g].push_back({best->target_headroom(), best_index, version});
        std::push_heap(slot_heaps[g].begin(), slot_heaps[g].end(), slot_after);
      }
      // Landing back on its own node is not a migration (plan diff is a
      // plain resize there).
      if (was_running && best->id != job.current_node) ++stats.jobs_migrated;
      audit_job(!was_running ? "place" : (best->id != job.current_node ? "migrate" : "keep"),
                job, jg, static_cast<int>(best->id.get()), best->target_headroom());
    }
  }

  {
    const obs::Span span(obs, obs::SpanKind::kSolveFill, now);
    // ---- Phase 5: per-node CPU distribution --------------------------------
    // Instance targets: split each app's target equally across its placed
    // instances (kept_nodes tracks exactly the placed set after phase 3).
    s.placed_instances.assign(problem.apps.size(), 0);
    for (const auto& as : app_scratch) {
      s.placed_instances[as.index] = static_cast<int>(as.kept_nodes.size());
    }
    for (auto& ns : nodes) {
      for (auto& r : ns.residents) {
        if (!r.is_job) {
          const int n = std::max(s.placed_instances[r.index], 1);
          const double target = problem.apps[r.index].target.get() / static_cast<double>(n);
          ns.target_sum += target - r.target;
          r.target = target;
        }
      }
      waterfill_node(ns, s.fill_a, s.fill_b);
    }

    // Instance shortfall fixup: instances squeezed on crowded nodes leave
    // their app short of its target even when sibling instances sit next
    // to idle CPU. Raise sibling shares (never beyond the per-instance
    // cap) until the target is met or slack runs out. A single sweep
    // collects each app's granted total and its instance locations (node
    // order), so the fixup touches only the app's own instances instead
    // of rescanning every resident of every node per app.
    s.app_granted.assign(problem.apps.size(), 0.0);
    const auto app_sites = first_n(s.app_sites, problem.apps.size());
    for (auto& sites : app_sites) sites.clear();
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
      for (std::size_t p = 0; p < nodes[ni].residents.size(); ++p) {
        const auto& r = nodes[ni].residents[p];
        if (r.is_job) continue;
        s.app_granted[r.index] += r.grant;
        app_sites[r.index].emplace_back(ni, p);
      }
    }
    for (std::size_t ai = 0; ai < problem.apps.size(); ++ai) {
      double shortfall = problem.apps[ai].target.get() - s.app_granted[ai];
      if (shortfall <= kEps) continue;
      for (const auto& [ni, p] : app_sites[ai]) {
        if (shortfall <= kEps) break;
        NodeScratch& ns = nodes[ni];
        const double leftover = ns.cpu_cap - ns.granted_sum;
        if (leftover <= kEps) continue;
        NodeScratch::Resident& r = ns.residents[p];
        const double add = std::min({leftover, shortfall, r.cap - r.grant});
        if (add > kEps) {
          r.grant += add;
          ns.granted_sum += add;
          shortfall -= add;
        }
      }
    }

    if (config.work_conserving) {
      for (auto& ns : nodes) spread_leftover_to_jobs(ns, s.fill_a);
    }

    // ---- Phase 5.5: starvation rescue --------------------------------------
    // A running job kept in place for stability can end up with a zero CPU
    // grant when a collocated instance's target consumes the whole node.
    // Left alone it would hold its memory slot forever without progressing.
    // Relocate it to a node with CPU leftover and a free memory slot, else
    // suspend it (dropping it from the plan) so a later cycle resumes it
    // where it can actually run. Starved residents are handled in insertion
    // (seq) order, matching the seed's positional scan.
    for (auto& ns : nodes) {
      for (;;) {
        std::size_t pos = kNone;
        for (std::size_t p = 0; p < ns.residents.size(); ++p) {
          const NodeScratch::Resident& r = ns.residents[p];
          const bool starved = r.is_job && r.grant <= 1.0 &&
                               problem.jobs[r.index].movable &&
                               problem.jobs[r.index].remaining.get() > 0.0;
          if (starved && (pos == kNone || r.seq < ns.residents[pos].seq)) pos = p;
        }
        if (pos == kNone) break;
        const SolverJob& job = problem.jobs[ns.residents[pos].index];
        const std::size_t jg = s.job_group[ns.residents[pos].index];
        // Find a compatible destination with spare CPU and memory.
        NodeScratch* dest = nullptr;
        double best_leftover = 1.0;  // require strictly useful CPU
        for (std::size_t ci = 0; ci < n_nodes; ++ci) {
          NodeScratch& cand = nodes[ci];
          if (&cand == &ns) continue;
          if (!eligible(jg, ci)) continue;
          if (cand.mem_free + kEps < job.memory.get()) continue;
          const double leftover = cand.cpu_cap - cand.granted_sum;
          if (leftover > best_leftover) {
            best_leftover = leftover;
            dest = &cand;
          }
        }
        NodeScratch::Resident moved = ns.take_resident(pos);
        ++stats.jobs_evicted;
        if (dest != nullptr && config.allow_migration) {
          moved.grant = std::min(best_leftover, moved.cap);
          moved.seq = next_seq++;
          dest->add_resident(moved);
          dest->granted_sum += moved.grant;
          if (dest->id != job.current_node) ++stats.jobs_migrated;
          audit_job("relocate", job, jg, static_cast<int>(dest->id.get()),
                    dest->cpu_cap - dest->granted_sum);
        } else {
          ++stats.jobs_waiting;  // suspended by the executor
          audit_job("reject", job, jg, -1, 0.0);
        }
      }
    }
  }

  // ---- Emit the plan ---------------------------------------------------------
  // Jobs come out in problem order, which is live (submission) order: job
  // id order unless a cross-domain adoption arrived out of turn, so the
  // contract sort below is usually a linear in-order check. Instances
  // (at most one per node and app) come out in node order.
  {
    const obs::Span span(obs, obs::SpanKind::kSolveEmit, now);
    s.job_node.assign(problem.jobs.size(), kNoSlot);
    s.job_grant.resize(problem.jobs.size());
    for (std::size_t ni = 0; ni < n_nodes; ++ni) {
      const NodeScratch& ns = nodes[ni];
      for (const auto& r : ns.residents) {
        if (r.is_job) {
          s.job_node[r.index] = static_cast<std::uint32_t>(ni);
          s.job_grant[r.index] = r.grant;
          ++stats.jobs_placed;
        } else {
          const SolverApp& app = problem.apps[r.index];
          result.plan.instances.push_back({app.id, ns.id, util::CpuMhz{r.grant}});
        }
      }
    }
    result.plan.jobs.reserve(static_cast<std::size_t>(stats.jobs_placed));
    for (std::size_t ji = 0; ji < problem.jobs.size(); ++ji) {
      if (s.job_node[ji] == kNoSlot) continue;
      result.plan.jobs.push_back(
          {problem.jobs[ji].id, nodes[s.job_node[ji]].id, util::CpuMhz{s.job_grant[ji]}});
    }
    stats.instances_total = static_cast<int>(result.plan.instances.size());
    result.plan.sort();  // the plan-order contract (cluster/placement.hpp)
  }
  return result;
}

}  // namespace heteroplace::core
