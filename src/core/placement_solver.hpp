#pragma once

// Utility-driven incremental placement solver.
//
// Turns the equalizer's continuous CPU targets into a discrete placement
// under node CPU and memory constraints. Design goals, in order:
//   1. feasibility — never over-commit memory or CPU;
//   2. stability — keep currently-placed VMs where they are unless the
//      utility targets justify churn (suspend/resume/migrate are costly);
//   3. fidelity to targets — per-node CPU shares approach the equalized
//      targets, with work-conserving redistribution of slack.
//
// The algorithm is a deterministic multi-phase heuristic in the spirit of
// the placement middleware the paper builds on: reserve what is pinned,
// size and place web-instance clusters (evicting the least-urgent jobs
// when a growing transactional workload reclaims memory), pack waiting
// jobs by urgency, then water-fill each node's CPU.

#include "cluster/placement.hpp"
#include "core/placement_problem.hpp"
#include "obs/audit.hpp"
#include "obs/context.hpp"

namespace heteroplace::core {

/// Diagnostics emitted alongside the plan (for metrics and tests).
struct SolverStats {
  int jobs_placed{0};
  int jobs_waiting{0};    // memory-constrained, left pending/suspended
  int jobs_evicted{0};    // running jobs displaced (migrated or suspended)
  int jobs_migrated{0};   // evicted jobs that found another node
  int instances_total{0};
  int instances_added{0};
  int instances_dropped{0};
};

struct SolverResult {
  cluster::PlacementPlan plan;
  SolverStats stats;
};

/// `obs.audit` (optional) receives one structured record per placement
/// decision — job place/keep/reject/migrate, instance place, evictions
/// with the displaced victim and its urgency slack — stamped with the
/// decision-time headroom of the chosen node. `obs.profiler` (optional)
/// times the solve/* rows: pin (phases 1–2), grow (3), pack (4), fill
/// (5, shortfall, spread, 5.5) and emit; they are profiler-only, so no
/// trace event changes. `now` is the sim time the records carry; the
/// default context observes nothing.
///
/// The working set lives in a per-thread scratch that is cleared, not
/// freed, between calls (placement_solver.cpp); the result depends only
/// on the arguments.
[[nodiscard]] SolverResult solve_placement(const PlacementProblem& problem,
                                           const SolverConfig& config = {},
                                           const obs::ObsContext& obs = {}, double now = 0.0);

}  // namespace heteroplace::core
