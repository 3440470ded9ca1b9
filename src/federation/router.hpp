#pragma once

// Cross-domain workload routing.
//
// A federated cluster receives one workload stream (job arrivals plus
// transactional demand) but runs several independent controller domains.
// The DomainRouter decides, per arriving job, which domain hosts it, and,
// per transactional app, how the app's offered load is split into the
// per-domain demand traces the local controllers see.
//
// Routers are deterministic: given the same status sequence they make the
// same decisions, so federated experiments replay exactly.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/machine_class.hpp"
#include "util/units.hpp"
#include "workload/job.hpp"
#include "workload/transactional.hpp"

namespace heteroplace::federation {

/// Read-only per-domain signals routers decide on. `weight` is the
/// operator-set health multiplier (1 = healthy, 0 = drained); routers see
/// capacity both raw and weight-scaled.
struct DomainStatus {
  std::size_t index{0};
  double weight{1.0};
  util::CpuMhz capacity{0.0};      // raw cluster CPU (parked nodes included)
  /// Placeable capacity × weight: parked/transitioning nodes excluded
  /// and P-state scaling applied, so a consolidated domain does not
  /// masquerade as headroom. Equals capacity × weight at full power.
  util::CpuMhz effective{0.0};
  /// offered_load ÷ effective, computed once per fill so an unconstrained
  /// least-loaded route reads it instead of dividing per arrival (and
  /// finds it next to `effective`). Meaningless (inf or NaN) when
  /// effective is 0; routers skip those domains.
  double load_ratio{0.0};
  util::CpuMhz offered_load{0.0};  // active-job speed caps + tx offered CPU
  std::size_t active_jobs{0};
  /// Machine-class table and per-class weight-scaled placeable CPU
  /// (parallel vectors indexed by ClassId). Both empty when the domain's
  /// cluster has no explicit classes — the scalar case pays nothing and
  /// routers fall back to `effective` unchanged.
  std::vector<cluster::MachineClass> classes;
  std::vector<util::CpuMhz> class_headroom;

  /// Weight-scaled placeable CPU on machines admitted by `c`. Equals
  /// `effective` for an empty constraint or a scalar domain, so
  /// unconstrained routing is bit-identical to before classes existed.
  [[nodiscard]] util::CpuMhz effective_for(const cluster::ConstraintSet& c) const;
};

class DomainRouter {
 public:
  virtual ~DomainRouter() = default;

  /// Pick the domain that hosts `spec`. `domains` is never empty; the
  /// returned index must be < domains.size().
  [[nodiscard]] virtual std::size_t route_job(const workload::JobSpec& spec,
                                              const std::vector<DomainStatus>& domains) = 0;

  /// Per-domain fractions of a transactional app's demand. Entries must
  /// be nonnegative; the federation normalizes them to sum to 1 (an
  /// all-zero vector falls back to an even split).
  [[nodiscard]] virtual std::vector<double> demand_shares(
      const workload::TxAppSpec& app, const std::vector<DomainStatus>& domains) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Jobs go to the domain with the most effective headroom relative to its
/// capacity (lowest offered_load / effective); transactional demand is
/// split proportionally to effective capacity. Ties break toward the
/// lowest index.
class LeastLoadedRouter final : public DomainRouter {
 public:
  /// Unconstrained jobs compare the precomputed load_ratio; constrained
  /// ones divide by effective_for. Same answer as reference_route.
  [[nodiscard]] std::size_t route_job(const workload::JobSpec& spec,
                                      const std::vector<DomainStatus>& domains) override;
  /// The plain scan: offered_load ÷ effective_for(constraint) per domain,
  /// skipping domains with no eligible capacity. The oracle route_job is
  /// checked against.
  [[nodiscard]] static std::size_t reference_route(const workload::JobSpec& spec,
                                                   const std::vector<DomainStatus>& domains);
  [[nodiscard]] std::vector<double> demand_shares(
      const workload::TxAppSpec& app, const std::vector<DomainStatus>& domains) override;
  [[nodiscard]] std::string name() const override { return "least-loaded"; }
};

/// Smooth weighted round-robin: over any window, each domain receives a
/// job count proportional to its effective capacity, without consulting
/// load feedback. Transactional demand is split proportionally to
/// effective capacity.
class CapacityWeightedRouter final : public DomainRouter {
 public:
  [[nodiscard]] std::size_t route_job(const workload::JobSpec& spec,
                                      const std::vector<DomainStatus>& domains) override;
  [[nodiscard]] std::vector<double> demand_shares(
      const workload::TxAppSpec& app, const std::vector<DomainStatus>& domains) override;
  [[nodiscard]] std::string name() const override { return "capacity-weighted"; }

 private:
  std::vector<double> credit_;  // accumulated fractional entitlement
};

/// Sticky affinity: a job is pinned to a domain by a stable hash of its
/// id, and an app's demand goes entirely to its home domain (id modulo
/// domain count) — data-gravity placement. Drained domains (weight 0)
/// fall through to the next healthy index.
class StickyRouter final : public DomainRouter {
 public:
  [[nodiscard]] std::size_t route_job(const workload::JobSpec& spec,
                                      const std::vector<DomainStatus>& domains) override;
  [[nodiscard]] std::vector<double> demand_shares(
      const workload::TxAppSpec& app, const std::vector<DomainStatus>& domains) override;
  [[nodiscard]] std::string name() const override { return "sticky"; }
};

/// Factory by config name: "least-loaded", "capacity-weighted", "sticky".
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<DomainRouter> make_router(const std::string& name);

}  // namespace heteroplace::federation
