#pragma once

// Pluggable migration policies: who moves, and where to.
//
// A policy turns a federation status snapshot into a list of migration
// requests; the MigrationManager then executes them (suspend →
// checkpoint → transfer → resume) and enforces eligibility. Policies are
// deterministic — same snapshot, same proposals — so migrated runs
// replay exactly.
//
//   drain      — weight-0 domains evacuate every job they still host
//                (brownout/maintenance: the MORPHOSYS-style reshape).
//   rebalance  — threshold-triggered moves from domains loaded above a
//                high watermark to domains below a low watermark.
//   drain+rebalance — drain first, rebalance with the leftover budget.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "federation/federation.hpp"

namespace heteroplace::migration {

struct MigrationRequest {
  util::JobId job{};
  std::size_t from{0};
  std::size_t to{0};
};

/// How a policy orders movable jobs when it cannot move them all.
enum class SelectionMode {
  /// Active-job list order — the pre-cost-aware behavior, preserved
  /// bit-identical for equivalence pins.
  kFifo,
  /// Ortigoza-style cost ranking: cheapest image per remaining second of
  /// work moves first, ties broken toward the least SLA slack, then the
  /// lower job id. Pending jobs (no image) are free and always lead.
  kCost,
};

/// "fifo" | "cost"; throws std::invalid_argument otherwise.
[[nodiscard]] SelectionMode selection_from_string(const std::string& name);

/// Tuning knobs shared by the built-in policies.
struct PolicyConfig {
  /// Rebalance source threshold: offered_load / effective above this
  /// marks a domain overloaded.
  double high_watermark{1.1};
  /// Rebalance destination threshold: only domains below this relative
  /// load receive moves.
  double low_watermark{0.8};
  /// Movable-job ordering within a source domain.
  SelectionMode selection{SelectionMode::kFifo};
};

class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;

  /// Propose up to `budget` moves for the given snapshot. Must not
  /// propose a destination with weight 0 or no effective capacity —
  /// evacuated work must never bounce back into a drained domain.
  [[nodiscard]] virtual std::vector<MigrationRequest> propose(
      const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
      util::Seconds now, int budget) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

class DrainPolicy final : public MigrationPolicy {
 public:
  explicit DrainPolicy(PolicyConfig config = {}) : config_(config) {}
  [[nodiscard]] std::vector<MigrationRequest> propose(
      const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
      util::Seconds now, int budget) override;
  [[nodiscard]] std::string name() const override { return "drain"; }

 private:
  PolicyConfig config_;
};

class RebalancePolicy final : public MigrationPolicy {
 public:
  explicit RebalancePolicy(PolicyConfig config = {}) : config_(config) {}
  [[nodiscard]] std::vector<MigrationRequest> propose(
      const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
      util::Seconds now, int budget) override;
  [[nodiscard]] std::string name() const override { return "rebalance"; }

 private:
  PolicyConfig config_;
};

/// Runs `first` then `second`, splitting the per-tick budget.
class CompositePolicy final : public MigrationPolicy {
 public:
  CompositePolicy(std::unique_ptr<MigrationPolicy> first, std::unique_ptr<MigrationPolicy> second)
      : first_(std::move(first)), second_(std::move(second)) {}
  [[nodiscard]] std::vector<MigrationRequest> propose(
      const federation::Federation& fed, const std::vector<federation::DomainStatus>& status,
      util::Seconds now, int budget) override;
  [[nodiscard]] std::string name() const override {
    return first_->name() + "+" + second_->name();
  }

 private:
  std::unique_ptr<MigrationPolicy> first_;
  std::unique_ptr<MigrationPolicy> second_;
};

/// Factory by config name: "drain", "rebalance", "drain+rebalance".
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<MigrationPolicy> make_migration_policy(const std::string& name,
                                                                     PolicyConfig config = {});

}  // namespace heteroplace::migration
