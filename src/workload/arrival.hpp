#pragma once

// Arrival processes for job submission.
//
// The paper's evaluation submits 800 identical jobs with exponentially
// distributed inter-arrival times (mean 260 s) and "slightly decreases"
// the submission rate near the end — modeled here as a phased Poisson
// process (each phase has its own mean inter-arrival time).

#include <memory>
#include <optional>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace heteroplace::workload {

/// Abstract arrival process: a stream of absolute arrival times.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Next arrival strictly after the previous one; nullopt when exhausted.
  [[nodiscard]] virtual std::optional<util::Seconds> next(util::Rng& rng) = 0;
};

/// Poisson arrivals: exponential inter-arrival with a fixed mean, starting
/// at `start`, emitting at most `count` arrivals (count < 0 = unbounded).
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(util::Seconds start, util::Seconds mean_gap, long count)
      : t_(start), mean_gap_(mean_gap), remaining_(count) {}

  [[nodiscard]] std::optional<util::Seconds> next(util::Rng& rng) override;

 private:
  util::Seconds t_;
  util::Seconds mean_gap_;
  long remaining_;
};

/// Piecewise Poisson: a sequence of phases, each with its own mean gap and
/// count. Phases run back to back.
class PhasedPoissonArrivals final : public ArrivalProcess {
 public:
  struct Phase {
    util::Seconds mean_gap;
    long count;  // arrivals in this phase
  };

  PhasedPoissonArrivals(util::Seconds start, std::vector<Phase> phases)
      : t_(start), phases_(std::move(phases)) {}

  [[nodiscard]] std::optional<util::Seconds> next(util::Rng& rng) override;

 private:
  util::Seconds t_;
  std::vector<Phase> phases_;
  std::size_t phase_{0};
  long emitted_in_phase_{0};
};

/// Deterministic arrivals at fixed intervals (useful in tests).
class UniformArrivals final : public ArrivalProcess {
 public:
  UniformArrivals(util::Seconds start, util::Seconds gap, long count)
      : t_(start), gap_(gap), remaining_(count) {}

  [[nodiscard]] std::optional<util::Seconds> next(util::Rng& rng) override;

 private:
  util::Seconds t_;
  util::Seconds gap_;
  long remaining_;
};

}  // namespace heteroplace::workload
