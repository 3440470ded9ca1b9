#pragma once

// Transactional (clustered web) applications.
//
// A transactional app serves an open stream of requests at rate λ(t)
// (requests/s), each consuming a mean service demand d (MHz·s of CPU).
// It runs as a cluster of web-instance VMs — at most one instance per
// node — and its response time depends on the *total* CPU the controller
// grants across instances. SLA: mean response time below a goal T.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/machine_class.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace heteroplace::workload {

/// Piecewise-constant request-rate trace λ(t). Points are (from-time,
/// rate); the rate holds until the next point. Rate before the first
/// point is the first point's rate (so a single point means "constant").
///
/// Scaled views share their breakpoints: scaled() on an unscaled trace
/// is O(1) — it aliases the point vector and records the factor, and
/// rate_at applies it on read. The federation re-splits every app's
/// demand across domains whenever a weight changes; with week-long
/// traces (thousands of breakpoints) the per-resplit deep copies were
/// the dominant cost of a weight event. Rates read bit-identically to a
/// materialized copy: lookup returns stored_rate * factor, exactly the
/// product the eager copy stored (and factor 1 is exact by IEEE-754).
class DemandTrace {
 public:
  DemandTrace() = default;
  /// Constant-rate convenience.
  explicit DemandTrace(double rate) { add(util::Seconds{0.0}, rate); }

  /// Add a (time, rate) breakpoint; times must be nondecreasing.
  /// Copy-on-write: a trace sharing breakpoints with scaled siblings
  /// materializes its own copy first.
  void add(util::Seconds from, double rate);

  [[nodiscard]] double rate_at(util::Seconds t) const;
  [[nodiscard]] bool empty() const { return !points_ || points_->empty(); }

  /// rate_at(t) together with the span around t on which it holds:
  /// lo <= t <= hi, and rate_at(t') == rate for every t' in the open
  /// interval (lo, hi). lo / hi are -inf / +inf past the first / last
  /// breakpoint. Lets a caller cache a rate until the query time leaves
  /// (lo, hi) instead of searching the breakpoints on every read.
  struct RateWindow {
    double rate;
    double lo;
    double hi;
  };
  [[nodiscard]] RateWindow window_at(util::Seconds t) const;

  /// Times at which the rate changes (for scheduling re-evaluation).
  [[nodiscard]] std::vector<util::Seconds> change_times() const;

  /// View of this trace with every rate multiplied by `factor` (>= 0).
  /// The federation layer uses this to split one offered-load stream
  /// across controller domains; factor 1 reproduces the trace exactly.
  /// O(1) on an unscaled trace. Rescaling an already-scaled view first
  /// folds the old factor into a materialized copy, so the arithmetic
  /// stays (r·s1)·s2 — bit-identical to scaling an eager copy — rather
  /// than r·(s1·s2).
  [[nodiscard]] DemandTrace scaled(double factor) const;

 private:
  struct Point {
    util::Seconds from;
    double rate;
  };
  /// Immutable once shared (use_count > 1): mutation goes through
  /// materialize() so scaled siblings never observe a change.
  std::shared_ptr<std::vector<Point>> points_;
  double scale_{1.0};

  /// Replace points_ with an owned copy holding rate * scale_, reset
  /// scale_ to 1.
  void materialize();
};

/// Static description of a transactional application and its SLA.
struct TxAppSpec {
  util::AppId id{};
  std::string name;

  // --- SLA and performance model -----------------------------------------
  util::Seconds rt_goal{1.0};        // T: mean response-time goal
  double service_demand{600.0};      // d: MHz·s of CPU per request
  double max_utilization{0.9};       // flow-control cap on utilization
  double throughput_exponent{1.0};   // κ: utility penalty for shed load
  double utility_cap{0.9};           // u_max: best achievable utility
  double importance{1.0};            // utility weight (service classes)

  // --- instance sizing -----------------------------------------------------
  util::MemMb instance_memory{1024.0};
  int min_instances{1};
  int max_instances{64};

  /// CPU the app can productively use per instance (an instance cannot
  /// exceed its node's capacity; this caps it lower if desired).
  util::CpuMhz max_cpu_per_instance{1.0e9};

  /// Machine constraints applied to every web instance of this app.
  cluster::ConstraintSet constraint{};
};

/// A transactional app: spec plus its offered-load trace.
class TxApp {
 public:
  TxApp(TxAppSpec spec, DemandTrace trace) : spec_(std::move(spec)), trace_(std::move(trace)) {}

  [[nodiscard]] const TxAppSpec& spec() const { return spec_; }
  [[nodiscard]] util::AppId id() const { return spec_.id; }
  [[nodiscard]] const DemandTrace& trace() const { return trace_; }
  /// Replace the offered-load trace (federation demand re-splits).
  void set_trace(DemandTrace trace) { trace_ = std::move(trace); }
  [[nodiscard]] double arrival_rate(util::Seconds t) const { return trace_.rate_at(t); }

  /// Offered CPU load λ(t)·d — the capacity that would be consumed if all
  /// requests were admitted with zero queueing slack.
  [[nodiscard]] util::CpuMhz offered_load(util::Seconds t) const {
    return util::CpuMhz{arrival_rate(t) * spec_.service_demand};
  }

 private:
  TxAppSpec spec_;
  DemandTrace trace_;
};

}  // namespace heteroplace::workload
