#include "workload/transactional.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace heteroplace::workload {

void DemandTrace::materialize() {
  auto owned = std::make_shared<std::vector<Point>>();
  if (points_) {
    owned->reserve(points_->size());
    for (const Point& p : *points_) owned->push_back({p.from, p.rate * scale_});
  }
  points_ = std::move(owned);
  scale_ = 1.0;
}

void DemandTrace::add(util::Seconds from, double rate) {
  if (rate < 0.0) throw std::invalid_argument("DemandTrace: negative rate");
  if (points_ && !points_->empty() && from.get() < points_->back().from.get()) {
    throw std::invalid_argument("DemandTrace: breakpoints must be nondecreasing in time");
  }
  if (!points_ || points_.use_count() > 1 || scale_ != 1.0) materialize();
  points_->push_back({from, rate});
}

double DemandTrace::rate_at(util::Seconds t) const { return window_at(t).rate; }

DemandTrace::RateWindow DemandTrace::window_at(util::Seconds t) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (empty()) return {0.0, -kInf, kInf};
  const std::vector<Point>& pts = *points_;
  // At or before the first breakpoint the first point's rate holds. The
  // window closes at front().from: with duplicate breakpoints there, the
  // rate just after it is the last duplicate's.
  if (t.get() <= pts.front().from.get()) {
    return {pts.front().rate * scale_, -kInf, pts.front().from.get()};
  }
  // Last point with from <= t.
  auto it = std::upper_bound(
      pts.begin(), pts.end(), t.get(),
      [](double lhs, const Point& p) { return lhs < p.from.get(); });
  const double hi = it == pts.end() ? kInf : it->from.get();
  return {std::prev(it)->rate * scale_, std::prev(it)->from.get(), hi};
}

std::vector<util::Seconds> DemandTrace::change_times() const {
  std::vector<util::Seconds> out;
  if (!points_) return out;
  out.reserve(points_->size());
  for (const auto& p : *points_) out.push_back(p.from);
  return out;
}

DemandTrace DemandTrace::scaled(double factor) const {
  if (factor < 0.0) throw std::invalid_argument("DemandTrace::scaled: negative factor");
  DemandTrace out;
  if (!points_) return out;
  if (scale_ != 1.0) {
    out.points_ = points_;
    out.scale_ = scale_;
    out.materialize();
  } else {
    out.points_ = points_;  // O(1): alias the breakpoints
  }
  out.scale_ = factor;
  return out;
}

}  // namespace heteroplace::workload
