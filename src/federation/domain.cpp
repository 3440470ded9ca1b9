#include "federation/domain.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace heteroplace::federation {

util::CpuMhz Domain::offered_cpu_load(util::Seconds now) const {
  if (tx_epoch_ != world_.apps_epoch() || !(tx_lo_ < now.get() && now.get() < tx_hi_)) {
    refresh_tx_loads(now);
  }
  double jobs = 0.0;
  for (const auto& [speed, count] : speed_hist_) {
    jobs += speed * static_cast<double>(count);
  }
  util::CpuMhz load{jobs};
  for (util::CpuMhz tx : tx_loads_) load += tx;
  return load;
}

void Domain::refresh_tx_loads(util::Seconds now) const {
  tx_loads_.clear();
  tx_lo_ = -std::numeric_limits<double>::infinity();
  tx_hi_ = std::numeric_limits<double>::infinity();
  for (const workload::TxApp& app : world_.apps()) {
    tx_loads_.push_back(app.offered_load(now));
    const workload::DemandTrace::RateWindow w = app.trace().window_at(now);
    tx_lo_ = std::max(tx_lo_, w.lo);
    tx_hi_ = std::min(tx_hi_, w.hi);
  }
  tx_epoch_ = world_.apps_epoch();
}

util::CpuMhz Domain::offered_cpu_load_recomputed(util::Seconds now) const {
  // Reference implementation (the seed's per-arrival rescan). Counts held
  // jobs too: they still occupy this world until the handoff detaches
  // them, matching when account_job_removed fires.
  util::CpuMhz load{0.0};
  for (util::JobId id : world_.job_order()) {
    const workload::Job& job = world_.job(id);
    if (job.phase() != workload::JobPhase::kCompleted) load += job.spec().max_speed;
  }
  for (const workload::TxApp& app : world_.apps()) {
    load += app.offered_load(now);
  }
  return load;
}

void Domain::account_job_added(util::CpuMhz max_speed) {
  ++active_jobs_;
  ++speed_hist_[max_speed.get()];
  note_change();
}

void Domain::account_job_removed(util::CpuMhz max_speed) {
  auto it = speed_hist_.find(max_speed.get());
  if (it == speed_hist_.end() || active_jobs_ <= 0) {
    throw std::logic_error("Domain::account_job_removed: aggregate underflow");
  }
  --active_jobs_;
  if (--it->second == 0) speed_hist_.erase(it);
  note_change();
}

}  // namespace heteroplace::federation
