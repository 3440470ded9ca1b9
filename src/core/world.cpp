#include "core/world.hpp"

#include <algorithm>
#include <string>

namespace heteroplace::core {

void World::add_app(workload::TxApp app) {
  const util::AppId id = app.id();
  if (app_index_.count(id) > 0) throw std::invalid_argument("World::add_app: duplicate app id");
  app_index_.emplace(id, apps_.size());
  apps_.push_back(std::move(app));
  ++apps_epoch_;
  if (change_counter_ != nullptr) ++*change_counter_;
}

const workload::TxApp& World::app(util::AppId id) const {
  auto it = app_index_.find(id);
  if (it == app_index_.end()) throw std::out_of_range("World::app: unknown app id");
  return apps_[it->second];
}

workload::TxApp& World::app_mut(util::AppId id) {
  auto it = app_index_.find(id);
  if (it == app_index_.end()) throw std::out_of_range("World::app_mut: unknown app id");
  ++apps_epoch_;
  if (change_counter_ != nullptr) ++*change_counter_;
  return apps_[it->second];
}

template <class Arg>
workload::Job& World::insert(util::JobId id, Arg&& arg, const char* who) {
  auto [it, fresh] = jobs_.try_emplace(id, std::forward<Arg>(arg));
  if (!fresh) throw std::invalid_argument(std::string(who) + ": duplicate job id");
  job_order_.push_back(id);
  Entry& e = it->second;
  if (e.job.phase() == workload::JobPhase::kCompleted) {
    ++completed_;
  } else {
    e.slot = live_.size();
    live_.push_back(&e);
  }
  return e.job;
}

workload::Job& World::submit_job(workload::JobSpec spec) {
  const util::JobId id = spec.id;
  return insert(id, std::move(spec), "World::submit_job");
}

workload::Job& World::adopt_job(workload::Job job) {
  const util::JobId id = job.id();
  return insert(id, std::move(job), "World::adopt_job");
}

void World::retire(Entry& e) {
  live_[e.slot] = nullptr;
  e.slot = kNotLive;
  ++tombstones_;
  if (2 * tombstones_ <= live_.size()) return;
  // Tombstones outnumber live slots: squeeze them out in order. Each
  // compaction is paid for by the retirements since the last one.
  std::size_t n = 0;
  for (Entry* p : live_) {
    if (p == nullptr) continue;
    p->slot = n;
    live_[n++] = p;
  }
  live_.resize(n);
  tombstones_ = 0;
}

workload::Job World::extract_job(util::JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("World::extract_job: unknown job id");
  if (it->second.slot == kNotLive) {
    --completed_;
  } else {
    retire(it->second);
  }
  workload::Job out = std::move(it->second.job);
  jobs_.erase(it);
  job_order_.erase(std::remove(job_order_.begin(), job_order_.end(), id), job_order_.end());
  return out;
}

workload::Job& World::complete_job(util::JobId id, util::Seconds now) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("World::complete_job: unknown job id");
  Entry& e = it->second;
  if (e.slot == kNotLive) throw std::logic_error("World::complete_job: job already completed");
  e.job.set_phase(now, workload::JobPhase::kCompleted);
  e.job.mark_completed(now);
  retire(e);
  ++completed_;
  return e.job;
}

workload::Job& World::job(util::JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("World::job: unknown job id");
  return it->second.job;
}

const workload::Job& World::job(util::JobId id) const {
  return const_cast<World*>(this)->job(id);
}

std::vector<workload::Job*> World::active_jobs() {
  std::vector<workload::Job*> out;
  out.reserve(live_.size() - tombstones_);
  for (Entry* e : live_) {
    if (e != nullptr && !e->job.held()) out.push_back(&e->job);
  }
  return out;
}

std::vector<const workload::Job*> World::active_jobs() const {
  std::vector<const workload::Job*> out;
  out.reserve(live_.size() - tombstones_);
  for (const Entry* e : live_) {
    if (e != nullptr && !e->job.held()) out.push_back(&e->job);
  }
  return out;
}

}  // namespace heteroplace::core
