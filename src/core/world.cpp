#include "core/world.hpp"

#include <algorithm>

namespace heteroplace::core {

void World::add_app(workload::TxApp app) {
  const util::AppId id = app.id();
  if (app_index_.count(id) > 0) throw std::invalid_argument("World::add_app: duplicate app id");
  app_index_.emplace(id, apps_.size());
  apps_.push_back(std::move(app));
  ++apps_epoch_;
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
  return apps_[it->second];
}

workload::Job& World::submit_job(workload::JobSpec spec) {
  const util::JobId id = spec.id;
  if (jobs_.count(id) > 0) throw std::invalid_argument("World::submit_job: duplicate job id");
  auto [it, _] = jobs_.emplace(id, workload::Job{std::move(spec)});
  job_order_.push_back(id);
  return it->second;
}

workload::Job& World::adopt_job(workload::Job job) {
  const util::JobId id = job.id();
  if (jobs_.count(id) > 0) throw std::invalid_argument("World::adopt_job: duplicate job id");
  auto [it, _] = jobs_.emplace(id, std::move(job));
  job_order_.push_back(id);
  return it->second;
}

workload::Job World::extract_job(util::JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("World::extract_job: unknown job id");
  workload::Job out = std::move(it->second);
  jobs_.erase(it);
  job_order_.erase(std::remove(job_order_.begin(), job_order_.end(), id), job_order_.end());
  return out;
}

workload::Job& World::job(util::JobId id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("World::job: unknown job id");
  return it->second;
}

const workload::Job& World::job(util::JobId id) const {
  return const_cast<World*>(this)->job(id);
}

std::vector<workload::Job*> World::active_jobs() {
  std::vector<workload::Job*> out;
  for (util::JobId id : job_order_) {
    workload::Job& j = jobs_.at(id);
    if (j.phase() != workload::JobPhase::kCompleted && !j.held()) out.push_back(&j);
  }
  return out;
}

std::vector<const workload::Job*> World::active_jobs() const {
  std::vector<const workload::Job*> out;
  for (util::JobId id : job_order_) {
    const workload::Job& j = jobs_.at(id);
    if (j.phase() != workload::JobPhase::kCompleted && !j.held()) out.push_back(&j);
  }
  return out;
}

std::size_t World::completed_count() const {
  std::size_t n = 0;
  for (const auto& [_, j] : jobs_) {
    if (j.phase() == workload::JobPhase::kCompleted) ++n;
  }
  return n;
}

}  // namespace heteroplace::core
