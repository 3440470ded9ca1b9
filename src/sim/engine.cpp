#include "sim/engine.hpp"

#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/engine_observer.hpp"
#include "sim/worker_pool.hpp"
#include "util/log.hpp"

namespace heteroplace::sim {

namespace {
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

int priority_class_index(int priority) {
  switch (static_cast<EventPriority>(priority)) {
    case EventPriority::kWorkloadArrival:
      return 0;
    case EventPriority::kFault:
      return 1;
    case EventPriority::kStateTransition:
      return 2;
    case EventPriority::kController:
      return 3;
    case EventPriority::kMigration:
      return 4;
    case EventPriority::kPower:
      return 5;
    case EventPriority::kSampling:
      return 6;
  }
  return 7;
}

const char* priority_class_name(int class_index) {
  switch (class_index) {
    case 0:
      return "arrival";
    case 1:
      return "fault";
    case 2:
      return "transition";
    case 3:
      return "controller";
    case 4:
      return "migration";
    case 5:
      return "power";
    case 6:
      return "sampling";
    default:
      return "other";
  }
}

Engine::Engine() = default;
Engine::~Engine() = default;

EventHandle Engine::schedule_at(util::Seconds t, EventPriority priority, ShardId shard,
                                EventCallback cb) {
  if (t.get() < now_) {
    throw std::invalid_argument("Engine::schedule_at: time " + std::to_string(t.get()) +
                                " is in the past (now=" + std::to_string(now_) + ")");
  }
  return queue_.push(t.get(), priority, std::move(cb), shard);
}

void Engine::set_threads(unsigned n) {
  if (n == 0) n = 1;
  threads_ = n;
  if (n <= 1) {
    pool_.reset();
    return;
  }
  if (!pool_ || pool_->threads() != n) pool_ = std::make_unique<WorkerPool>(n);
}

bool Engine::step() {
  if (queue_.empty()) return false;
  int priority = 0;
  if (observer_ != nullptr || timing_enabled_) priority = queue_.top_key().priority_bits;
  auto [time, callback] = queue_.pop();
  assert(time >= now_);
  now_ = time;
  ++executed_;
  dispatch_serial(callback, time, priority);
  return true;
}

void Engine::dispatch_serial(const EventCallback& callback, double time, int priority) {
  util::set_log_context(time, util::kLogNoShard);
  if (observer_ != nullptr) observer_->on_serial_event(time, priority);
  if (!timing_enabled_) {
    if (callback) callback();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (callback) callback();
  const std::uint64_t ns = elapsed_ns(t0);
  const auto c = static_cast<std::size_t>(priority_class_index(priority));
  ++timing_.serial_events;
  timing_.serial_ns += ns;
  ++timing_.serial_class_events[c];
  timing_.serial_class_ns[c] += ns;
}

bool Engine::parallel_step(double bound) {
  if (queue_.empty()) return false;
  if (queue_.next_time() > bound) return false;
  const EventQueue::TopKey key = queue_.top_key();
  if (key.shard == kNoShard) return step();

  const std::size_t n = queue_.pop_batch(batch_cbs_, batch_shards_);
  assert(n >= 1);
  assert(key.time >= now_);
  now_ = key.time;
  executed_ += n;
  if (n == 1) {
    // Single sharded event: pop_batch already released it serial-style.
    dispatch_serial(batch_cbs_[0], key.time, key.priority_bits);
    return true;
  }

  // Group items by shard in first-seen (= pop) order; within a group
  // the pop order is preserved, so same-shard events still execute in
  // the exact serial sequence.
  group_of_.clear();
  n_groups_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = group_of_.try_emplace(batch_shards_[i], n_groups_);
    if (inserted) {
      if (groups_.size() <= n_groups_) groups_.emplace_back();
      groups_[n_groups_].clear();
      ++n_groups_;
    }
    groups_[it->second].push_back(i);
  }

  ++parallel_batches_;
  batched_events_ += n;
  if (observer_ != nullptr) {
    observer_->on_batch_begin(key.time, key.priority_bits, n, n_groups_);
  }
  queue_.begin_parallel(key.time, key.priority_bits);
  const auto batch_t0 = timing_enabled_ ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
  const auto run_group = [this, time = key.time](std::size_t g) {
    for (const std::size_t item : groups_[g]) {
      queue_.bind_staging(item);
      util::set_log_context(time, batch_shards_[item]);
      if (observer_ != nullptr) observer_->on_batch_item_begin(item);
      try {
        if (batch_cbs_[item]) batch_cbs_[item]();
      } catch (...) {
        if (observer_ != nullptr) observer_->on_batch_item_end();
        util::clear_log_context();
        queue_.unbind_staging();
        throw;
      }
      if (observer_ != nullptr) observer_->on_batch_item_end();
      util::clear_log_context();
      queue_.unbind_staging();
    }
  };
  try {
    // One shard group has nothing to overlap: run it here rather than
    // wake every pool thread and wait for each to leave the work loop.
    if (n_groups_ == 1) {
      run_group(0);
    } else {
      pool_->run(n_groups_, run_group);
    }
  } catch (...) {
    queue_.cancel_parallel();
    throw;
  }
  if (timing_enabled_) timing_.batch_exec_ns += elapsed_ns(batch_t0);
  const auto barrier_t0 = timing_enabled_ ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
  queue_.end_parallel();
  if (timing_enabled_) timing_.merge_barrier_ns += elapsed_ns(barrier_t0);
  if (observer_ != nullptr) observer_->on_batch_end(key.time);
  return true;
}

void Engine::run() {
  stop_requested_.store(false, std::memory_order_relaxed);
  if (threads_ <= 1) {
    while (!stop_requested_.load(std::memory_order_relaxed) && step()) {
    }
    return;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (!stop_requested_.load(std::memory_order_relaxed) && parallel_step(kInf)) {
  }
}

void Engine::run_until(util::Seconds t_end) {
  stop_requested_.store(false, std::memory_order_relaxed);
  if (threads_ <= 1) {
    while (!stop_requested_.load(std::memory_order_relaxed) && !queue_.empty() &&
           queue_.next_time() <= t_end.get()) {
      step();
    }
  } else {
    while (!stop_requested_.load(std::memory_order_relaxed) && parallel_step(t_end.get())) {
    }
  }
  if (!stop_requested_.load(std::memory_order_relaxed) && now_ < t_end.get()) {
    now_ = t_end.get();
  }
}

}  // namespace heteroplace::sim
