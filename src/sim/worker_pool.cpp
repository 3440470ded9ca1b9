#include "sim/worker_pool.hpp"

namespace heteroplace::sim {

WorkerPool::WorkerPool(unsigned threads) {
  const unsigned spawn = threads > 1 ? threads - 1 : 0;
  workers_.reserve(spawn);
  for (unsigned i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::drain() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_items_) return;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        (*job_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    // A skipped item still counts toward the barrier.
    std::lock_guard<std::mutex> lk(mu_);
    if (++completed_ == n_items_) cv_done_.notify_all();
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    // running_ gates a late wake-up: once run() returned, its epoch is
    // closed and a stale drain would race the next run's state reset.
    cv_start_.wait(lk, [&] { return shutdown_ || (epoch_ != seen && running_); });
    if (shutdown_) return;
    seen = epoch_;
    ++active_;
    lk.unlock();
    drain();
    lk.lock();
    if (--active_ == 0) cv_done_.notify_all();
  }
}

void WorkerPool::run(std::size_t n_items, const std::function<void(std::size_t)>& fn) {
  if (n_items == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    n_items_ = n_items;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    completed_ = 0;
    error_ = nullptr;
    running_ = true;
    ++epoch_;
  }
  cv_start_.notify_all();
  drain();  // the caller participates
  std::unique_lock<std::mutex> lk(mu_);
  // Wait for completion AND for every pool thread to leave drain():
  // a straggler still inside drain() must not observe the next run's
  // reset of next_/job_.
  cv_done_.wait(lk, [&] { return completed_ == n_items_ && active_ == 0; });
  running_ = false;
  job_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace heteroplace::sim
