#pragma once

// Fixed-size worker pool for the engine's parallel batch mode.
//
// run(n, fn) executes fn(0..n-1), each exactly once, across the pool's
// threads plus the calling thread, and blocks until every item has
// completed (or been skipped after a failure). Item-to-thread assignment
// is work-stealing via one atomic counter — nondeterministic, which is
// fine because the engine only hands it mutually independent items and
// merges their effects at a deterministic barrier afterwards.
//
// The first exception thrown by an item is captured and rethrown from
// run(); remaining unstarted items are skipped (the batch is already
// lost — fail fast rather than pile more work on a torn state).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace heteroplace::sim {

class WorkerPool {
 public:
  /// `threads` counts the calling thread: the pool spawns threads-1.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Execute fn(i) for i in [0, n_items); the caller participates.
  /// Returns after all items finished AND all pool threads left the
  /// work loop (so the next run() can safely reset shared state).
  void run(std::size_t n_items, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void drain();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_{nullptr};
  std::size_t n_items_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> failed_{false};
  std::size_t completed_{0};
  std::size_t active_{0};  // pool threads currently inside drain()
  std::uint64_t epoch_{0};
  bool running_{false};  // current epoch still open; gates stale wake-ups
  bool shutdown_{false};
  std::exception_ptr error_;
};

}  // namespace heteroplace::sim
