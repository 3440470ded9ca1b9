#pragma once

// Discrete-event simulation engine.
//
// Deterministic: events fire in (time, priority, FIFO) order; callbacks
// may schedule and cancel further events. Time is in simulated seconds
// (util::Seconds at the API surface, raw double inside the queue for
// speed).
//
// threads=1 (the default) is the strictly single-threaded pinned
// reference. threads=N>1 enables the parallel batch mode: a maximal run
// of consecutive ready events sharing (time, priority) whose records
// carry a ShardId is dispatched to a fixed worker pool — same-shard
// events stay sequential in pop order, distinct shards run concurrently
// — and their effects (staged pushes, cancels) merge at a deterministic
// barrier in batch pop order. The result is bit-identical to threads=1;
// schedules that cannot be reproduced bit-identically fail loudly with
// std::logic_error (see event_queue.hpp). Untagged events (kNoShard)
// always execute serially on the engine's thread, and so does a batch
// whose events all carry one shard (same staging and merge, no pool
// hand-off).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace heteroplace::sim {

class WorkerPool;
class EngineObserver;

/// Wall-clock attribution of dispatch time, collected only when
/// enable_timing() was called (obs.profile); all zeros otherwise. Like
/// EngineStats this is machine-dependent diagnostics — never folded into
/// result digests.
struct EngineTiming {
  std::uint64_t serial_events{0};
  std::uint64_t serial_ns{0};
  /// Serial time split by priority class (priority_class_index order).
  std::array<std::uint64_t, 8> serial_class_events{};
  std::array<std::uint64_t, 8> serial_class_ns{};
  /// Wall time inside pool_->run() for parallel batches.
  std::uint64_t batch_exec_ns{0};
  /// Wall time inside the deterministic merge barrier (staged replay).
  std::uint64_t merge_barrier_ns{0};
};

/// Map an EventPriority value to a stable class index 0..7 for
/// EngineTiming's per-class arrays (unknown priorities land in class 7).
[[nodiscard]] int priority_class_index(int priority);
/// Human-readable name for a priority class index ("arrival", "fault", ...).
[[nodiscard]] const char* priority_class_name(int class_index);

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] util::Seconds now() const { return util::Seconds{now_}; }

  /// Schedule at absolute simulated time `t` (must be >= now()).
  EventHandle schedule_at(util::Seconds t, EventPriority priority, EventCallback cb) {
    return schedule_at(t, priority, kNoShard, std::move(cb));
  }

  /// Sharded overload: tag the event for parallel batch execution. Only
  /// events whose effects are confined to the shard (one domain's world,
  /// controller, executor, power manager) may carry a tag.
  EventHandle schedule_at(util::Seconds t, EventPriority priority, ShardId shard,
                          EventCallback cb);

  /// Schedule `dt` seconds from now (dt >= 0).
  EventHandle schedule_in(util::Seconds dt, EventPriority priority, EventCallback cb) {
    return schedule_at(util::Seconds{now_ + dt.get()}, priority, kNoShard, std::move(cb));
  }

  EventHandle schedule_in(util::Seconds dt, EventPriority priority, ShardId shard,
                          EventCallback cb) {
    return schedule_at(util::Seconds{now_ + dt.get()}, priority, shard, std::move(cb));
  }

  /// Worker threads for batch execution; 1 = serial (pinned reference).
  /// Must not be called while run()/run_until() is executing.
  void set_threads(unsigned n);
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run until the event queue is empty or `stop()` is called.
  void run();

  /// Run events with time <= t_end, then set now() = t_end.
  /// Events exactly at t_end do fire.
  void run_until(util::Seconds t_end);

  /// Fire exactly one event if any; returns false when the queue is
  /// empty. Always serial, regardless of threads().
  bool step();

  /// Request that run()/run_until() return after the current callback
  /// (with threads>1: after the current batch). Safe from workers.
  void stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t events_pending() const { return queue_.live_size(); }

  /// Batch-mode counters (0 when threads=1): batches dispatched to the
  /// pool and events they contained.
  [[nodiscard]] std::uint64_t parallel_batches() const { return parallel_batches_; }
  [[nodiscard]] std::uint64_t batched_events() const { return batched_events_; }

  /// Attach an observability hook (see engine_observer.hpp). Not owned;
  /// must outlive the run. nullptr (the default) detaches — the dispatch
  /// path then makes no observer calls at all.
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Collect wall-clock dispatch timing into timing(). Off by default:
  /// enabling adds two steady_clock reads per serial event.
  void enable_timing(bool on = true) { timing_enabled_ = on; }
  [[nodiscard]] const EngineTiming& timing() const { return timing_; }

  /// The pending-event set, read-only (tests audit its slot slab).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  /// One scheduling quantum in batch mode: either a serial step (top
  /// event unsharded) or one batch. Returns false when the queue is
  /// empty or the next event lies beyond `bound`.
  bool parallel_step(double bound);
  /// Run one popped event on the engine thread, with observer and timing.
  void dispatch_serial(const EventCallback& callback, double time, int priority);

  EventQueue queue_;
  double now_{0.0};
  std::uint64_t executed_{0};
  std::atomic<bool> stop_requested_{false};

  unsigned threads_{1};
  EngineObserver* observer_{nullptr};
  bool timing_enabled_{false};
  EngineTiming timing_;
  std::unique_ptr<WorkerPool> pool_;
  std::uint64_t parallel_batches_{0};
  std::uint64_t batched_events_{0};
  // Per-batch scratch, reused across batches to avoid reallocation.
  std::vector<EventCallback> batch_cbs_;
  std::vector<ShardId> batch_shards_;
  std::vector<std::vector<std::size_t>> groups_;  // item indices, pop order
  std::size_t n_groups_{0};
  std::unordered_map<ShardId, std::size_t> group_of_;
};

}  // namespace heteroplace::sim
