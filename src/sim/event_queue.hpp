#pragma once

// Pending-event set for the discrete-event engine.
//
// Ordering is total and deterministic: (time, priority, insertion sequence).
// Cancellation is O(1) via lazy deletion: a handle flips a flag on the
// record and the pop loop skips dead entries. This is the standard
// technique for simulators whose events are frequently rescheduled (job
// completion events are invalidated every time the controller changes a
// job's CPU share).
//
// Layout, chosen against bench/perf_baseline.cpp (the seed shared_ptr
// implementation survives in bench/legacy/ as the comparison point):
//
//  - Records live in a slab-allocated pool indexed by slot number; a
//    LIFO stack of free slot numbers recycles them, so push/pop/cancel
//    perform zero heap allocations after warm-up.
//  - The heap is 4-ary and its entries carry the full ordering key
//    (time + packed priority|seq), so sift comparisons touch only the
//    contiguous heap array — never the slab, never a pointer chase.
//    Pop cost is dominated by these comparisons; the seed implementation
//    dereferenced two heap-allocated records per comparison.
//  - Handles address records as (slot, generation); a freed slot bumps
//    its generation, so stale handles fail in O(1) without shared
//    ownership. Queue liveness is checked against a process-wide pool of
//    atomic liveness cells (see detail::QueueLiveness): each queue owns
//    one cell holding its unique id for its lifetime, and a handle is
//    dead unless one acquire-load of that cell still matches. This is
//    lock-free, O(1), and — unlike the thread-local registry it
//    replaced — correct when a handle is resolved or cancelled on a
//    worker thread rather than the queue's owning thread.
//
// Threading contract: outside a parallel batch (below) a queue belongs
// to one thread at a time, and resolving a handle must not race the
// queue's destruction (the liveness cell makes use-after-destruction
// *detected* when the operations are ordered, not safe when they race).
//
// Parallel batch protocol (driven by sim::Engine when engine.threads>1):
// events may carry a ShardId; a maximal run of consecutive ready events
// with identical (time, priority) and a shard tag is popped as one batch
// (pop_batch) and executed by a worker pool. During the batch
// (begin_parallel .. end_parallel):
//  - push from a worker is *staged*: the record is claimed immediately
//    and a valid handle returned, but the sequence number and heap
//    insertion are deferred to end_parallel, which replays staged pushes
//    in batch pop order — reproducing the exact sequence numbers a
//    serial run would have assigned. A claim is one relaxed fetch_sub on
//    the free stack's published top (begin_parallel pre-sizes the stack,
//    so workers never grow it or the slab); no lock is taken. Which slot
//    a staged push gets therefore varies with thread timing, and nothing
//    observable depends on it.
//  - cancel/pending from a worker lock the queue mutex (mt_guard_ makes
//    this zero-cost when no batch is running: one relaxed atomic load).
//  - operations that cannot be made bit-identical to the serial
//    schedule fail loudly with std::logic_error instead of diverging:
//    staging an event at the batch timestamp with a *lower* priority
//    (a serial run would interleave it mid-batch), and resolving or
//    cancelling a handle that targets an event inside the currently
//    executing batch (a serial run might not have popped it yet).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace heteroplace::sim {

/// Scheduling priority at equal timestamps; lower values run first.
/// Named constants keep cross-module ordering explicit. Values must fit
/// in 16 bits (they share a packed ordering word with the sequence
/// number).
enum class EventPriority : int {
  kWorkloadArrival = 0,   // job submissions, demand-trace changes
  kFault = 5,             // fault injection and recovery (crashes land after
                          // same-instant arrivals, before everything else
                          // reacts; recoveries precede the next control pass)
  kStateTransition = 10,  // action completions, job completions
  kController = 20,       // control-cycle evaluation (sees arrivals at t)
  kMigration = 25,        // migration-manager ticks (see controller output;
                          // suspend-complete checks fire after transitions)
  kPower = 27,            // power-manager ticks and park/wake completions
                          // (after controllers and migration, before samplers)
  kSampling = 30,         // metric sampling (sees the controller's output)
};

using EventCallback = std::function<void()>;

/// Shard tag for events whose effects are confined to one domain; the
/// engine may execute same-(time, priority) events of *distinct* shards
/// concurrently, and always executes same-shard events sequentially in
/// pop order. Untagged events (kNoShard) are strictly serial.
using ShardId = std::uint32_t;
inline constexpr ShardId kNoShard = 0xffffffffu;

class EventQueue;

namespace detail {
/// Process-wide pool of queue-liveness cells. Each live queue owns one
/// cell storing its unique id; destruction zeroes the cell and returns
/// it to a freelist (cells are pooled forever — a few bytes per
/// high-water queue count). Ids are never reused, so a recycled cell can
/// never falsely revive a stale handle. The read side (EventHandle) is
/// a single acquire load — no lock, valid from any thread.
struct QueueLiveness {
  std::atomic<std::uint64_t>* cell;
  std::uint64_t id;

  static QueueLiveness acquire();
  static void release(std::atomic<std::uint64_t>* cell);
};
}  // namespace detail

/// Handle to a scheduled event; cancel() is idempotent and safe after the
/// event has fired or the owning queue was destroyed (no effect then).
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const;

  /// Prevent the event from firing. Returns true if it was still pending.
  bool cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, const std::atomic<std::uint64_t>* live_cell,
              std::uint64_t queue_id, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue),
        live_cell_(live_cell),
        queue_id_(queue_id),
        slot_(slot),
        generation_(generation) {}

  EventQueue* queue_{nullptr};
  const std::atomic<std::uint64_t>* live_cell_{nullptr};
  std::uint64_t queue_id_{0};
  std::uint32_t slot_{0};
  std::uint32_t generation_{0};
};

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` at absolute `time`. Ties broken by priority then FIFO.
  /// `shard` tags the event for the parallel batch protocol (see file
  /// comment); kNoShard events never batch.
  EventHandle push(double time, EventPriority priority, EventCallback cb,
                   ShardId shard = kNoShard);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const;

  /// Timestamp of the earliest live event; precondition: !empty().
  [[nodiscard]] double next_time() const;

  /// Remove and return the earliest live event's callback along with its
  /// time. Precondition: !empty().
  struct Popped {
    double time;
    EventCallback callback;
  };
  Popped pop();

  [[nodiscard]] std::size_t live_size() const { return live_; }
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

  // --- Parallel batch protocol (engine-facing; see file comment) ---

  /// Full ordering key + shard of the earliest live event.
  /// Precondition: !empty().
  struct TopKey {
    double time;
    std::uint16_t priority_bits;
    ShardId shard;
  };
  [[nodiscard]] TopKey top_key() const;

  /// Pop the maximal run of consecutive ready events sharing the top
  /// (time, priority) whose records carry a shard tag, moving their
  /// callbacks/shards out in pop order. Returns 0 without popping if the
  /// top event is unsharded. A run of exactly one event is released
  /// immediately (serial-identical semantics: the engine just runs the
  /// callback); a run of two or more leaves the records in "executing"
  /// state until end_parallel()/cancel_parallel().
  std::size_t pop_batch(std::vector<EventCallback>& callbacks, std::vector<ShardId>& shards);

  /// Enter the parallel region for the batch just popped (size >= 2):
  /// arms the mutex guard, sizes the per-item staging buffers, pre-grows
  /// the slot slab so workers never reallocate it, and publishes the
  /// free stack's top for lock-free staged claims.
  void begin_parallel(double batch_time, std::uint16_t batch_priority_bits);

  /// Bind/unbind this thread's staged-push context to batch item `item`
  /// (its index in pop order). Workers bracket each item's callback.
  void bind_staging(std::size_t item);
  void unbind_staging();

  /// Leave the parallel region: replays staged pushes in batch pop
  /// order (assigning the sequence numbers a serial run would have) and
  /// releases the batch's records. Caller must have joined all workers.
  void end_parallel();

  /// Abort path of end_parallel() after a worker threw: releases all
  /// batch + staged records without replaying. The queue stays valid
  /// but the simulation state is torn; callers propagate the exception.
  void cancel_parallel();

  /// Slot-slab accounting for tests. Outside a parallel region every
  /// slot is exactly one of free (on the free stack) or queued (in the
  /// heap, live or cancelled-unswept); `duplicates` counts indices seen
  /// twice across the two. `claim_top` is the free-stack top the last
  /// parallel region left behind (clamped at 0 after an exhausted spare).
  struct SlabCensus {
    std::size_t slab;
    std::size_t free;
    std::size_t queued;
    std::size_t duplicates;
    std::ptrdiff_t claim_top;
  };
  [[nodiscard]] SlabCensus slab_census() const;

 private:
  friend class EventHandle;

  /// 48-bit sequence numbers leave 16 bits for the priority in the
  /// packed ordering word; ~2.8e14 events outlast any simulation.
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 48) - 1;

  struct Slot {
    EventCallback callback;
    /// Odd = acquired, even = free; a handle is live iff this still
    /// equals the value captured at push. Atomic so a stale handle's
    /// liveness probe from one worker never races another worker
    /// acquiring the (recycled) slot — the only two fields such a probe
    /// may touch are this and, when it matches, `cancelled`.
    std::atomic<std::uint32_t> gen_state{0};
    ShardId shard{kNoShard};
    bool cancelled{false};
    /// Acquired by a worker inside a parallel region; seq/heap insertion
    /// deferred to the end_parallel() replay.
    bool staged{false};
    /// Member of the batch currently executing (popped, not yet
    /// released). Handle operations on such a record fail loudly.
    bool executing{false};

    // The atomic deletes the implicit moves; slab growth only ever
    // happens on the owning thread, where a plain copy of the counter
    // is sound.
    Slot() = default;
    Slot(Slot&& o) noexcept
        : callback(std::move(o.callback)),
          gen_state(o.gen_state.load(std::memory_order_relaxed)),
          shard(o.shard),
          cancelled(o.cancelled),
          staged(o.staged),
          executing(o.executing) {}
    Slot& operator=(Slot&& o) noexcept {
      callback = std::move(o.callback);
      gen_state.store(o.gen_state.load(std::memory_order_relaxed), std::memory_order_relaxed);
      shard = o.shard;
      cancelled = o.cancelled;
      staged = o.staged;
      executing = o.executing;
      return *this;
    }
  };

  /// Heap entry carrying the complete ordering key, so sifting never
  /// touches the slab.
  struct HeapEntry {
    double time;
    std::uint64_t order;  // priority (high 16 bits) | seq (low 48 bits)
    std::uint32_t slot;

    [[nodiscard]] bool fires_before(const HeapEntry& o) const {
      if (time != o.time) return time < o.time;
      return order < o.order;
    }
  };

  struct StagedPush {
    double time;
    std::uint16_t priority_bits;
    std::uint32_t slot;
  };

  struct TlsStaging {
    EventQueue* queue{nullptr};
    std::vector<StagedPush>* pushes{nullptr};
    double batch_time{0.0};
    std::uint16_t batch_priority_bits{0};
  };
  static thread_local TlsStaging tls_staging_;  // defined in event_queue.cpp

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx) const;
  void sift_up(std::size_t pos) const;
  void sift_down(std::size_t pos) const;
  void heap_remove_top() const;
  /// Free cancelled records at the heap top (lazy-deletion sweep).
  void drop_dead() const;

  EventHandle staged_push(double time, EventPriority priority, EventCallback cb, ShardId shard);
  void heap_insert(double time, std::uint16_t priority_bits, std::uint64_t seq,
                   std::uint32_t slot);
  void release_staging(bool replay);

  [[nodiscard]] bool handle_pending(std::uint32_t slot, std::uint32_t generation) const;
  bool handle_cancel(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool pending_impl(std::uint32_t slot, std::uint32_t generation) const;
  bool cancel_impl(std::uint32_t slot, std::uint32_t generation);

  // The const query API (empty / next_time) performs the lazy-deletion
  // sweep, hence the mutable storage (same contract as the original
  // priority_queue implementation).
  mutable std::vector<Slot> slots_;
  mutable std::vector<HeapEntry> heap_;
  /// Free slot numbers, LIFO.
  mutable std::vector<std::uint32_t> free_stack_;
  /// Cancelled-but-unswept records. While zero (the common case between
  /// reschedule bursts) the lazy-deletion sweep skips its per-call slab
  /// probe entirely.
  mutable std::size_t dead_{0};
  std::size_t live_{0};
  std::uint64_t next_seq_{0};

  std::atomic<std::uint64_t>* live_cell_{nullptr};
  std::uint64_t queue_id_{0};

  // Parallel-region state. mt_guard_ is false except between
  // begin_parallel and end_parallel; every handle/push path checks it
  // with one relaxed load, so the serial paths above stay lock-free.
  std::atomic<bool> mt_guard_{false};
  /// Worker-side cancel/pending take this; staged pushes do not.
  mutable std::mutex mu_;
  /// Staged pushes claim free_stack_[--claim_top_]. Signed: claims past
  /// the bottom drive it negative, and release_staging clamps it to 0.
  std::atomic<std::ptrdiff_t> claim_top_{0};
  std::vector<std::uint32_t> batch_slots_;
  /// Per-batch-item staged pushes, in push order. Exactly one worker
  /// runs a given item, so no lock guards them.
  std::vector<std::vector<StagedPush>> staging_;
  double batch_time_{0.0};
  std::uint16_t batch_priority_bits_{0};
  /// Largest staged-push count seen in one batch; begin_parallel sizes
  /// the slot-slab spare from it so workers never grow the slab.
  std::size_t staged_high_water_{0};
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && live_cell_->load(std::memory_order_acquire) == queue_id_ &&
         queue_->handle_pending(slot_, generation_);
}

inline bool EventHandle::cancel() {
  if (queue_ == nullptr || live_cell_->load(std::memory_order_acquire) != queue_id_) {
    return false;
  }
  return queue_->handle_cancel(slot_, generation_);
}

}  // namespace heteroplace::sim
