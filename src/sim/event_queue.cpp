#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>

namespace heteroplace::sim {

namespace detail {
namespace {

/// Backing store for the liveness cells. Intentionally leaked: handles
/// may be resolved during static destruction (e.g. a global fixture
/// torn down after main), and a destroyed pool would turn that into a
/// use-after-free. The pool holds 8 bytes per high-water queue count.
struct CellPool {
  std::mutex mu;
  std::deque<std::atomic<std::uint64_t>> cells;  // deque: stable addresses
  std::vector<std::atomic<std::uint64_t>*> free_cells;
  std::uint64_t next_id{1};
};

CellPool& cell_pool() {
  static CellPool* pool = new CellPool;
  return *pool;
}

}  // namespace

QueueLiveness QueueLiveness::acquire() {
  CellPool& p = cell_pool();
  std::lock_guard<std::mutex> lk(p.mu);
  std::atomic<std::uint64_t>* cell = nullptr;
  if (!p.free_cells.empty()) {
    cell = p.free_cells.back();
    p.free_cells.pop_back();
  } else {
    cell = &p.cells.emplace_back(0);
  }
  // Ids are never reused, so a handle holding an old id can never match
  // a recycled cell's new owner.
  const std::uint64_t id = p.next_id++;
  cell->store(id, std::memory_order_release);
  return QueueLiveness{cell, id};
}

void QueueLiveness::release(std::atomic<std::uint64_t>* cell) {
  cell->store(0, std::memory_order_release);
  CellPool& p = cell_pool();
  std::lock_guard<std::mutex> lk(p.mu);
  p.free_cells.push_back(cell);
}

}  // namespace detail

thread_local EventQueue::TlsStaging EventQueue::tls_staging_{};

EventQueue::EventQueue() {
  const detail::QueueLiveness lv = detail::QueueLiveness::acquire();
  live_cell_ = lv.cell;
  queue_id_ = lv.id;
}

EventQueue::~EventQueue() { detail::QueueLiveness::release(live_cell_); }

std::uint32_t EventQueue::acquire_slot() {
  if (!free_stack_.empty()) {
    const std::uint32_t idx = free_stack_.back();
    free_stack_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) const {
  Slot& s = slots_[idx];
  s.callback = nullptr;
  s.cancelled = false;
  s.staged = false;
  s.executing = false;
  // odd -> even: free, and all outstanding handles invalidated
  s.gen_state.store(s.gen_state.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  free_stack_.push_back(idx);
}

void EventQueue::sift_up(std::size_t pos) const {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!moving.fires_before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

void EventQueue::sift_down(std::size_t pos) const {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  for (;;) {
    const std::size_t first = 4 * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].fires_before(heap_[best])) best = c;
    }
    if (!heap_[best].fires_before(moving)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

void EventQueue::heap_remove_top() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead() const {
  if (dead_ == 0) return;
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    const std::uint32_t idx = heap_.front().slot;
    heap_remove_top();
    release_slot(idx);
    --dead_;
  }
}

void EventQueue::heap_insert(double time, std::uint16_t priority_bits, std::uint64_t seq,
                             std::uint32_t slot) {
  const std::uint64_t order =
      (static_cast<std::uint64_t>(priority_bits) << 48) | (seq & kSeqMask);
  heap_.push_back(HeapEntry{time, order, slot});
  sift_up(heap_.size() - 1);
}

EventHandle EventQueue::push(double time, EventPriority priority, EventCallback cb,
                             ShardId shard) {
  if (tls_staging_.queue == this) return staged_push(time, priority, std::move(cb), shard);
  if (mt_guard_.load(std::memory_order_relaxed)) {
    throw std::logic_error(
        "EventQueue::push: called during a parallel batch from a thread that is not "
        "executing a batch item (no staging context); this schedule cannot be made "
        "deterministic");
  }
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  const std::uint64_t seq = next_seq_++;
  s.callback = std::move(cb);
  s.cancelled = false;
  s.shard = shard;
  const std::uint32_t gen = s.gen_state.load(std::memory_order_relaxed) + 1;  // even -> odd
  s.gen_state.store(gen, std::memory_order_relaxed);
  heap_insert(time, static_cast<std::uint16_t>(static_cast<int>(priority)), seq, idx);
  ++live_;
  return EventHandle{this, live_cell_, queue_id_, idx, gen};
}

EventHandle EventQueue::staged_push(double time, EventPriority priority, EventCallback cb,
                                    ShardId shard) {
  TlsStaging& t = tls_staging_;
  const auto prio = static_cast<std::uint16_t>(static_cast<int>(priority));
  if (time < t.batch_time || (time == t.batch_time && prio < t.batch_priority_bits)) {
    throw std::logic_error(
        "EventQueue: a parallel batch item scheduled an event at the batch timestamp with "
        "a lower priority; a serial run would interleave it mid-batch, which cannot be "
        "reproduced bit-identically with engine.threads>1 (run with engine.threads=1, or "
        "give the action a nonzero latency)");
  }
  const std::ptrdiff_t top = claim_top_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (top < 0) {
    // Workers may not grow the slab (reallocation would race every
    // unsynchronized slot access); begin_parallel pre-sizes the spare
    // from the high-water mark, so hitting this means a >4x staged-push
    // spike within one batch.
    throw std::logic_error(
        "EventQueue: slot slab exhausted during a parallel batch (staged pushes outgrew "
        "the pre-sized spare); rerun with engine.threads=1");
  }
  const std::uint32_t idx = free_stack_[static_cast<std::size_t>(top)];
  Slot& s = slots_[idx];
  s.callback = std::move(cb);
  s.cancelled = false;
  s.staged = true;
  s.shard = shard;
  const std::uint32_t gen = s.gen_state.load(std::memory_order_relaxed) + 1;
  s.gen_state.store(gen, std::memory_order_relaxed);
  t.pushes->push_back(StagedPush{time, prio, idx});
  return EventHandle{this, live_cell_, queue_id_, idx, gen};
}

bool EventQueue::empty() const {
  drop_dead();
  return heap_.empty();
}

double EventQueue::next_time() const {
  drop_dead();
  assert(!heap_.empty());
  return heap_.front().time;
}

EventQueue::TopKey EventQueue::top_key() const {
  drop_dead();
  assert(!heap_.empty());
  const HeapEntry& e = heap_.front();
  return TopKey{e.time, static_cast<std::uint16_t>(e.order >> 48), slots_[e.slot].shard};
}

EventQueue::Popped EventQueue::pop() {
  drop_dead();
  assert(!heap_.empty());
  const std::uint32_t idx = heap_.front().slot;
  Popped out{heap_.front().time, std::move(slots_[idx].callback)};
  heap_remove_top();
  release_slot(idx);
  --live_;
  return out;
}

std::size_t EventQueue::pop_batch(std::vector<EventCallback>& callbacks,
                                  std::vector<ShardId>& shards) {
  callbacks.clear();
  shards.clear();
  assert(batch_slots_.empty());
  drop_dead();
  assert(!heap_.empty());
  if (slots_[heap_.front().slot].shard == kNoShard) return 0;
  const double t = heap_.front().time;
  const std::uint64_t prio_bits = heap_.front().order >> 48;
  for (;;) {
    const std::uint32_t idx = heap_.front().slot;
    Slot& s = slots_[idx];
    callbacks.push_back(std::move(s.callback));
    shards.push_back(s.shard);
    batch_slots_.push_back(idx);
    s.executing = true;
    heap_remove_top();
    --live_;
    drop_dead();
    if (heap_.empty()) break;
    const HeapEntry& top = heap_.front();
    if (top.time != t || (top.order >> 48) != prio_bits) break;
    if (slots_[top.slot].shard == kNoShard) break;
  }
  if (batch_slots_.size() == 1) {
    // Exactly the serial pop: record released before the callback runs.
    slots_[batch_slots_[0]].executing = false;
    release_slot(batch_slots_[0]);
    batch_slots_.clear();
  }
  return callbacks.size();
}

void EventQueue::begin_parallel(double batch_time, std::uint16_t batch_priority_bits) {
  assert(batch_slots_.size() >= 2);
  batch_time_ = batch_time;
  batch_priority_bits_ = batch_priority_bits;
  if (staging_.size() < batch_slots_.size()) staging_.resize(batch_slots_.size());
  // Pre-grow the slab so workers only ever claim from the free stack:
  // reallocation is forbidden inside the region. 4x the staged high
  // water covers growth between consecutive batches.
  const std::size_t target = std::max<std::size_t>(8192, 4 * staged_high_water_);
  while (free_stack_.size() < target) {
    slots_.emplace_back();
    free_stack_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
  claim_top_.store(static_cast<std::ptrdiff_t>(free_stack_.size()), std::memory_order_relaxed);
  mt_guard_.store(true, std::memory_order_release);
}

void EventQueue::bind_staging(std::size_t item) {
  tls_staging_ = TlsStaging{this, &staging_[item], batch_time_, batch_priority_bits_};
}

void EventQueue::unbind_staging() { tls_staging_ = TlsStaging{}; }

void EventQueue::release_staging(bool replay) {
  mt_guard_.store(false, std::memory_order_release);
  // Everything at or above the clamped top was claimed by a staged push
  // and is accounted for in some item's list below.
  const auto top = std::max<std::ptrdiff_t>(0, claim_top_.load(std::memory_order_relaxed));
  claim_top_.store(top, std::memory_order_relaxed);
  free_stack_.resize(static_cast<std::size_t>(top));
  std::size_t staged_total = 0;
  const std::size_t items = batch_slots_.size();
  for (std::size_t i = 0; i < items; ++i) {
    std::vector<StagedPush>& pushes = staging_[i];
    staged_total += pushes.size();
    for (const StagedPush& p : pushes) {
      Slot& s = slots_[p.slot];
      s.staged = false;
      if (replay) {
        // Replaying in batch pop order assigns exactly the sequence
        // numbers a serial run would have; a staged-then-cancelled push
        // still consumes its number (serial assigned it at push time).
        const std::uint64_t seq = next_seq_++;
        if (!s.cancelled) {
          heap_insert(p.time, p.priority_bits, seq, p.slot);
          ++live_;
          continue;
        }
      }
      release_slot(p.slot);
    }
    pushes.clear();
  }
  for (const std::uint32_t idx : batch_slots_) {
    slots_[idx].executing = false;
    release_slot(idx);
  }
  batch_slots_.clear();
  staged_high_water_ = std::max(staged_high_water_, staged_total);
}

EventQueue::SlabCensus EventQueue::slab_census() const {
  SlabCensus c{slots_.size(), free_stack_.size(), heap_.size(), 0,
               claim_top_.load(std::memory_order_relaxed)};
  std::vector<bool> seen(slots_.size(), false);
  auto visit = [&](std::uint32_t idx) {
    if (seen[idx]) ++c.duplicates;
    seen[idx] = true;
  };
  for (const std::uint32_t idx : free_stack_) visit(idx);
  for (const HeapEntry& e : heap_) visit(e.slot);
  return c;
}

void EventQueue::end_parallel() { release_staging(/*replay=*/true); }

void EventQueue::cancel_parallel() { release_staging(/*replay=*/false); }

bool EventQueue::pending_impl(std::uint32_t slot, std::uint32_t generation) const {
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  // The generation probe must come first: on a mismatch no other field
  // may be read (the slot may be concurrently re-acquired by a staged
  // push on another worker; gen_state is the only atomic field).
  if (s.gen_state.load(std::memory_order_relaxed) != generation) return false;
  if (s.executing) {
    throw std::logic_error(
        "EventHandle: handle targets an event inside the currently-executing parallel "
        "batch; a serial run may not have popped it yet, so the outcome cannot be "
        "reproduced bit-identically with engine.threads>1 (run with engine.threads=1)");
  }
  return !s.cancelled;
}

bool EventQueue::cancel_impl(std::uint32_t slot, std::uint32_t generation) {
  if (!pending_impl(slot, generation)) return false;
  Slot& s = slots_[slot];
  s.cancelled = true;
  s.callback = nullptr;   // release captured state eagerly
  if (s.staged) return true;  // no heap entry yet; reconciled at replay
  ++dead_;
  --live_;  // a cancelled event is no longer live (the heap entry is swept lazily)
  return true;
}

bool EventQueue::handle_pending(std::uint32_t slot, std::uint32_t generation) const {
  if (mt_guard_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(mu_);
    return pending_impl(slot, generation);
  }
  return pending_impl(slot, generation);
}

bool EventQueue::handle_cancel(std::uint32_t slot, std::uint32_t generation) {
  if (mt_guard_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(mu_);
    return cancel_impl(slot, generation);
  }
  return cancel_impl(slot, generation);
}

}  // namespace heteroplace::sim
