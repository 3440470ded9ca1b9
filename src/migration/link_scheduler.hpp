#pragma once

// Contended inter-domain links: FIFO bandwidth pools on the sim engine.
//
// PR 3's transfer model priced every handoff with a closed-form divide,
// so N simultaneous transfers over one link each saw the full bandwidth
// and a mass drain finished unrealistically fast. The LinkScheduler
// makes link capacity a shared, contended resource (the
// workload-engineering treatment of WAN links): each bandwidth pool
// serves transfers strictly FIFO — a transfer occupies the wire for
// image/bandwidth seconds, queued transfers start when the wire frees,
// and per-link propagation latency rides on top of the wire time
// (pipelined, so it delays delivery but does not occupy the pool).
//
// Pool granularity is the link mode:
//   p2p    — every ordered domain pair (from, to) is its own pool, using
//            the pair's TransferModel bandwidth. Transfers on different
//            pairs never contend.
//   uplink — every transfer leaving a domain contends for that domain's
//            single uplink pool (TransferModel uplink bandwidth);
//            per-pair bandwidth overrides are ignored, per-pair latency
//            still applies.
//
// Queued (not-yet-on-wire) transfers can be cancelled: a drained domain
// that recovers mid-evacuation has no reason to keep shipping images
// (see MigrationManager). Only the transfer at the head of a pool holds
// engine events — queued entries hold none — so cancellation simply
// removes the entry and every transfer behind it moves up one slot,
// starting (and delivering) earlier than its Grant predicted. The wire
// is never left idle while work waits.
//
// Determinism: FIFO over submission order with known image sizes is
// fully predictable, so submit() computes the wire-start and delivery
// times analytically into the returned Grant (exact unless a later
// cancellation compacts the queue). An uncontended submission in p2p
// mode delivers at exactly now + TransferModel::transfer_time(from, to,
// image) — bit-identical to the PR 3 closed form (pinned in
// tests/link_scheduler_test.cpp).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "migration/transfer_model.hpp"
#include "sim/engine.hpp"

namespace heteroplace::migration {

enum class LinkMode {
  kP2p,     // per ordered domain pair
  kUplink,  // shared per-source-domain pool
};

/// "p2p" | "uplink"; throws std::invalid_argument otherwise.
[[nodiscard]] LinkMode link_mode_from_string(const std::string& name);

class LinkScheduler {
 public:
  LinkScheduler(sim::Engine& engine, TransferModel model, LinkMode mode = LinkMode::kP2p);

  LinkScheduler(const LinkScheduler&) = delete;
  LinkScheduler& operator=(const LinkScheduler&) = delete;

  using TransferId = std::uint64_t;

  /// Everything the caller needs to account for one granted transfer,
  /// fixed at submission time. FIFO makes the schedule predictable, so
  /// the times are exact — unless a transfer queued ahead is later
  /// cancelled, in which case the real wire start and delivery happen
  /// earlier than predicted (never later).
  struct Grant {
    util::Seconds wire_start;  // when the image starts moving
    util::Seconds delivery;    // when on_delivered fires
    double transfer_s{0.0};    // modeled uncontended time: latency + image/bw
    double queue_wait_s{0.0};  // wire_start − submission time
    TransferId id{0};          // handle for cancel_queued
  };

  /// Queue an image transfer on the (from, to) link's pool; `on_delivered`
  /// fires at the delivery time (kMigration priority). Requires
  /// from ≠ to and a nonempty image — free moves never reach the wire
  /// (the MigrationManager completes them synchronously, as before).
  Grant submit(std::size_t from, std::size_t to, util::MemMb image_size,
               sim::EventCallback on_delivered);

  /// Abort a transfer that has not reached the wire. Its on_delivered
  /// never fires and the pool closes the gap (transfers queued behind it
  /// start earlier). Returns false — and does nothing — when the id is
  /// unknown, already on the wire, or already delivered.
  bool cancel_queued(TransferId id);

  // --- fault injection -------------------------------------------------------

  /// Fail the (from, to) link. bandwidth_factor == 0 takes the pool down:
  /// the on-wire transfer (if its delivery has not fired) and every
  /// queued transfer are killed — their on_delivered callbacks never fire
  /// — and their ids are returned so the MigrationManager can retry them.
  /// A transfer past its wire-done but before delivery survives (the
  /// bytes already crossed; only propagation remains). bandwidth_factor
  /// in (0, 1) degrades the link instead: nothing is killed, but new
  /// submissions see the scaled bandwidth until restore_link.
  std::vector<TransferId> fail_link(std::size_t from, std::size_t to, double bandwidth_factor);

  /// Clear a fault set by fail_link (full bandwidth, pool back up).
  void restore_link(std::size_t from, std::size_t to);

  /// False while the (from, to) pool is down. Callers must check before
  /// submit(): submitting into a down pool throws std::logic_error.
  [[nodiscard]] bool link_up(std::size_t from, std::size_t to) const;

  /// Re-rank the waiting queue of every pool holding at least
  /// `min_waiting` queued transfers: stable-sort ascending by
  /// `score(id)`, so cheap transfers overtake expensive ones when a link
  /// backs up (ties keep FIFO order). Returns how many transfers changed
  /// slots. Queued entries hold no engine events, so reordering is pure
  /// bookkeeping — the wire keeps serving head-of-queue.
  std::size_t rescore_queued(std::size_t min_waiting,
                             const std::function<double(TransferId)>& score);

  /// Transfers waiting for a pool (submitted, wire not started).
  [[nodiscard]] std::size_t queued_transfers() const { return queued_; }
  /// Transfers currently occupying a wire.
  [[nodiscard]] std::size_t active_transfers() const { return active_; }
  /// Cumulative seconds of queue wait actually served so far: each
  /// transfer's wait is credited when its wire starts, so this never
  /// reports time that has not elapsed yet (and a cancelled transfer's
  /// never-served wait counts nothing).
  [[nodiscard]] double total_queue_wait_s() const { return total_queue_wait_s_; }

  [[nodiscard]] const TransferModel& model() const { return model_; }
  [[nodiscard]] LinkMode mode() const { return mode_; }

 private:
  /// Pool key: (from, to) in p2p mode, (from, npos) in uplink mode.
  using PoolKey = std::pair<std::size_t, std::size_t>;
  struct Pool {
    bool busy{false};          // a transfer occupies the wire
    double wire_free_at{0.0};  // when the on-wire transfer leaves it
    bool down{false};          // failed (fault injection); admits nothing
    double degrade{1.0};       // bandwidth factor for new submissions
    TransferId on_wire{0};     // id of the transfer occupying the wire
    sim::EventHandle wire_done;  // pending events of the on-wire transfer,
    sim::EventHandle delivery;   // held so fail_link can kill it
    std::deque<TransferId> waiting;  // FIFO, cancellable until wire start
  };
  struct Waiting {
    PoolKey key;
    TransferId id{0};
    double wire_s{0.0};
    double latency_s{0.0};
    double submitted_at{0.0};
    sim::EventCallback on_delivered;
  };

  [[nodiscard]] PoolKey pool_key(std::size_t from, std::size_t to) const;
  /// Put a transfer on the wire at `now`: schedules its wire-done (pops
  /// the next waiter) and delivery events. Only on-wire transfers hold
  /// events; cancellation therefore never reschedules anything.
  void start_wire(PoolKey key, Waiting entry, double now);
  void on_wire_done(PoolKey key);

  sim::Engine& engine_;
  TransferModel model_;
  LinkMode mode_;
  std::map<PoolKey, Pool> pools_;
  std::map<TransferId, Waiting> waiting_;  // queued entries only
  TransferId next_transfer_{1};
  std::size_t queued_{0};
  std::size_t active_{0};
  double total_queue_wait_s_{0.0};
};

}  // namespace heteroplace::migration
