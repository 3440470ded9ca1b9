#include "migration/link_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace heteroplace::migration {

LinkMode link_mode_from_string(const std::string& name) {
  if (name == "p2p") return LinkMode::kP2p;
  if (name == "uplink") return LinkMode::kUplink;
  throw std::invalid_argument("unknown link mode: " + name + " (expected p2p|uplink)");
}

LinkScheduler::LinkScheduler(sim::Engine& engine, TransferModel model, LinkMode mode)
    : engine_(engine), model_(std::move(model)), mode_(mode) {}

LinkScheduler::PoolKey LinkScheduler::pool_key(std::size_t from, std::size_t to) const {
  return mode_ == LinkMode::kUplink ? PoolKey{from, std::numeric_limits<std::size_t>::max()}
                                    : PoolKey{from, to};
}

LinkScheduler::Grant LinkScheduler::submit(std::size_t from, std::size_t to,
                                           util::MemMb image_size,
                                           sim::EventCallback on_delivered) {
  if (from == to) throw std::invalid_argument("LinkScheduler::submit: from == to");
  if (image_size.get() <= 0.0) {
    throw std::invalid_argument("LinkScheduler::submit: empty image never reaches the wire");
  }

  const PoolKey key = pool_key(from, to);
  Pool& pool = pools_[key];
  if (pool.down) {
    throw std::logic_error("LinkScheduler::submit: link is down (check link_up first)");
  }

  const double bandwidth = mode_ == LinkMode::kUplink
                               ? model_.uplink_bandwidth_mb_per_s(from)
                               : model_.bandwidth_mb_per_s(from, to);
  // A healthy pool has degrade == 1.0, and x * 1.0 == x exactly.
  const double wire = image_size.get() / (bandwidth * pool.degrade);
  const double latency = model_.latency_s(from, to);

  const double now = engine_.now().get();

  Grant grant;
  grant.id = next_transfer_++;
  grant.transfer_s = latency + wire;
  Waiting entry{key, grant.id, wire, latency, now, std::move(on_delivered)};

  if (!pool.busy) {
    // Idle pool ⇒ empty queue (the wire-done handler starts the next
    // waiter immediately): the wire starts now and delivery is
    // now + (latency + wire) — the exact floating-point sum the
    // closed-form model produced, keeping uncontended p2p runs
    // bit-identical to the pre-scheduler code.
    grant.wire_start = util::Seconds{now};
    grant.queue_wait_s = 0.0;
    grant.delivery = util::Seconds{now + (latency + wire)};
    start_wire(key, std::move(entry), now);
  } else {
    // Predicted schedule: chain the wire times of everything ahead, in
    // FIFO order (the same left-to-right accumulation the events will
    // perform, so the prediction is bit-exact absent cancellations).
    double start = pool.wire_free_at;
    for (TransferId qid : pool.waiting) start += waiting_.at(qid).wire_s;
    grant.wire_start = util::Seconds{start};
    grant.queue_wait_s = start - now;
    grant.delivery = util::Seconds{start + (latency + wire)};
    pool.waiting.push_back(grant.id);
    waiting_.emplace(grant.id, std::move(entry));
    ++queued_;
  }
  return grant;
}

void LinkScheduler::start_wire(PoolKey key, Waiting entry, double now) {
  Pool& pool = pools_[key];
  pool.busy = true;
  pool.wire_free_at = now + entry.wire_s;
  pool.on_wire = entry.id;
  ++active_;
  pool.wire_done = engine_.schedule_at(util::Seconds{pool.wire_free_at},
                                       sim::EventPriority::kMigration,
                                       [this, key] { on_wire_done(key); });
  pool.delivery = engine_.schedule_at(util::Seconds{now + (entry.latency_s + entry.wire_s)},
                                      sim::EventPriority::kMigration,
                                      std::move(entry.on_delivered));
}

void LinkScheduler::on_wire_done(PoolKey key) {
  Pool& pool = pools_[key];
  --active_;
  pool.busy = false;
  // Past this point only propagation remains; a link failure can no
  // longer kill the transfer, so the pool releases its handles (the
  // pending delivery fires on its own).
  pool.on_wire = 0;
  pool.delivery = sim::EventHandle{};
  if (pool.waiting.empty()) return;
  const TransferId id = pool.waiting.front();
  pool.waiting.pop_front();
  auto node = waiting_.extract(id);
  Waiting entry = std::move(node.mapped());
  --queued_;
  // The wait is credited when it has actually been served (the wire
  // starts), so samples mid-run never report time that has not elapsed
  // yet and a transfer still queued at the horizon counts nothing.
  const double now = engine_.now().get();
  total_queue_wait_s_ += now - entry.submitted_at;
  start_wire(key, std::move(entry), now);
}

bool LinkScheduler::cancel_queued(TransferId id) {
  auto it = waiting_.find(id);
  if (it == waiting_.end()) return false;  // unknown, on the wire, or delivered
  const Waiting& entry = it->second;
  Pool& pool = pools_.at(entry.key);
  auto pos = std::find(pool.waiting.begin(), pool.waiting.end(), id);
  pool.waiting.erase(pos);
  --queued_;
  waiting_.erase(it);
  return true;
}

std::vector<LinkScheduler::TransferId> LinkScheduler::fail_link(std::size_t from, std::size_t to,
                                                                double bandwidth_factor) {
  if (bandwidth_factor < 0.0 || bandwidth_factor >= 1.0) {
    throw std::invalid_argument("LinkScheduler::fail_link: bandwidth_factor must be in [0, 1)");
  }
  std::vector<TransferId> killed;
  Pool& pool = pools_[pool_key(from, to)];
  if (bandwidth_factor > 0.0) {
    // Degraded, not down: in-flight and queued transfers keep their
    // committed schedule; only new submissions pay the reduced bandwidth.
    pool.degrade = bandwidth_factor;
    return killed;
  }
  pool.down = true;
  pool.degrade = 1.0;
  if (pool.busy) {
    pool.wire_done.cancel();
    pool.delivery.cancel();
    pool.busy = false;
    --active_;
    killed.push_back(pool.on_wire);
    pool.on_wire = 0;
  }
  while (!pool.waiting.empty()) {
    const TransferId id = pool.waiting.front();
    pool.waiting.pop_front();
    --queued_;
    waiting_.erase(id);
    killed.push_back(id);
  }
  return killed;
}

void LinkScheduler::restore_link(std::size_t from, std::size_t to) {
  auto it = pools_.find(pool_key(from, to));
  if (it == pools_.end()) return;
  // The queue was flushed when the pool went down and submit() refuses a
  // down pool, so there is never parked work to restart here.
  it->second.down = false;
  it->second.degrade = 1.0;
}

bool LinkScheduler::link_up(std::size_t from, std::size_t to) const {
  auto it = pools_.find(pool_key(from, to));
  return it == pools_.end() || !it->second.down;
}

std::size_t LinkScheduler::rescore_queued(std::size_t min_waiting,
                                          const std::function<double(TransferId)>& score) {
  std::size_t moved = 0;
  for (auto& [key, pool] : pools_) {
    if (pool.waiting.size() < min_waiting || pool.waiting.size() < 2) continue;
    std::vector<TransferId> order(pool.waiting.begin(), pool.waiting.end());
    std::map<TransferId, double> cost;
    for (TransferId id : order) cost.emplace(id, score(id));
    std::stable_sort(order.begin(), order.end(),
                     [&cost](TransferId a, TransferId b) { return cost.at(a) < cost.at(b); });
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (pool.waiting[i] != order[i]) ++moved;
      pool.waiting[i] = order[i];
    }
  }
  return moved;
}

}  // namespace heteroplace::migration
