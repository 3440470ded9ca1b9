// LinkScheduler tests: the FIFO bandwidth-pool contention model.
//
// Covers the two tentpole guarantees: (1) an uncontended p2p submission
// delivers at exactly now + TransferModel::transfer_time — bit-identical
// to the PR 3 closed form the scheduler replaced; (2) N simultaneous
// transfers over one link serialize to the exact analytic finish times,
// so a K-way evacuation over a shared link takes at least K× the
// single-transfer wire time. Plus uplink-pool semantics and cross-run
// determinism (the scheduler has no randomness: identical submission
// programs produce identical grants under any seed).

#include "migration/link_scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "util/units.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using migration::LinkMode;
using migration::LinkScheduler;
using migration::TransferModel;

TEST(LinkScheduler, UncontendedDeliveryIsBitIdenticalToClosedForm) {
  sim::Engine engine;
  engine.run_until(util::Seconds{123.456});  // arbitrary non-zero clock
  TransferModel model{100.0, 4.0};
  model.set_link(0, 1, 500.0, 1.0);
  LinkScheduler sched{engine, model, LinkMode::kP2p};

  bool delivered = false;
  const LinkScheduler::Grant g = sched.submit(0, 1, 777_mb, [&] { delivered = true; });

  // Exact floating-point equality, not NEAR: the idle-pool path must
  // reproduce the pre-scheduler sum now + (latency + image/bandwidth).
  EXPECT_EQ(g.delivery.get(), engine.now().get() + model.transfer_time(0, 1, 777_mb).get());
  EXPECT_EQ(g.wire_start.get(), engine.now().get());
  EXPECT_EQ(g.queue_wait_s, 0.0);
  EXPECT_EQ(g.transfer_s, model.transfer_time(0, 1, 777_mb).get());

  engine.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(engine.now().get(), g.delivery.get());
  EXPECT_EQ(sched.active_transfers(), 0u);
  EXPECT_EQ(sched.queued_transfers(), 0u);
}

TEST(LinkScheduler, SimultaneousTransfersSerializeToAnalyticFinishTimes) {
  constexpr int kTransfers = 4;
  sim::Engine engine;
  TransferModel model{100.0, 4.0};  // wire = 10 s per 1000 MB, latency 4 s
  LinkScheduler sched{engine, model, LinkMode::kP2p};

  std::vector<double> delivered_at(kTransfers, -1.0);
  std::vector<LinkScheduler::Grant> grants;
  for (int i = 0; i < kTransfers; ++i) {
    grants.push_back(
        sched.submit(0, 1, 1000_mb, [&, i] { delivered_at[i] = engine.now().get(); }));
  }
  // One on the wire, the rest queued behind it. No wait has been served
  // yet — the counter accrues when each wire starts, not at submit.
  EXPECT_EQ(sched.active_transfers(), 1u);
  EXPECT_EQ(sched.queued_transfers(), 3u);
  EXPECT_DOUBLE_EQ(sched.total_queue_wait_s(), 0.0);

  // Strict FIFO: transfer i starts when i-1 leaves the wire and delivers
  // one propagation latency after its own wire time.
  const double wire = 1000.0 / 100.0;
  for (int i = 0; i < kTransfers; ++i) {
    EXPECT_DOUBLE_EQ(grants[i].wire_start.get(), i * wire) << "transfer " << i;
    EXPECT_DOUBLE_EQ(grants[i].delivery.get(), i * wire + (4.0 + wire)) << "transfer " << i;
    EXPECT_DOUBLE_EQ(grants[i].queue_wait_s, i * wire) << "transfer " << i;
  }
  // K-way contention over one link: the evacuation cannot finish faster
  // than K× the single-transfer wire time.
  EXPECT_GE(grants.back().delivery.get(), kTransfers * wire);

  engine.run();
  for (int i = 0; i < kTransfers; ++i) {
    EXPECT_DOUBLE_EQ(delivered_at[i], grants[i].delivery.get()) << "transfer " << i;
  }
  EXPECT_EQ(sched.queued_transfers(), 0u);
  EXPECT_EQ(sched.active_transfers(), 0u);
  EXPECT_DOUBLE_EQ(sched.total_queue_wait_s(), wire + 2 * wire + 3 * wire);
}

TEST(LinkScheduler, DistinctP2pLinksDoNotContend) {
  sim::Engine engine;
  TransferModel model{100.0, 0.0};
  LinkScheduler sched{engine, model, LinkMode::kP2p};

  const auto a = sched.submit(0, 1, 1000_mb, [] {});
  const auto b = sched.submit(0, 2, 1000_mb, [] {});  // different destination
  const auto c = sched.submit(2, 1, 1000_mb, [] {});  // different source
  for (const auto& g : {a, b, c}) {
    EXPECT_EQ(g.queue_wait_s, 0.0);
    EXPECT_DOUBLE_EQ(g.delivery.get(), 10.0);
  }
  EXPECT_EQ(sched.active_transfers(), 3u);
  engine.run();
}

TEST(LinkScheduler, UplinkModePoolsAllTransfersLeavingADomain) {
  sim::Engine engine;
  TransferModel model{100.0, 0.0};
  model.set_uplink_bandwidth(0, 50.0);  // wire = 20 s per 1000 MB
  // Per-pair bandwidth overrides do not apply in uplink mode — the pool
  // capacity governs; per-pair latency still does.
  model.set_link(0, 1, 1.0e6, 3.0);
  LinkScheduler sched{engine, model, LinkMode::kUplink};

  const auto a = sched.submit(0, 1, 1000_mb, [] {});
  const auto b = sched.submit(0, 2, 1000_mb, [] {});  // contends despite dest 2
  const auto c = sched.submit(1, 2, 1000_mb, [] {});  // other domain's uplink is free
  EXPECT_DOUBLE_EQ(a.delivery.get(), 3.0 + 20.0);
  EXPECT_DOUBLE_EQ(b.wire_start.get(), 20.0);
  EXPECT_DOUBLE_EQ(b.delivery.get(), 20.0 + 20.0);  // default latency 0 on 0→2
  EXPECT_DOUBLE_EQ(c.queue_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(c.delivery.get(), 10.0);  // default uplink 100 MB/s
  EXPECT_EQ(sched.queued_transfers(), 1u);  // only b waits
  engine.run();
}

TEST(LinkScheduler, DeterministicAcrossRuns) {
  // No randomness anywhere: replaying the same submission program gives
  // bit-identical grants, whatever seed the surrounding experiment uses.
  auto run_once = [] {
    sim::Engine engine;
    TransferModel model{125.0, 2.0};
    LinkScheduler sched{engine, model, LinkMode::kP2p};
    std::vector<double> deliveries;
    for (int i = 0; i < 5; ++i) {
      deliveries.push_back(sched.submit(0, 1, util::MemMb{300.0 + 100.0 * i}, [] {}).delivery.get());
    }
    engine.run();
    return deliveries;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(LinkScheduler, CancelQueuedCompactsThePoolAndNeverDelivers) {
  sim::Engine engine;
  TransferModel model{100.0, 4.0};  // wire = 10 s per 1000 MB
  LinkScheduler sched{engine, model, LinkMode::kP2p};

  std::vector<double> delivered_at(3, -1.0);
  std::vector<LinkScheduler::Grant> grants;
  for (int i = 0; i < 3; ++i) {
    grants.push_back(
        sched.submit(0, 1, 1000_mb, [&, i] { delivered_at[i] = engine.now().get(); }));
  }
  ASSERT_EQ(sched.queued_transfers(), 2u);

  // The transfer on the wire cannot be recalled; a queued one can, and
  // the transfer behind it moves up a full wire slot.
  EXPECT_FALSE(sched.cancel_queued(grants[0].id));
  EXPECT_TRUE(sched.cancel_queued(grants[1].id));
  EXPECT_FALSE(sched.cancel_queued(grants[1].id));  // idempotent: already gone
  EXPECT_FALSE(sched.cancel_queued(9999));          // unknown id
  EXPECT_EQ(sched.queued_transfers(), 1u);

  engine.run();
  EXPECT_DOUBLE_EQ(delivered_at[0], grants[0].delivery.get());
  EXPECT_DOUBLE_EQ(delivered_at[1], -1.0) << "cancelled transfer delivered";
  // Transfer 2 starts when transfer 0 leaves the wire (t=10), not at its
  // predicted t=20 slot behind the cancelled transfer 1.
  EXPECT_DOUBLE_EQ(delivered_at[2], 10.0 + (4.0 + 10.0));
  EXPECT_EQ(sched.queued_transfers(), 0u);
  EXPECT_EQ(sched.active_transfers(), 0u);
  // Only transfer 2's actually-served wait is credited.
  EXPECT_DOUBLE_EQ(sched.total_queue_wait_s(), 10.0);
}

TEST(LinkScheduler, RejectsDegenerateSubmissions) {
  sim::Engine engine;
  LinkScheduler sched{engine, TransferModel{}, LinkMode::kP2p};
  EXPECT_THROW((void)sched.submit(1, 1, 100_mb, [] {}), std::invalid_argument);
  EXPECT_THROW((void)sched.submit(0, 1, 0_mb, [] {}), std::invalid_argument);
}
