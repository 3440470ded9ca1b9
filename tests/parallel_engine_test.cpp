// Parallel engine tests: batch formation across shards, same-shard
// ordering, serial fallback for untagged events, deterministic staged-
// push replay, the fail-loud guards (past/lower-priority staged pushes,
// handle ops on an executing batch slot), the cross-thread handle
// liveness registry (handles created on one thread, probed/cancelled
// from another, and handles outliving their queue), a determinism
// stress comparing threads ∈ {2, 4, 8} against the serial reference,
// and the end-to-end bit-identity pins: single-world and federated runs
// with migration + power + faults + weight events must produce digest-
// identical output at every thread count.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"
#include "sim/event_queue.hpp"
#include "sim/worker_pool.hpp"
#include "util/config.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace heteroplace;

namespace {

constexpr auto kCtrl = sim::EventPriority::kController;
constexpr auto kState = sim::EventPriority::kStateTransition;
constexpr auto kPower = sim::EventPriority::kPower;

}  // namespace

// --- batch formation ---------------------------------------------------------

TEST(ParallelEngine, BatchFormsAcrossShards) {
  sim::Engine engine;
  engine.set_threads(4);
  std::atomic<int> ran{0};
  for (sim::ShardId s = 0; s < 4; ++s) {
    engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&] { ran.fetch_add(1); });
  }
  engine.run();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(engine.parallel_batches(), 1u);
  EXPECT_EQ(engine.batched_events(), 4u);
}

TEST(ParallelEngine, DifferentKeysDoNotBatch) {
  sim::Engine engine;
  engine.set_threads(4);
  int ran = 0;
  // Same time, different priorities: two separate batches (of one each,
  // which take the plain serial path — no batch counted).
  engine.schedule_at(util::Seconds{5.0}, kCtrl, 0, [&] { ++ran; });
  engine.schedule_at(util::Seconds{5.0}, kPower, 1, [&] { ++ran; });
  // Different times.
  engine.schedule_at(util::Seconds{6.0}, kCtrl, 0, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(engine.batched_events(), 0u);
}

TEST(ParallelEngine, SameShardKeepsPushOrder) {
  // All events on one shard at one key: they form a batch but the group
  // runs sequentially on one worker, in push (= serial pop) order.
  sim::Engine engine;
  engine.set_threads(4);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.schedule_at(util::Seconds{1.0}, kCtrl, 7, [&order, i] { order.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelEngine, UnshardedEventSplitsTheBatch) {
  // sharded, sharded, UNSHARDED, sharded at one key: the untagged event
  // must run serially, alone, between two batches — and overall
  // execution must follow strict queue order.
  sim::Engine engine;
  engine.set_threads(4);
  std::mutex mu;
  std::vector<int> order;
  auto log = [&](int i) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(i);
  };
  engine.schedule_at(util::Seconds{1.0}, kCtrl, 0, [&] { log(0); });
  engine.schedule_at(util::Seconds{1.0}, kCtrl, 0, [&] { log(1); });
  engine.schedule_at(util::Seconds{1.0}, kCtrl, [&] { log(2); });  // kNoShard
  engine.schedule_at(util::Seconds{1.0}, kCtrl, 1, [&] { log(3); });
  engine.run();
  ASSERT_EQ(order.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(engine.events_executed(), 4u);
}

// --- staged pushes -----------------------------------------------------------

namespace {

/// Shared harness: `shards` independent counters, each shard's event
/// reschedules itself with a data-dependent delay and bumps its counter.
/// Returns (final counters, total events) for digest comparison.
std::pair<std::vector<long>, std::uint64_t> run_storm(unsigned threads, int shards, double until) {
  sim::Engine engine;
  engine.set_threads(threads);
  std::vector<long> counters(static_cast<std::size_t>(shards), 0);
  std::vector<std::function<void()>> loops(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    loops[static_cast<std::size_t>(s)] = [&, s] {
      long& c = counters[static_cast<std::size_t>(s)];
      ++c;
      // Data-dependent fan-out: every third tick schedules an extra
      // same-time lower... no — strictly future event at a *different*
      // priority, exercising mixed-priority staged pushes.
      if (c % 3 == 0) {
        engine.schedule_in(util::Seconds{5.0}, kState, static_cast<sim::ShardId>(s),
                           [&counters, s] { counters[static_cast<std::size_t>(s)] += 10; });
      }
      // Re-arm on a lattice so distinct shards keep colliding at shared
      // timestamps (that is what forms batches).
      const double dt = 10.0 + static_cast<double>(c % 2) * 10.0;
      engine.schedule_in(util::Seconds{dt}, kCtrl, static_cast<sim::ShardId>(s),
                         loops[static_cast<std::size_t>(s)]);
    };
    engine.schedule_at(util::Seconds{10.0}, kCtrl, static_cast<sim::ShardId>(s),
                       loops[static_cast<std::size_t>(s)]);
  }
  engine.run_until(util::Seconds{until});
  return {counters, engine.events_executed()};
}

}  // namespace

TEST(ParallelEngine, StagedPushesReplayDeterministically) {
  const auto ref = run_storm(1, 6, 2000.0);
  for (unsigned threads : {2u, 4u, 8u}) {
    const auto got = run_storm(threads, 6, 2000.0);
    EXPECT_EQ(got.first, ref.first) << "threads=" << threads;
    EXPECT_EQ(got.second, ref.second) << "threads=" << threads;
  }
  // The parallel run must actually have batched (distinct shards collide
  // at t = 10, 30, 50, ... by construction).
  sim::Engine engine;
  engine.set_threads(4);
  // (re-run inline to observe counters on a live engine)
  std::atomic<int> n{0};
  for (sim::ShardId s = 0; s < 6; ++s) {
    engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&] { n.fetch_add(1); });
  }
  engine.run();
  EXPECT_GE(engine.parallel_batches(), 1u);
}

TEST(ParallelEngine, StagedPushIntoPastThrows) {
  sim::Engine engine;
  engine.set_threads(2);
  for (sim::ShardId s = 0; s < 2; ++s) {
    engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&engine] {
      // now == 10 inside the batch; scheduling before the batch time is
      // unreproducible in serial order and must fail loudly.
      engine.schedule_at(util::Seconds{10.0}, kState, 0, [] {});
    });
  }
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ParallelEngine, SameTimeSamePriorityStagedPushIsAllowed) {
  sim::Engine engine;
  engine.set_threads(2);
  std::atomic<int> ran{0};
  for (sim::ShardId s = 0; s < 2; ++s) {
    engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&, s] {
      // Equal (time, priority) staged pushes land after the batch in
      // replay order — legal and deterministic.
      engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&] { ran.fetch_add(1); });
    });
  }
  engine.run();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ParallelEngine, HandleOpsOnExecutingBatchEventThrow) {
  sim::Engine engine;
  engine.set_threads(2);
  sim::EventHandle h0;
  std::atomic<bool> tried{false};
  h0 = engine.schedule_at(util::Seconds{10.0}, kCtrl, 0, [] {});
  engine.schedule_at(util::Seconds{10.0}, kCtrl, 1, [&] {
    tried.store(true);
    h0.cancel();  // h0's slot is mid-execution in this very batch
  });
  try {
    engine.run();
    // Batch of 2 required for the guard to engage; if the events did not
    // land in one batch the cancel is a benign no-op. They do land in one
    // batch (same time, same priority, both sharded), so:
    FAIL() << "expected std::logic_error from cancelling an executing batch event";
  } catch (const std::logic_error&) {
    EXPECT_TRUE(tried.load());
  }
}

// --- cross-thread handle liveness (the registry bugfix) ----------------------

TEST(ParallelEngine, HandleCreatedOnMainUsableFromWorker) {
  // A handle captured on the main thread must be pend-able and
  // cancellable from inside a worker-thread batch item. The old
  // thread_local live-queue registry said "dead queue" for any queue not
  // registered on the *current* thread, silently misreporting liveness
  // on workers.
  sim::Engine engine;
  engine.set_threads(4);
  std::atomic<bool> future_ran{false};
  std::atomic<bool> was_pending{false};
  sim::EventHandle future =
      engine.schedule_at(util::Seconds{99.0}, kState, 2, [&] { future_ran.store(true); });
  for (sim::ShardId s = 0; s < 4; ++s) {
    engine.schedule_at(util::Seconds{10.0}, kCtrl, s, [&, s] {
      if (s == 2) {  // same shard as the target event: ordered access
        was_pending.store(future.pending());
        future.cancel();
      }
    });
  }
  engine.run();
  EXPECT_TRUE(was_pending.load());
  EXPECT_FALSE(future_ran.load());
}

TEST(ParallelEngine, HandleOutlivesQueueCrossThread) {
  sim::EventHandle h;
  {
    sim::EventQueue q;
    h = q.push(5.0, kCtrl, [] {});
    EXPECT_TRUE(h.pending());
    // Probe from a different thread while the queue is alive.
    bool seen = false;
    std::thread t([&] { seen = h.pending(); });
    t.join();
    EXPECT_TRUE(seen);
  }
  // Queue destroyed: the handle must answer false (not crash), from any
  // thread.
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
  bool dead = true;
  std::thread t([&] { dead = h.pending(); });
  t.join();
  EXPECT_FALSE(dead);
}

TEST(ParallelEngine, QueueIdsNeverRecycleLiveness) {
  // A new queue reusing the old one's registry cell must not revive
  // stale handles (ids are monotonic, cells compare by id).
  sim::EventHandle stale;
  {
    sim::EventQueue q;
    stale = q.push(1.0, kCtrl, [] {});
  }
  sim::EventQueue fresh;
  (void)fresh.push(1.0, kCtrl, [] {});
  EXPECT_FALSE(stale.pending());
  EXPECT_FALSE(stale.cancel());
}

// --- end-to-end bit-identity pins -------------------------------------------

namespace {

scenario::Scenario everything_on_scenario() {
  auto base = scenario::section3_scaled(0.2);  // 5 nodes, 160 jobs
  base.seed = 42;
  base.horizon_s = 40000.0;
  scenario::Scenario fs = scenario::federate(base, 3);
  // Align every domain's control phase so same-timestamp cycles collide
  // — aligned phases are what the parallel engine batches. (The default
  // stagger would leave nothing concurrent and the pin vacuous.)
  for (auto& d : fs.domains) d.first_cycle_at_s = 0.0;
  fs.migration.enabled = true;
  fs.migration.policy = "drain+rebalance";
  fs.migration.check_interval_s = 300.0;
  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1200.0;
  fs.faults.enabled = true;
  fs.faults.events.push_back({"node-crash", 1, 0, 0, 9000.0, 4000.0, 1.0});
  fs.faults.events.push_back({"blackout", 2, 0, 0, 15000.0, 2500.0, 1.0});
  fs.weight_events.push_back({0, 12000.0, 0.3});
  fs.weight_events.push_back({0, 24000.0, 1.0});
  return fs;
}

}  // namespace

TEST(ParallelEnginePin, AlignedFederationActuallyBatches) {
  // Direct engine probe: three aligned controller domains must produce
  // parallel batches (this is what makes the federated digest pin a real
  // statement about the parallel path, not a vacuous serial rerun).
  auto fs = everything_on_scenario();
  fs.engine_threads = 4;
  // run_federated_experiment hides its engine, so assert on a hand-built
  // equivalent: three shard-tagged no-op cycle loops on one clock.
  sim::Engine engine;
  engine.set_threads(4);
  std::vector<std::function<void()>> loops(3);
  for (sim::ShardId s = 0; s < 3; ++s) {
    loops[s] = [&engine, &loops, s] {
      engine.schedule_in(util::Seconds{600.0}, kCtrl, s, loops[s]);
    };
    engine.schedule_at(util::Seconds{0.0}, kCtrl, s, loops[s]);
  }
  engine.run_until(util::Seconds{6000.0});
  EXPECT_GE(engine.parallel_batches(), 10u);
  EXPECT_GE(engine.batched_events(), 30u);
}

TEST(ParallelEnginePin, SingleWorldBitIdentical) {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 30000.0;
  s.power.enabled = true;
  scenario::ExperimentOptions opt;
  s.engine_threads = 1;
  const auto ref = scenario::digest(scenario::run_experiment(s, opt));
  s.engine_threads = 4;
  const auto par = scenario::digest(scenario::run_experiment(s, opt));
  EXPECT_EQ(par, ref);
}

TEST(ParallelEnginePin, FederatedEverythingOnBitIdentical) {
  auto fs = everything_on_scenario();
  scenario::ExperimentOptions opt;
  fs.engine_threads = 1;
  const auto ref = scenario::digest(scenario::run_federated_experiment(fs, opt));
  for (int threads : {2, 4, 8}) {
    fs.engine_threads = threads;
    const auto par = scenario::digest(scenario::run_federated_experiment(fs, opt));
    EXPECT_EQ(par, ref) << "threads=" << threads;
  }
}

// --- config surface ----------------------------------------------------------

TEST(ParallelEngineConfig, ThreadsKeyParsesForOneAndManyDomains) {
  const auto cfg = util::Config::from_string("engine.threads = 4\n");
  EXPECT_EQ(scenario::scenario_from_config(cfg).engine_threads, 4);
  const auto fcfg = util::Config::from_string("engine.threads = 8\ndomains = 2\n");
  EXPECT_EQ(scenario::scenario_from_config(fcfg).engine_threads, 8);
  EXPECT_EQ(scenario::scenario_from_config(util::Config{}).engine_threads, 1);
}

TEST(ParallelEngineConfig, ZeroThreadsRejected) {
  EXPECT_THROW(
      (void)scenario::scenario_from_config(util::Config::from_string("engine.threads = 0\n")),
      util::ConfigError);
}

// --- OpenMP inside pool items --------------------------------------------------

TEST(WorkerPoolOpenMp, PoolThreadsRunOneThreadTeams) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  // Two items that each wait for the other to start: the calling thread
  // takes one, so the other must run on a pool thread.
  sim::WorkerPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> worker_items{0};
  std::atomic<int> worker_max_threads{-1};
  pool.run(2, [&](std::size_t) {
    started.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (std::this_thread::get_id() != caller) {
      worker_items.fetch_add(1);
      worker_max_threads.store(omp_get_max_threads());
    }
  });
  ASSERT_EQ(worker_items.load(), 1);
  EXPECT_EQ(worker_max_threads.load(), 1);
#endif
}
