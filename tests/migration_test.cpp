// Migration subsystem tests: checkpoint/restore fidelity, the transfer
// cost model, drain/rebalance policy proposals, the end-to-end drain of
// a domain (suspend → checkpoint → transfer → resume elsewhere, zero
// work lost), migration determinism across reruns, and the pin that a
// migration-disabled federated run is bit-identical to the
// pre-migration runner output.

#include "migration/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "core/utility_policy.hpp"
#include "migration/checkpoint.hpp"
#include "migration/policy.hpp"
#include "migration/transfer_model.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/federation_experiment.hpp"
#include "util/config.hpp"
#include "utility/utility_fn.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;

namespace {

std::unique_ptr<core::UtilityDrivenPolicy> make_policy() {
  return std::make_unique<core::UtilityDrivenPolicy>(
      std::make_shared<utility::JobUtilityModel>(), std::make_shared<utility::TxUtilityModel>());
}

workload::JobSpec make_job(unsigned id, double submit = 0.0) {
  workload::JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{3.0e6};  // 1000 s at full speed
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = util::Seconds{8000.0};
  return s;
}

workload::JobSpec make_sized_job(unsigned id, double work_mhz_s, double memory_mb) {
  workload::JobSpec s = make_job(id);
  s.work = util::MhzSeconds{work_mhz_s};
  s.memory = util::MemMb{memory_mb};
  return s;
}

void add_nodes(federation::Domain& d, int n) {
  d.world().cluster().add_nodes(n, cluster::Resources{12000_mhz, 4096_mb});
}

}  // namespace

// --- transfer model ----------------------------------------------------------

TEST(TransferModel, DefaultsAndOverrides) {
  migration::TransferModel m{100.0, 4.0};
  // Default link: latency + size / bandwidth.
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 1, 1000_mb).get(), 4.0 + 10.0);
  // Directed override applies one way only.
  m.set_link(0, 1, 500.0, 1.0);
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 1, 1000_mb).get(), 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(m.transfer_time(1, 0, 1000_mb).get(), 4.0 + 10.0);
  // Partial override through the single-component setters: the other
  // component keeps the default.
  m.set_link_latency(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(m.transfer_time(1, 2, 200_mb).get(), 0.5 + 2.0);
  m.set_link_bandwidth(2, 0, 50.0);
  EXPECT_DOUBLE_EQ(m.transfer_time(2, 0, 200_mb).get(), 4.0 + 4.0);
}

TEST(TransferModel, UplinkCapacityDefaultsAndOverrides) {
  migration::TransferModel m{100.0, 4.0};
  EXPECT_DOUBLE_EQ(m.uplink_bandwidth_mb_per_s(0), 100.0);
  m.set_uplink_bandwidth(0, 40.0);
  EXPECT_DOUBLE_EQ(m.uplink_bandwidth_mb_per_s(0), 40.0);
  EXPECT_DOUBLE_EQ(m.uplink_bandwidth_mb_per_s(1), 100.0);
  EXPECT_THROW(m.set_uplink_bandwidth(1, 0.0), std::invalid_argument);
  EXPECT_THROW(m.set_uplink_bandwidth(1, -5.0), std::invalid_argument);
}

TEST(TransferModel, IntraDomainAndEmptyImagesAreFree) {
  migration::TransferModel m;
  EXPECT_DOUBLE_EQ(m.transfer_time(2, 2, 4096_mb).get(), 0.0);
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 1, 0_mb).get(), 0.0);
}

TEST(TransferModel, RejectsBadParameters) {
  EXPECT_THROW(migration::TransferModel(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(migration::TransferModel(-10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(migration::TransferModel(10.0, -1.0), std::invalid_argument);
  migration::TransferModel m;
  EXPECT_THROW(m.set_link(1, 1, 10.0, 0.0), std::invalid_argument);
  // Regression: negative components used to be accepted at set time and
  // silently fell back to the defaults at read time. They must fail loud.
  EXPECT_THROW(m.set_link(0, 1, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.set_link(0, 1, -400.0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.set_link(0, 1, 100.0, -0.5), std::invalid_argument);
  EXPECT_THROW(m.set_link_bandwidth(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(m.set_link_latency(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(m.set_link_bandwidth(1, 1, 10.0), std::invalid_argument);
  EXPECT_THROW(m.set_link_latency(1, 1, 1.0), std::invalid_argument);
  // Nothing stuck: the rejected sets left the model untouched.
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 1, 125_mb).get(), 2.0 + 1.0);
}

// --- checkpoint/restore ------------------------------------------------------

TEST(Checkpoint, RoundTripPreservesProgressAndBookkeeping) {
  workload::Job job{make_job(7)};
  job.set_phase(0_s, workload::JobPhase::kRunning);
  job.set_speed(0_s, 3000_mhz);
  job.advance_to(util::Seconds{400.0});  // 1.2e6 MHz·s done
  job.set_phase(util::Seconds{400.0}, workload::JobPhase::kSuspended);
  job.count_suspend();

  const auto ckpt = migration::checkpoint_job(job, /*from_domain=*/1, util::Seconds{415.0});
  EXPECT_TRUE(ckpt.has_image);
  EXPECT_DOUBLE_EQ(ckpt.image_size.get(), 1300.0);
  EXPECT_DOUBLE_EQ(ckpt.done.get(), 1.2e6);
  EXPECT_EQ(ckpt.from_domain, 1u);

  workload::Job restored = migration::restore_job(ckpt, util::Seconds{500.0});
  EXPECT_EQ(restored.phase(), workload::JobPhase::kSuspended);
  EXPECT_DOUBLE_EQ(restored.done().get(), job.done().get());
  EXPECT_DOUBLE_EQ(restored.remaining().get(), job.remaining().get());
  EXPECT_EQ(restored.suspend_count(), 1);
  EXPECT_EQ(restored.id(), job.id());
  // No phantom progress accrues over the dead time.
  restored.advance_to(util::Seconds{2000.0});
  EXPECT_DOUBLE_EQ(restored.done().get(), 1.2e6);
}

TEST(Checkpoint, PendingJobHasNoImage) {
  workload::Job job{make_job(3)};
  const auto ckpt = migration::checkpoint_job(job, 0, 0_s);
  EXPECT_FALSE(ckpt.has_image);
  EXPECT_DOUBLE_EQ(ckpt.image_size.get(), 0.0);
  workload::Job restored = migration::restore_job(ckpt, 10_s);
  EXPECT_EQ(restored.phase(), workload::JobPhase::kPending);
}

TEST(Checkpoint, RejectsTransitioningJobs) {
  workload::Job job{make_job(4)};
  job.set_phase(0_s, workload::JobPhase::kStarting);
  EXPECT_THROW((void)migration::checkpoint_job(job, 0, 0_s), std::logic_error);
}

// --- policies ----------------------------------------------------------------

namespace {

/// Federation with three 2-node domains and `jobs` pending jobs routed in.
struct PolicyFixture {
  sim::Engine engine;
  federation::Federation fed;

  explicit PolicyFixture(int jobs) : fed(engine, federation::make_router("capacity-weighted")) {
    for (int i = 0; i < 3; ++i) {
      add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
    }
    for (int id = 0; id < jobs; ++id) fed.submit_job(make_job(static_cast<unsigned>(id)));
  }
};

}  // namespace

TEST(DrainPolicy, EvacuatesOnlyDrainedDomainsToHealthyOnes) {
  PolicyFixture fx{9};  // 3 jobs per domain (equal capacity round-robin)
  fx.fed.set_domain_weight(1, 0.0);

  migration::DrainPolicy policy;
  const auto status = fx.fed.status(0_s);
  const auto moves = policy.propose(fx.fed, status, 0_s, /*budget=*/100);

  ASSERT_EQ(moves.size(), 3u);  // exactly domain 1's jobs
  for (const auto& mv : moves) {
    EXPECT_EQ(mv.from, 1u);
    EXPECT_NE(mv.to, 1u);
    EXPECT_GT(fx.fed.domain(mv.to).weight(), 0.0) << "moved into a drained domain";
    EXPECT_EQ(fx.fed.job_domain(mv.job), 1u);
  }
  // Assignments spread over both healthy destinations.
  std::set<std::size_t> dests;
  for (const auto& mv : moves) dests.insert(mv.to);
  EXPECT_EQ(dests.size(), 2u);
}

TEST(DrainPolicy, RespectsBudgetAndHealthyFederationIsQuiet) {
  PolicyFixture fx{9};
  migration::DrainPolicy policy;
  EXPECT_TRUE(policy.propose(fx.fed, fx.fed.status(0_s), 0_s, 100).empty());

  fx.fed.set_domain_weight(0, 0.0);
  EXPECT_EQ(policy.propose(fx.fed, fx.fed.status(0_s), 0_s, 2).size(), 2u);
}

TEST(DrainPolicy, NoHealthyDestinationProposesNothing) {
  PolicyFixture fx{6};
  for (int i = 0; i < 3; ++i) fx.fed.set_domain_weight(i, 0.0);
  migration::DrainPolicy policy;
  EXPECT_TRUE(policy.propose(fx.fed, fx.fed.status(0_s), 0_s, 100).empty());
}

TEST(RebalancePolicy, MovesFromOverloadedToUnderloadedOnly) {
  // Lopsided: all 9 jobs in domain 0 (route before others exist is not
  // possible through the router, so craft via sticky... simpler: three
  // domains, drain 1 and 2 while submitting so everything lands on 0).
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  fed.set_domain_weight(1, 0.0);
  fed.set_domain_weight(2, 0.0);
  for (unsigned id = 0; id < 9; ++id) fed.submit_job(make_job(id));
  fed.set_domain_weight(1, 1.0);
  fed.set_domain_weight(2, 1.0);

  // Domain 0: 9 × 3000 MHz offered on 24000 MHz effective → 1.125 > 1.1.
  migration::PolicyConfig cfg;
  const auto moves =
      migration::RebalancePolicy{cfg}.propose(fed, fed.status(0_s), 0_s, /*budget=*/100);
  ASSERT_FALSE(moves.empty());
  for (const auto& mv : moves) {
    EXPECT_EQ(mv.from, 0u);
    EXPECT_NE(mv.to, 0u);
  }
  // It stops once the source dips below the high watermark: moving one
  // job leaves 8 × 3000 / 24000 = 1.0 < 1.1.
  EXPECT_EQ(moves.size(), 1u);
}

TEST(DrainPolicy, CostSelectionRanksByImagePerRemainingWork) {
  // One drained domain, one healthy destination. Jobs differ in image
  // size and remaining work; a pending job rides along for free.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 2; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  fed.set_domain_weight(1, 0.0);
  // cost = image MB / remaining seconds at full speed:
  fed.submit_job(make_sized_job(0, 3.0e6, 2000.0));  // 2000 / 1000 s → 2.0
  fed.submit_job(make_sized_job(1, 1.5e6, 500.0));   // 500 / 500 s   → 1.0
  fed.submit_job(make_sized_job(2, 3.0e6, 1500.0));  // 1500 / 1000 s → 1.5
  fed.submit_job(make_sized_job(3, 3.0e6, 4000.0));  // pending: no image → 0
  fed.set_domain_weight(1, 1.0);
  ASSERT_EQ(fed.jobs_per_domain()[0], 4);
  // Jobs 0-2 "run" (they would carry a VM image); job 3 stays pending.
  for (unsigned id = 0; id < 3; ++id) {
    fed.domain(0).world().job(util::JobId{id}).set_phase(0_s, workload::JobPhase::kRunning);
  }
  fed.set_domain_weight(0, 0.0);  // drain the hosting domain

  migration::PolicyConfig fifo_cfg;
  const auto fifo =
      migration::DrainPolicy{fifo_cfg}.propose(fed, fed.status(0_s), 0_s, /*budget=*/100);
  ASSERT_EQ(fifo.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(fifo[i].job, util::JobId{i}) << "fifo order";

  migration::PolicyConfig cost_cfg;
  cost_cfg.selection = migration::SelectionMode::kCost;
  const auto cost =
      migration::DrainPolicy{cost_cfg}.propose(fed, fed.status(0_s), 0_s, /*budget=*/100);
  ASSERT_EQ(cost.size(), 4u);
  EXPECT_EQ(cost[0].job, util::JobId{3});  // free pending move leads
  EXPECT_EQ(cost[1].job, util::JobId{1});
  EXPECT_EQ(cost[2].job, util::JobId{2});
  EXPECT_EQ(cost[3].job, util::JobId{0});
}

TEST(RebalancePolicy, CostSelectionPicksCheapestMoveFirst) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 2; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  fed.set_domain_weight(1, 0.0);
  fed.submit_job(make_sized_job(0, 3.0e6, 2000.0));  // cost 2.0
  fed.submit_job(make_sized_job(1, 3.0e6, 800.0));   // cost 0.8
  for (unsigned id = 0; id < 2; ++id) fed.submit_job(make_job(10 + id));  // load filler
  fed.set_domain_weight(1, 1.0);
  for (util::JobId id : fed.domain(0).world().job_order()) {
    fed.domain(0).world().job(id).set_phase(0_s, workload::JobPhase::kRunning);
  }
  // d0: 4 × 3000 MHz on 24000 effective → 0.5… not overloaded; shrink
  // the watermarks so d0 counts as overloaded and d1 as underloaded.
  migration::PolicyConfig cfg;
  cfg.high_watermark = 0.4;
  cfg.low_watermark = 0.2;

  const auto fifo = migration::RebalancePolicy{cfg}.propose(fed, fed.status(0_s), 0_s, 1);
  ASSERT_EQ(fifo.size(), 1u);
  EXPECT_EQ(fifo[0].job, util::JobId{0});  // list order

  cfg.selection = migration::SelectionMode::kCost;
  const auto cost = migration::RebalancePolicy{cfg}.propose(fed, fed.status(0_s), 0_s, 1);
  ASSERT_EQ(cost.size(), 1u);
  EXPECT_EQ(cost[0].job, util::JobId{1});  // cheapest image per remaining second
}

TEST(DrainPolicy, TwoDrainedDomainsBothEvacuateInOnePass) {
  // Pins the loop structure: one pass must propose every drained
  // domain's jobs, not stop at the first domain (the proposal loop used
  // to `return` on a no-destination job mid-pass — equivalent today
  // because destination eligibility is source-independent, but a
  // landmine once destination choice becomes job-aware).
  PolicyFixture fx{9};  // 3 jobs per domain
  fx.fed.set_domain_weight(0, 0.0);
  fx.fed.set_domain_weight(1, 0.0);

  migration::DrainPolicy policy;
  const auto moves = policy.propose(fx.fed, fx.fed.status(0_s), 0_s, /*budget=*/100);
  ASSERT_EQ(moves.size(), 6u);  // all of d0's and d1's jobs
  std::size_t from_d0 = 0;
  std::size_t from_d1 = 0;
  for (const auto& mv : moves) {
    EXPECT_EQ(mv.to, 2u) << "only healthy destination";
    if (mv.from == 0) ++from_d0;
    if (mv.from == 1) ++from_d1;
  }
  EXPECT_EQ(from_d0, 3u);
  EXPECT_EQ(from_d1, 3u);
}

TEST(MigrationPolicyFactory, NamesAndComposite) {
  EXPECT_EQ(migration::make_migration_policy("drain")->name(), "drain");
  EXPECT_EQ(migration::make_migration_policy("rebalance")->name(), "rebalance");
  EXPECT_EQ(migration::make_migration_policy("drain+rebalance")->name(), "drain+rebalance");
  EXPECT_THROW(migration::make_migration_policy("teleport"), std::invalid_argument);
}

// --- end-to-end drain (direct federation) ------------------------------------

TEST(MigrationIntegration, DrainEvacuatesRunningJobsWithZeroWorkLost) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);

  migration::MigrationOptions opts;
  opts.check_interval = util::Seconds{60.0};
  migration::MigrationManager mgr(fed, migration::TransferModel{},
                                  migration::make_migration_policy("drain"), opts);

  for (unsigned id = 0; id < 6; ++id) {
    const auto spec = make_job(id);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
  }
  // Drain whatever domain owns job 0 mid-execution (jobs run from ~60 s
  // to ~1060 s at full speed).
  std::size_t drained = 99;
  engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival, [&] {
    drained = fed.job_domain(util::JobId{0});
    fed.set_domain_weight(drained, 0.0);
  });

  fed.start();
  mgr.start();
  while (fed.total_completed() < 6 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }

  ASSERT_EQ(fed.total_completed(), 6u);
  ASSERT_LT(drained, 3u);

  // The drained domain evacuated everything it was running.
  EXPECT_GT(mgr.stats().started, 0);
  EXPECT_EQ(mgr.stats().started, mgr.stats().completed);
  EXPECT_EQ(mgr.stats().in_flight, 0);
  // Exact checkpoints: nothing beyond the modeled suspend/transfer cost.
  EXPECT_DOUBLE_EQ(mgr.stats().work_lost_mhz_s, 0.0);
  EXPECT_GT(mgr.stats().bytes_moved_mb, 0.0);
  EXPECT_GT(mgr.stats().transfer_seconds, 0.0);

  // Registry ↔ world consistency: every job completed inside the domain
  // the registry points at, and nowhere else.
  std::size_t migrated = 0;
  for (unsigned id = 0; id < 6; ++id) {
    const std::size_t owner = fed.job_domain(util::JobId{id});
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(fed.domain(d).world().job_exists(util::JobId{id}), d == owner);
    }
    const auto& job = fed.domain(owner).world().job(util::JobId{id});
    EXPECT_EQ(job.phase(), workload::JobPhase::kCompleted);
    EXPECT_GE(job.done().get(), job.spec().work.get() - 1e-6) << "work lost for job " << id;
    if (job.migrate_count() > 0) ++migrated;
    EXPECT_NE(owner, drained) << "job " << id << " finished inside the drained domain";
  }
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(fed.domain(drained).world().active_jobs().size(), 0u);

  // Cluster invariants hold everywhere after the handoffs.
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(fed.domain(d).world().cluster().validate().empty()) << "domain " << d;
  }

  // Satellite pin: the incrementally maintained router aggregates match
  // a from-scratch recomputation after submissions, completions and
  // cross-domain handoffs.
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(fed.domain(d).offered_cpu_load(engine.now()).get(),
                     fed.domain(d).offered_cpu_load_recomputed(engine.now()).get())
        << "domain " << d;
    std::size_t recount = 0;
    for (util::JobId id : fed.domain(d).world().job_order()) {
      if (fed.domain(d).world().job(id).phase() != workload::JobPhase::kCompleted) ++recount;
    }
    EXPECT_EQ(fed.domain(d).active_job_count(), recount) << "domain " << d;
  }
}

namespace {

struct DrainRun {
  migration::MigrationStats stats;
  /// Max DomainStatus::outbound_transfers_queued observed on the drained
  /// domain while the evacuation was in flight (the Federation status
  /// plumbing fed by the manager's transfer-queue probe).
  std::size_t max_status_queue{0};
};

/// Drive a 3-domain federation to t=500 with 6 running jobs, then drain
/// the domain owning job 0 and run to completion under the given link
/// mode, sampling Federation::status each second around the evacuation.
DrainRun drain_with_link_mode(migration::LinkMode mode) {
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);

  migration::MigrationOptions opts;
  opts.check_interval = util::Seconds{60.0};
  opts.link_mode = mode;
  migration::MigrationManager mgr(fed, migration::TransferModel{},
                                  migration::make_migration_policy("drain"), opts);

  for (unsigned id = 0; id < 6; ++id) {
    const auto spec = make_job(id);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
  }
  std::size_t drained = 99;
  engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival, [&] {
    drained = fed.job_domain(util::JobId{0});
    fed.set_domain_weight(drained, 0.0);
  });
  DrainRun run;
  for (int t = 501; t < 700; ++t) {
    engine.schedule_at(util::Seconds{static_cast<double>(t)}, sim::EventPriority::kSampling, [&] {
      const auto status = fed.status(engine.now());
      run.max_status_queue =
          std::max(run.max_status_queue, status.at(drained).outbound_transfers_queued);
    });
  }
  fed.start();
  mgr.start();
  while (fed.total_completed() < 6 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }
  EXPECT_EQ(fed.total_completed(), 6u);
  EXPECT_EQ(mgr.stats().started, mgr.stats().completed);
  EXPECT_DOUBLE_EQ(mgr.stats().work_lost_mhz_s, 0.0);
  run.stats = mgr.stats();
  return run;
}

}  // namespace

TEST(MigrationIntegration, UplinkModeSerializesAnEvacuationP2pDoesNot) {
  // The drained domain evacuates two running jobs to two different
  // destinations. In p2p mode the two pairs are independent pools —
  // nothing waits. In uplink mode both transfers leave through the
  // source's single uplink: the second waits exactly one wire time
  // (1300 MB at the 125 MB/s default = 10.4 s).
  const auto p2p = drain_with_link_mode(migration::LinkMode::kP2p);
  EXPECT_EQ(p2p.stats.started, 2);
  EXPECT_DOUBLE_EQ(p2p.stats.queue_wait_seconds, 0.0);
  EXPECT_EQ(p2p.max_status_queue, 0u);  // independent pairs: nothing waits

  const auto uplink = drain_with_link_mode(migration::LinkMode::kUplink);
  EXPECT_EQ(uplink.stats.started, 2);
  const double wire = 1300.0 / 125.0;
  EXPECT_NEAR(uplink.stats.queue_wait_seconds, wire, 1e-6);
  // The queued transfer was visible through Federation::status while it
  // waited (the manager's transfer-queue probe).
  EXPECT_EQ(uplink.max_status_queue, 1u);
  // Same images, same modeled uncontended time — contention only queues.
  EXPECT_DOUBLE_EQ(uplink.stats.bytes_moved_mb, p2p.stats.bytes_moved_mb);
  EXPECT_DOUBLE_EQ(uplink.stats.transfer_seconds, p2p.stats.transfer_seconds);
}

// --- runner-level scenarios --------------------------------------------------

namespace {

scenario::Scenario drain_scenario() {
  auto base = scenario::section3_scaled(0.2);  // 5 nodes, 160 jobs
  base.seed = 42;
  scenario::Scenario fs = scenario::federate(base, 3);
  fs.weight_events.push_back({0, 15000.0, 0.0});
  fs.weight_events.push_back({0, 35000.0, 1.0});
  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;
  return fs;
}

const scenario::FederatedResult& drain_run() {
  static const scenario::FederatedResult r = [] {
    scenario::ExperimentOptions opt;
    opt.validate_invariants = true;
    opt.max_sim_time_s = 2.0e6;
    return scenario::run_federated_experiment(drain_scenario(), opt);
  }();
  return r;
}

void expect_same_series(const util::TimeSeriesSet& a, const util::TimeSeriesSet& b,
                        const std::string& name) {
  const auto* sa = a.find(name);
  const auto* sb = b.find(name);
  ASSERT_NE(sa, nullptr) << name;
  ASSERT_NE(sb, nullptr) << name;
  ASSERT_EQ(sa->size(), sb->size()) << name;
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_DOUBLE_EQ(sa->points()[i].t, sb->points()[i].t) << name << " point " << i;
    EXPECT_DOUBLE_EQ(sa->points()[i].v, sb->points()[i].v) << name << " point " << i;
  }
}

}  // namespace

TEST(MigrationScenario, DrainScenarioCompletesEverythingAndMigStatsAreConsistent) {
  const auto& r = drain_run();
  EXPECT_EQ(r.summary.jobs_completed, 160);
  EXPECT_EQ(r.summary.invariant_violations, 0);

  EXPECT_GT(r.migration.started, 0);
  EXPECT_EQ(r.migration.started, r.migration.completed);
  EXPECT_EQ(r.migration.in_flight, 0);
  EXPECT_DOUBLE_EQ(r.migration.work_lost_mhz_s, 0.0);

  // End-of-run ownership is consistent: the registry count equals the
  // jobs each world actually holds, federation-wide.
  long routed = 0;
  long submitted = 0;
  for (const auto& d : r.domains) {
    routed += d.jobs_routed;
    submitted += d.result.summary.jobs_submitted;
    EXPECT_EQ(d.jobs_routed, d.result.summary.jobs_submitted) << d.name;
  }
  EXPECT_EQ(routed, 160);
  EXPECT_EQ(submitted, 160);

  // The sampled mig_* series are cumulative and end at the summary values.
  const auto* started = r.series.find("mig_started");
  const auto* completed = r.series.find("mig_completed");
  const auto* lost = r.series.find("mig_work_lost_mhz_s");
  ASSERT_NE(started, nullptr);
  ASSERT_NE(completed, nullptr);
  ASSERT_NE(lost, nullptr);
  EXPECT_DOUBLE_EQ(started->points().back().v, static_cast<double>(r.migration.started));
  EXPECT_DOUBLE_EQ(completed->points().back().v, static_cast<double>(r.migration.completed));
  for (std::size_t i = 1; i < started->size(); ++i) {
    EXPECT_GE(started->points()[i].v, started->points()[i - 1].v) << "not cumulative";
    EXPECT_GE(started->points()[i].v, completed->points()[i].v) << "completed before started";
  }
  for (const auto& p : lost->points()) EXPECT_DOUBLE_EQ(p.v, 0.0);
}

TEST(MigrationScenario, IdenticalSeedsGiveIdenticalMigSeries) {
  // Determinism: a fresh rerun of the same scenario reproduces every
  // mig_* sample and summary counter bit for bit.
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  opt.max_sim_time_s = 2.0e6;
  const auto rerun = scenario::run_federated_experiment(drain_scenario(), opt);
  const auto& first = drain_run();

  EXPECT_EQ(rerun.migration.started, first.migration.started);
  EXPECT_EQ(rerun.migration.completed, first.migration.completed);
  EXPECT_DOUBLE_EQ(rerun.migration.bytes_moved_mb, first.migration.bytes_moved_mb);
  EXPECT_DOUBLE_EQ(rerun.migration.transfer_seconds, first.migration.transfer_seconds);
  for (const char* name : {"mig_started", "mig_completed", "mig_in_flight", "mig_bytes_mb",
                           "mig_transfer_s", "mig_work_lost_mhz_s", "mig_queue_depth",
                           "mig_queue_wait_s", "mig_active_transfers", "fed_jobs_running",
                           "fed_jobs_completed"}) {
    expect_same_series(rerun.series, first.series, name);
  }
  EXPECT_EQ(rerun.summary.jobs_completed, first.summary.jobs_completed);
  EXPECT_DOUBLE_EQ(rerun.summary.tx_utility.mean(), first.summary.tx_utility.mean());
  EXPECT_DOUBLE_EQ(rerun.summary.job_utility.mean(), first.summary.job_utility.mean());
}

TEST(MigrationScenario, DisabledRunsAreBitIdenticalToEnabledIdleRuns) {
  // A migration-enabled run whose policy never proposes anything (drain
  // policy, no drained domains) must reproduce the migration-disabled
  // run exactly: manager ticks observe but never mutate. This pins
  // "migration disabled == pre-migration output" from the other side.
  auto base = scenario::section3_scaled(0.2);
  base.seed = 42;
  scenario::Scenario off = scenario::federate(base, 3);
  scenario::Scenario idle = off;
  idle.migration.enabled = true;
  idle.migration.policy = "drain";

  scenario::ExperimentOptions opt;
  opt.max_sim_time_s = 2.0e6;
  const auto r_off = scenario::run_federated_experiment(off, opt);
  const auto r_idle = scenario::run_federated_experiment(idle, opt);

  // Disabled runs carry no mig_* series at all; idle runs carry flat zeros.
  EXPECT_EQ(r_off.series.find("mig_started"), nullptr);
  ASSERT_NE(r_idle.series.find("mig_started"), nullptr);
  EXPECT_EQ(r_idle.migration.started, 0);

  ASSERT_EQ(r_off.domains.size(), r_idle.domains.size());
  for (const char* name :
       {"fed_tx_alloc_mhz", "fed_lr_alloc_mhz", "fed_jobs_running", "fed_jobs_completed"}) {
    expect_same_series(r_off.series, r_idle.series, name);
  }
  for (std::size_t d = 0; d < r_off.domains.size(); ++d) {
    for (const char* name : {"u_star", "tx_alloc_mhz", "lr_alloc_mhz", "active_jobs",
                             "suspends", "migrations", "jobs_completed"}) {
      expect_same_series(r_off.domains[d].result.series, r_idle.domains[d].result.series, name);
    }
    EXPECT_EQ(r_off.domains[d].result.summary.jobs_completed,
              r_idle.domains[d].result.summary.jobs_completed);
    EXPECT_DOUBLE_EQ(r_off.domains[d].result.summary.tx_utility.mean(),
                     r_idle.domains[d].result.summary.tx_utility.mean());
  }
}

TEST(MigrationScenario, ConfigKeysRoundTripThroughLoader) {
  util::Config cfg;
  cfg.set("domains", "3");
  cfg.set("migration.enabled", "true");
  cfg.set("migration.policy", "drain+rebalance");
  cfg.set("migration.check_interval_s", "45");
  cfg.set("migration.max_moves_per_tick", "3");
  cfg.set("migration.default_bandwidth_mb_per_s", "250");
  cfg.set("migration.selection", "cost");
  cfg.set("migration.align_attach", "true");
  cfg.set("bandwidth.0.1", "500");
  cfg.set("link_latency.2.0", "9.5");
  const auto fs = scenario::scenario_from_config(cfg);
  EXPECT_TRUE(fs.migration.enabled);
  EXPECT_EQ(fs.migration.policy, "drain+rebalance");
  EXPECT_TRUE(fs.migration.align_attach);
  EXPECT_DOUBLE_EQ(fs.migration.check_interval_s, 45.0);
  EXPECT_EQ(fs.migration.max_moves_per_tick, 3);
  EXPECT_DOUBLE_EQ(fs.migration.default_bandwidth_mb_per_s, 250.0);
  EXPECT_EQ(fs.migration.link_mode, "p2p");
  EXPECT_EQ(fs.migration.selection, "cost");
  ASSERT_EQ(fs.migration.links.size(), 2u);
  EXPECT_EQ(fs.migration.links[0].from, 0u);
  EXPECT_EQ(fs.migration.links[0].to, 1u);
  EXPECT_DOUBLE_EQ(fs.migration.links[0].bandwidth_mb_per_s, 500.0);
  EXPECT_DOUBLE_EQ(fs.migration.links[0].latency_s, -1.0);
  EXPECT_EQ(fs.migration.links[1].from, 2u);
  EXPECT_EQ(fs.migration.links[1].to, 0u);
  EXPECT_DOUBLE_EQ(fs.migration.links[1].latency_s, 9.5);

  // Uplink-mode round trip: pool capacities plus per-pair latencies.
  util::Config up;
  up.set("domains", "3");
  up.set("migration.link_mode", "uplink");
  up.set("uplink_bandwidth.1", "75");
  up.set("link_latency.1.0", "3.5");
  const auto ufs = scenario::scenario_from_config(up);
  EXPECT_EQ(ufs.migration.link_mode, "uplink");
  ASSERT_EQ(ufs.migration.uplinks.size(), 1u);
  EXPECT_EQ(ufs.migration.uplinks[0].domain, 1u);
  EXPECT_DOUBLE_EQ(ufs.migration.uplinks[0].bandwidth_mb_per_s, 75.0);
  ASSERT_EQ(ufs.migration.links.size(), 1u);
  EXPECT_DOUBLE_EQ(ufs.migration.links[0].latency_s, 3.5);

  util::Config bad;
  bad.set("migration.policy", "teleport");
  EXPECT_THROW((void)scenario::scenario_from_config(bad), util::ConfigError);
}

TEST(MigrationScenario, ModeInapplicableLinkKeysAreRejected) {
  // A link setting the selected mode never reads is a config mistake,
  // not a no-op: uplink capacities need uplink mode...
  util::Config up_in_p2p;
  up_in_p2p.set("domains", "2");
  up_in_p2p.set("uplink_bandwidth.0", "20");
  EXPECT_THROW((void)scenario::scenario_from_config(up_in_p2p), util::ConfigError);

  // ...and per-pair bandwidth is meaningless against a shared pool
  // (per-pair latency remains valid there).
  util::Config pair_in_uplink;
  pair_in_uplink.set("domains", "2");
  pair_in_uplink.set("migration.link_mode", "uplink");
  pair_in_uplink.set("bandwidth.0.1", "500");
  EXPECT_THROW((void)scenario::scenario_from_config(pair_in_uplink),
               util::ConfigError);
}

TEST(MigrationScenario, RemovedBandwidthAliasIsAnUnknownKey) {
  util::Config cfg;
  cfg.set("migration.default_bandwidth_mbps", "250");
  try {
    (void)scenario::scenario_from_config(cfg);
    FAIL() << "removed alias accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown scenario config key: 'migration.default_bandwidth_mbps'");
  }
}

TEST(MigrationScenario, LoaderAndRunnerShareOneValidator) {
  // A bad link override fails with the same config-key message whether it
  // arrives as config text or as a hand-built spec handed to the runner.
  const auto message_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const util::ConfigError& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::pair<const char*, scenario::LinkSpec> cases[] = {
      {"bandwidth.0.1 = -400\n", {0, 1, -400.0, -1.0}},
      {"link_latency.1.0 = -3\n", {1, 0, -1.0, -3.0}},
      {"bandwidth.0.2 = 50\n", {0, 2, 50.0, -1.0}},
  };
  for (const auto& [text, link] : cases) {
    const std::string loaded = message_of([&] {
      (void)scenario::scenario_from_config(
          util::Config::from_string(std::string("nodes = 4\ndomains = 2\n") + text));
    });
    auto base = scenario::section3_scaled(0.2);
    base.horizon_s = 600.0;
    scenario::Scenario fs = scenario::federate(base, 2);
    fs.migration.enabled = true;
    fs.migration.links.push_back(link);
    const std::string ran = message_of([&] { (void)scenario::run_federated_experiment(fs); });
    EXPECT_NE(loaded, "accepted") << text;
    EXPECT_EQ(loaded, ran) << text;
  }
  EXPECT_EQ(message_of([] {
              (void)scenario::scenario_from_config(
                  util::Config::from_string("domains = 2\nbandwidth.0.1 = -400\n"));
            }),
            "bandwidth.0.1: must be positive");

  // Keys whose suffix is not canonical domain indices are unknown keys.
  for (const char* key : {"bandwidth.0.x", "bandwidth.01.1", "bandwidth.0.1.2",
                          "link_latency.1", "uplink_bandwidth.+1"}) {
    util::Config cfg;
    cfg.set("domains", "2");
    cfg.set(key, "5");
    EXPECT_EQ(message_of([&] { (void)scenario::scenario_from_config(cfg); }),
              std::string("unknown scenario config key: '") + key + "'");
  }
}

TEST(MigrationScenario, LinkModeAndSelectionKeysAreValidated) {
  util::Config mode;
  mode.set("migration.link_mode", "wormhole");
  EXPECT_THROW((void)scenario::scenario_from_config(mode), util::ConfigError);

  util::Config sel;
  sel.set("migration.selection", "random");
  EXPECT_THROW((void)scenario::scenario_from_config(sel), util::ConfigError);

  util::Config uplink;
  uplink.set("domains", "2");
  uplink.set("migration.link_mode", "uplink");
  uplink.set("uplink_bandwidth.0", "-10");
  EXPECT_THROW((void)scenario::scenario_from_config(uplink), util::ConfigError);
}

TEST(MigrationIntegration, RebalanceMovesPendingJobsInstantly) {
  // Pending (never-started) jobs carry no VM image: a rebalance move
  // re-routes them synchronously — no suspend, no wire time, no bytes.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  fed.set_domain_weight(1, 0.0);
  fed.set_domain_weight(2, 0.0);
  for (unsigned id = 0; id < 9; ++id) fed.submit_job(make_job(id));  // all land on d0
  fed.set_domain_weight(1, 1.0);
  fed.set_domain_weight(2, 1.0);
  ASSERT_EQ(fed.jobs_per_domain()[0], 9);

  migration::MigrationManager mgr(fed, migration::TransferModel{},
                                  migration::make_migration_policy("rebalance"),
                                  migration::MigrationOptions{});
  mgr.tick();

  EXPECT_EQ(mgr.stats().started, 1);
  EXPECT_EQ(mgr.stats().completed, 1);  // instant: no image to ship
  EXPECT_EQ(mgr.stats().in_flight, 0);
  EXPECT_DOUBLE_EQ(mgr.stats().bytes_moved_mb, 0.0);
  EXPECT_DOUBLE_EQ(mgr.stats().transfer_seconds, 0.0);
  EXPECT_EQ(fed.jobs_per_domain()[0], 8);
  // The moved job lives in its new world, in phase pending, unheld.
  const std::size_t owner = fed.job_domain(util::JobId{0});
  EXPECT_NE(owner, 0u);
  const auto& job = fed.domain(owner).world().job(util::JobId{0});
  EXPECT_EQ(job.phase(), workload::JobPhase::kPending);
  EXPECT_FALSE(job.held());
  // Aggregates followed the move.
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(fed.domain(d).offered_cpu_load(engine.now()).get(),
                     fed.domain(d).offered_cpu_load_recomputed(engine.now()).get());
  }
}

TEST(MigrationScenario, NegativeLinkOverridesFailLoudly) {
  util::Config bw;
  bw.set("domains", "2");
  bw.set("bandwidth.0.1", "-400");  // sign typo must not read as "unset"
  EXPECT_THROW((void)scenario::scenario_from_config(bw), util::ConfigError);

  util::Config lat;
  lat.set("domains", "2");
  lat.set("link_latency.1.0", "-3");
  EXPECT_THROW((void)scenario::scenario_from_config(lat), util::ConfigError);
}

TEST(CompositePolicy, RebalanceSeesDrainStageLoadShifts) {
  // d0 drained with 2 jobs, d1 lightly loaded, d2 overloaded. The drain
  // wave lands on d1 and pushes it past the rebalance low watermark —
  // the rebalance stage must see that and stay quiet, instead of piling
  // d2's jobs onto d1 from the stale snapshot.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  unsigned id = 0;
  auto submit_to = [&](std::size_t target, int count) {
    for (std::size_t d = 0; d < 3; ++d) fed.set_domain_weight(d, d == target ? 1.0 : 0.0);
    for (int n = 0; n < count; ++n) fed.submit_job(make_job(id++));
  };
  submit_to(0, 2);  // 6000 MHz offered
  submit_to(1, 5);  // 15000 MHz on 24000 effective → 0.625
  submit_to(2, 9);  // 27000 MHz on 24000 effective → 1.125
  fed.set_domain_weight(0, 0.0);
  fed.set_domain_weight(1, 1.0);
  fed.set_domain_weight(2, 1.0);

  const auto status = fed.status(0_s);
  // The rebalance stage alone, on the raw snapshot, would move work to d1.
  const auto naive = migration::RebalancePolicy{}.propose(fed, status, 0_s, 100);
  ASSERT_FALSE(naive.empty());
  EXPECT_EQ(naive.front().to, 1u);

  // Composite: drain's two evacuees land on d1 (21000 → 0.875 > 0.8),
  // leaving the rebalance stage no destination.
  auto composite = migration::make_migration_policy("drain+rebalance");
  const auto moves = composite->propose(fed, status, 0_s, 100);
  ASSERT_EQ(moves.size(), 2u);
  for (const auto& mv : moves) {
    EXPECT_EQ(mv.from, 0u);
    EXPECT_EQ(mv.to, 1u);
  }
}

TEST(RebalancePolicy, CongestionGuardSkipsBackedUpSources) {
  // A source whose outbound uplink already has a queue proposes nothing
  // once the queue reaches migration.max_queued_transfers; below the
  // threshold (or with the guard off) behavior is unchanged.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 3; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  fed.set_domain_weight(1, 0.0);
  fed.set_domain_weight(2, 0.0);
  for (unsigned id = 0; id < 9; ++id) fed.submit_job(make_job(id));  // all land on d0
  fed.set_domain_weight(1, 1.0);
  fed.set_domain_weight(2, 1.0);

  auto status = fed.status(0_s);  // d0: 27000 / 24000 = 1.125 > 1.1
  status[0].outbound_transfers_queued = 4;

  migration::PolicyConfig cfg;  // guard off by default
  EXPECT_FALSE(migration::RebalancePolicy{cfg}.propose(fed, status, 0_s, 100).empty());

  cfg.max_queued_transfers = 5;  // queue (4) below threshold: still moves
  EXPECT_FALSE(migration::RebalancePolicy{cfg}.propose(fed, status, 0_s, 100).empty());

  cfg.max_queued_transfers = 4;  // at threshold: source skipped
  EXPECT_TRUE(migration::RebalancePolicy{cfg}.propose(fed, status, 0_s, 100).empty());

  // Drains ignore the guard: evacuation beats link tidiness.
  fed.set_domain_weight(0, 0.0);
  auto drained = fed.status(0_s);
  drained[0].outbound_transfers_queued = 100;
  migration::PolicyConfig drain_cfg;
  drain_cfg.max_queued_transfers = 4;
  EXPECT_FALSE(migration::DrainPolicy{drain_cfg}.propose(fed, drained, 0_s, 100).empty());
}

TEST(MigrationScenario, MaxQueuedTransfersKeyRoundTripsAndValidates) {
  util::Config cfg;
  cfg.set("migration.max_queued_transfers", "6");
  EXPECT_EQ(scenario::scenario_from_config(cfg).migration.max_queued_transfers, 6);
  EXPECT_EQ(scenario::scenario_from_config(util::Config{})
                .migration.max_queued_transfers,
            0);  // default: guard off

  util::Config bad;
  bad.set("migration.max_queued_transfers", "-1");
  EXPECT_THROW((void)scenario::scenario_from_config(bad), util::ConfigError);
}

TEST(MigrationIntegration, RecoveryMidEvacuationCancelsQueuedTransfersAndJobsStayPut) {
  // A drained domain evacuates through a skinny shared uplink; the queue
  // is long when the domain recovers. Every grant still waiting for the
  // wire is cancelled — those jobs stay put (restored suspended into the
  // recovered domain and resumed by its own controller) — while images
  // already on the wire complete at their destinations.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 2; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);

  migration::TransferModel transfer;
  transfer.set_uplink_bandwidth(0, 10.0);  // 130 s per 1300 MB image
  migration::MigrationOptions opts;
  opts.check_interval = util::Seconds{60.0};
  opts.link_mode = migration::LinkMode::kUplink;
  migration::MigrationManager mgr(fed, std::move(transfer),
                                  migration::make_migration_policy("drain"), opts);

  // All six jobs land on d0 (d1 drained during submission), then d0
  // drains at t=500 and recovers at t=800 — mid-evacuation: the suspends
  // land ~t=555, so by 800 the uplink has shipped at most two images.
  for (unsigned id = 0; id < 6; ++id) {
    const auto spec = make_job(id);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
  }
  engine.schedule_at(util::Seconds{100.0}, sim::EventPriority::kWorkloadArrival,
                     [&] { fed.set_domain_weight(1, 1.0); });
  fed.set_domain_weight(1, 0.0);
  engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival,
                     [&] { fed.set_domain_weight(0, 0.0); });
  std::size_t queued_at_recovery = 0;
  engine.schedule_at(util::Seconds{800.0}, sim::EventPriority::kWorkloadArrival, [&] {
    queued_at_recovery = mgr.link_scheduler().queued_transfers();
    fed.set_domain_weight(0, 1.0);
  });

  fed.start();
  mgr.start();
  while (fed.total_completed() < 6 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(fed.total_completed(), 6u);

  // The recovery found a backlog and recalled all of it.
  EXPECT_GE(queued_at_recovery, 2u);
  const auto& stats = mgr.stats();
  EXPECT_EQ(stats.cancelled, static_cast<long>(queued_at_recovery));
  EXPECT_GE(stats.completed, 1);  // the wire-borne images still moved
  EXPECT_EQ(stats.started, stats.completed + stats.cancelled);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_DOUBLE_EQ(stats.work_lost_mhz_s, 0.0);
  // Shipment accounting reports only what actually crossed the wire.
  EXPECT_DOUBLE_EQ(stats.bytes_moved_mb, 1300.0 * static_cast<double>(stats.completed));

  // The remaining jobs stayed put: exactly the cancelled ones completed
  // inside the recovered domain, with no work lost.
  long finished_at_home = 0;
  for (unsigned id = 0; id < 6; ++id) {
    const std::size_t owner = fed.job_domain(util::JobId{id});
    const auto& job = fed.domain(owner).world().job(util::JobId{id});
    EXPECT_EQ(job.phase(), workload::JobPhase::kCompleted);
    EXPECT_GE(job.done().get(), job.spec().work.get() - 1e-6) << "work lost for job " << id;
    if (owner == 0) {
      ++finished_at_home;
      EXPECT_EQ(job.migrate_count(), 0) << "a stay-put job was counted as migrated";
    }
  }
  EXPECT_EQ(finished_at_home, stats.cancelled);

  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_TRUE(fed.domain(d).world().cluster().validate().empty()) << "domain " << d;
    EXPECT_DOUBLE_EQ(fed.domain(d).offered_cpu_load(engine.now()).get(),
                     fed.domain(d).offered_cpu_load_recomputed(engine.now()).get());
  }
}

TEST(MigrationIntegration, RecoveryWithinSuspendWindowAbortsBeforeDetach) {
  // Recovery can land between the suspend decision and the checkpoint
  // (suspend latency window). Those flights abort at the checkpoint
  // step: the job was never detached, stays suspended in its home world
  // (unheld, executor bookkeeping intact), and the local controller
  // resumes it. Nothing reaches the wire.
  sim::Engine engine;
  federation::Federation fed(engine, federation::make_router("least-loaded"));
  for (int i = 0; i < 2; ++i) add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);

  migration::MigrationOptions opts;
  opts.check_interval = util::Seconds{60.0};
  migration::MigrationManager mgr(fed, migration::TransferModel{},
                                  migration::make_migration_policy("drain"), opts);

  for (unsigned id = 0; id < 4; ++id) {
    const auto spec = make_job(id);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
  }
  engine.schedule_at(util::Seconds{100.0}, sim::EventPriority::kWorkloadArrival,
                     [&] { fed.set_domain_weight(1, 1.0); });
  fed.set_domain_weight(1, 0.0);  // route everything to d0
  // Drain at t=500; the manager's t=540 tick suspends (latency 15 s, so
  // checkpoints land at t=555). Recover at t=550 — inside the window.
  engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival,
                     [&] { fed.set_domain_weight(0, 0.0); });
  engine.schedule_at(util::Seconds{550.0}, sim::EventPriority::kWorkloadArrival,
                     [&] { fed.set_domain_weight(0, 1.0); });

  fed.start();
  mgr.start();
  while (fed.total_completed() < 4 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(fed.total_completed(), 4u);

  const auto& stats = mgr.stats();
  EXPECT_EQ(stats.started, 4);
  EXPECT_EQ(stats.cancelled, 4);  // every flight aborted in the window
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.in_flight, 0);
  EXPECT_DOUBLE_EQ(stats.bytes_moved_mb, 0.0);
  EXPECT_DOUBLE_EQ(stats.transfer_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.work_lost_mhz_s, 0.0);

  // Every job completed at home with its full work done.
  for (unsigned id = 0; id < 4; ++id) {
    EXPECT_EQ(fed.job_domain(util::JobId{id}), 0u);
    const auto& job = fed.domain(0).world().job(util::JobId{id});
    EXPECT_EQ(job.phase(), workload::JobPhase::kCompleted);
    EXPECT_FALSE(job.held());
    EXPECT_EQ(job.migrate_count(), 0);
    EXPECT_GE(job.done().get(), job.spec().work.get() - 1e-6);
  }
  EXPECT_TRUE(fed.domain(0).world().cluster().validate().empty());
}

TEST(MigrationIntegration, AlignAttachLandsAtDestinationCycleWithSameCompletion) {
  // align_attach parks an arrived image until the destination
  // controller's next periodic cycle and attaches at kWorkloadArrival —
  // ahead of kController at that shared timestamp — so the very cycle
  // that first *could* see the job actually plans it. Since an
  // immediately-attached job would have sat suspended until that same
  // cycle anyway, the completion timeline is unchanged; only the attach
  // instant moves onto the cycle boundary.
  struct Run {
    double attach_s{-1.0};      // first probe second with the move completed
    double completion_s{-1.0};  // first probe second with the job finished
  };
  const auto drive = [](bool align) {
    sim::Engine engine;
    federation::Federation fed(engine, federation::make_router("least-loaded"));
    for (int i = 0; i < 2; ++i) {
      add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
    }
    migration::MigrationOptions opts;
    opts.check_interval = util::Seconds{60.0};
    opts.align_attach = align;
    migration::MigrationManager mgr(fed, migration::TransferModel{},
                                    migration::make_migration_policy("drain"), opts);
    const auto spec = make_job(0);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
    // Drain whichever domain hosts the job at t=500; the manager's t=540
    // tick ships it to the other domain.
    engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival,
                       [&] { fed.set_domain_weight(fed.job_domain(util::JobId{0}), 0.0); });
    Run run;
    for (int t = 500; t <= 4000; ++t) {
      engine.schedule_at(util::Seconds{static_cast<double>(t)}, sim::EventPriority::kSampling,
                         [&run, &mgr, &fed, t] {
                           if (run.attach_s < 0.0 && mgr.stats().completed == 1) {
                             run.attach_s = static_cast<double>(t);
                           }
                           if (run.completion_s < 0.0 && fed.total_completed() == 1) {
                             run.completion_s = static_cast<double>(t);
                           }
                         });
    }
    fed.start();
    mgr.start();
    engine.run_until(util::Seconds{4000.0});
    EXPECT_EQ(fed.total_completed(), 1u);
    EXPECT_EQ(mgr.stats().completed, 1);
    EXPECT_DOUBLE_EQ(mgr.stats().work_lost_mhz_s, 0.0);
    return run;
  };

  const Run immediate = drive(false);
  const Run aligned = drive(true);
  ASSERT_GT(immediate.attach_s, 0.0);
  ASSERT_GT(aligned.attach_s, 0.0);

  // Immediate attach lands mid-cycle, right after the ~12 s transfer that
  // the t=540 drain tick kicked off. The aligned attach waits for the
  // destination's next cycle: with two auto-staggered 600 s controllers
  // the destination fires at offset 300, so the boundary after the
  // transfer is t=900.
  EXPECT_LT(immediate.attach_s, 600.0);
  EXPECT_DOUBLE_EQ(aligned.attach_s, 900.0);

  // Deferring the attach costs nothing: the planning cycle — and hence
  // the completion timeline — is identical either way.
  EXPECT_DOUBLE_EQ(aligned.completion_s, immediate.completion_s);
}
