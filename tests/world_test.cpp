// Tests for core::World (job/app registry) and cluster::PlacementPlan
// helpers.

#include "core/world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "cluster/actions.hpp"
#include "cluster/placement.hpp"
#include "util/rng.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using core::World;
using workload::JobPhase;
using workload::JobSpec;

namespace {
JobSpec spec(unsigned id, double submit = 0.0) {
  JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{1e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = 1000_s;
  return s;
}
}  // namespace

TEST(World, SubmitAndLookup) {
  World w;
  w.submit_job(spec(5));
  EXPECT_TRUE(w.job_exists(util::JobId{5}));
  EXPECT_FALSE(w.job_exists(util::JobId{6}));
  EXPECT_EQ(w.job(util::JobId{5}).id().get(), 5u);
  EXPECT_THROW((void)w.job(util::JobId{6}), std::out_of_range);
}

TEST(World, DuplicateSubmissionRejected) {
  World w;
  w.submit_job(spec(1));
  EXPECT_THROW(w.submit_job(spec(1)), std::invalid_argument);
}

TEST(World, ActiveJobsExcludeCompleted) {
  World w;
  w.submit_job(spec(1));
  auto& j2 = w.submit_job(spec(2));
  EXPECT_EQ(w.active_jobs().size(), 2u);
  w.complete_job(j2.id(), 0_s);
  EXPECT_EQ(j2.phase(), JobPhase::kCompleted);
  EXPECT_EQ(w.active_jobs().size(), 1u);
  EXPECT_EQ(w.completed_count(), 1u);
  EXPECT_EQ(w.submitted_count(), 2u);
}

TEST(World, ActiveJobsPreserveSubmissionOrder) {
  World w;
  w.submit_job(spec(9, 10.0));
  w.submit_job(spec(2, 20.0));
  w.submit_job(spec(5, 30.0));
  const auto active = w.active_jobs();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0]->id().get(), 9u);
  EXPECT_EQ(active[1]->id().get(), 2u);
  EXPECT_EQ(active[2]->id().get(), 5u);
}

TEST(World, CompleteJobRetiresOnceAndStampsTime) {
  World w;
  w.submit_job(spec(1));
  const auto& j = w.complete_job(util::JobId{1}, 42_s);
  EXPECT_EQ(j.phase(), JobPhase::kCompleted);
  EXPECT_DOUBLE_EQ(j.completion_time().get(), 42.0);
  EXPECT_TRUE(w.active_jobs().empty());
  EXPECT_EQ(w.completed_count(), 1u);
  EXPECT_THROW(w.complete_job(util::JobId{1}, 43_s), std::logic_error);
  EXPECT_THROW(w.complete_job(util::JobId{2}, 43_s), std::out_of_range);
}

TEST(World, UnheldJobReturnsToItsSubmissionPosition) {
  World w;
  for (unsigned id : {4u, 8u, 6u}) w.submit_job(spec(id));
  w.job(util::JobId{4}).set_held(true);
  w.submit_job(spec(1));
  ASSERT_EQ(w.active_jobs().size(), 3u);
  EXPECT_EQ(w.active_jobs()[0]->id().get(), 8u);
  w.job(util::JobId{4}).set_held(false);
  const auto active = w.active_jobs();
  ASSERT_EQ(active.size(), 4u);
  EXPECT_EQ(active[0]->id().get(), 4u);
  EXPECT_EQ(active[3]->id().get(), 1u);
}

// --- live list == reference filter over job_order() -------------------------
//
// active_jobs() walks a live list instead of filtering job_order(), and
// completed_count() is a counter. These checks pin both, element by
// element, against the definitions they replace, after every step of a
// seeded random mix of submit / adopt / extract / hold / un-hold /
// complete.

namespace {

void expect_live_matches_reference(World& w, const std::string& step) {
  std::vector<const workload::Job*> want;
  std::size_t completed = 0;
  for (util::JobId id : w.job_order()) {
    const workload::Job& j = w.job(id);
    if (j.phase() == JobPhase::kCompleted) ++completed;
    if (j.phase() != JobPhase::kCompleted && !j.held()) want.push_back(&j);
  }
  const auto got = w.active_jobs();
  const auto got_const = std::as_const(w).active_jobs();
  ASSERT_EQ(got.size(), want.size()) << step;
  ASSERT_EQ(got_const.size(), want.size()) << step;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << step << ": position " << i;
    ASSERT_EQ(got_const[i], want[i]) << step << ": position " << i;
  }
  ASSERT_EQ(w.completed_count(), completed) << step;
  ASSERT_EQ(w.submitted_count(), w.job_order().size()) << step;
}

}  // namespace

class WorldLiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldLiveFuzz, ActiveJobsMatchFilteredJobOrder) {
  util::Rng rng(GetParam());
  World w;
  unsigned next_id = 0;
  std::vector<workload::Job> outside;  // extracted, waiting to be adopted back
  auto pick = [&]() -> util::JobId {
    const auto& order = w.job_order();
    return order[rng.uniform_int(0, order.size() - 1)];
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.uniform_int(0, 9);
    const std::string label = "step " + std::to_string(step) + " op " + std::to_string(op);
    if (w.job_order().empty() || op <= 2) {
      w.submit_job(spec(next_id++, static_cast<double>(step)));
    } else if (op == 3 && !outside.empty()) {
      const std::size_t k = rng.uniform_int(0, outside.size() - 1);
      w.adopt_job(std::move(outside[k]));
      outside.erase(outside.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op == 4) {
      // Completed jobs leave too: a handoff can race a completion.
      outside.push_back(w.extract_job(pick()));
    } else if (op == 5 || op == 6) {
      workload::Job& j = w.job(pick());
      j.set_held(!j.held());
    } else {
      const util::JobId id = pick();
      if (w.job(id).phase() != JobPhase::kCompleted) {
        w.complete_job(id, util::Seconds{static_cast<double>(step)});
      }
    }
    expect_live_matches_reference(w, label);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldLiveFuzz, ::testing::Values(5u, 99u, 20080625u));

TEST(WorldLiveList, VisitsStayBoundedByLiveCountAcrossManyCompletions) {
  // Structural, not timing: after 10k completions with ~50 jobs live,
  // the slots active_jobs() walks must still track the live count, not
  // the run history.
  constexpr std::size_t kLive = 50;
  constexpr unsigned kCompletions = 10000;
  util::Rng rng(7);
  World w;
  unsigned next_id = 0;
  std::deque<util::JobId> live;
  for (std::size_t i = 0; i < kLive; ++i) {
    live.push_back(w.submit_job(spec(next_id++)).id());
  }
  std::size_t max_slots = 0;
  for (unsigned done = 0; done < kCompletions; ++done) {
    const std::size_t k = rng.uniform_int(0, live.size() - 1);
    w.complete_job(live[k], util::Seconds{static_cast<double>(done)});
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    live.push_back(w.submit_job(spec(next_id++)).id());
    ASSERT_EQ(w.active_jobs().size(), kLive);
    max_slots = std::max(max_slots, w.live_slot_count());
  }
  EXPECT_EQ(w.completed_count(), kCompletions);
  EXPECT_EQ(w.submitted_count(), kLive + kCompletions);
  // Tombstones are compacted once they outnumber live slots.
  EXPECT_LE(max_slots, 2 * kLive + 1);
  EXPECT_LE(w.live_slot_count(), 2 * kLive + 1);
}

TEST(World, AppLookup) {
  World w;
  workload::TxAppSpec app;
  app.id = util::AppId{3};
  app.name = "web";
  w.add_app(workload::TxApp{app, workload::DemandTrace{5.0}});
  EXPECT_TRUE(w.app_exists(util::AppId{3}));
  EXPECT_FALSE(w.app_exists(util::AppId{9}));
  EXPECT_EQ(w.app(util::AppId{3}).spec().name, "web");
  EXPECT_THROW((void)w.app(util::AppId{9}), std::out_of_range);
}

TEST(World, AppLookupByIdNotByPosition) {
  // Ids are looked up through the index map, independent of insertion
  // order; duplicates are rejected like duplicate job ids.
  World w;
  for (unsigned id : {7u, 2u, 5u}) {
    workload::TxAppSpec app;
    app.id = util::AppId{id};
    app.name = "app" + std::to_string(id);
    w.add_app(workload::TxApp{app, workload::DemandTrace{1.0}});
  }
  EXPECT_EQ(w.app(util::AppId{2}).spec().name, "app2");
  EXPECT_EQ(w.app(util::AppId{7}).spec().name, "app7");
  EXPECT_EQ(w.app(util::AppId{5}).spec().name, "app5");
  workload::TxAppSpec dup;
  dup.id = util::AppId{2};
  EXPECT_THROW(w.add_app(workload::TxApp{dup, workload::DemandTrace{1.0}}),
               std::invalid_argument);
}

TEST(World, AppMutSwapsDemandTrace) {
  // The federation re-splits app demand mid-run through app_mut.
  World w;
  workload::TxAppSpec app;
  app.id = util::AppId{0};
  w.add_app(workload::TxApp{app, workload::DemandTrace{8.0}});
  w.app_mut(util::AppId{0}).set_trace(workload::DemandTrace{2.0});
  EXPECT_DOUBLE_EQ(w.app(util::AppId{0}).arrival_rate(0_s), 2.0);
  EXPECT_THROW((void)w.app_mut(util::AppId{1}), std::out_of_range);
}

TEST(PlacementPlan, FindJobAndTotals) {
  cluster::PlacementPlan p;
  p.jobs.push_back({util::JobId{1}, util::NodeId{0}, 2000_mhz});
  p.jobs.push_back({util::JobId{2}, util::NodeId{1}, 1000_mhz});
  p.instances.push_back({util::AppId{0}, util::NodeId{0}, 5000_mhz});
  p.instances.push_back({util::AppId{0}, util::NodeId{1}, 4000_mhz});
  p.instances.push_back({util::AppId{1}, util::NodeId{2}, 3000_mhz});

  ASSERT_TRUE(p.find_job(util::JobId{1}).has_value());
  EXPECT_EQ(p.find_job(util::JobId{1})->node.get(), 0u);
  EXPECT_FALSE(p.find_job(util::JobId{7}).has_value());
  EXPECT_DOUBLE_EQ(p.total_job_cpu().get(), 3000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{0}).get(), 9000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{1}).get(), 3000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{5}).get(), 0.0);
}

TEST(ActionCounts, RecordAndTotals) {
  cluster::ActionCounts c;
  c.record(cluster::ActionType::kSuspendJob);
  c.record(cluster::ActionType::kResumeJob);
  c.record(cluster::ActionType::kMigrateJob);
  c.record(cluster::ActionType::kStartJob);
  c.record(cluster::ActionType::kResizeCpu);
  EXPECT_EQ(c.total_disruptive(), 3);
  EXPECT_EQ(c.starts, 1);
  EXPECT_EQ(c.resizes, 1);
}

TEST(ActionLatencies, LatencyLookup) {
  cluster::ActionLatencies lat;
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kStartJob).get(), 60.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kSuspendJob).get(), 15.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kResumeJob).get(), 90.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kMigrateJob).get(), 120.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kResizeCpu).get(), 0.0);
}
