// Tests for the worker-churn extension: crashes lose queued/running task
// instances; every scheduler must re-home orphans and still finish the
// job. (Motivated by the paper's own premise that grid resources are
// unreliable, Sec. 1.)
#include <gtest/gtest.h>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"

namespace wcs::grid {
namespace {

GridConfig churny_config(double mean_uptime_s, int sites = 3,
                         int workers = 2) {
  GridConfig c;
  c.tiers.num_sites = sites;
  c.tiers.workers_per_site = workers;
  c.capacity_files = 400;
  GridConfig::ChurnParams churn;
  churn.mean_uptime_s = mean_uptime_s;
  churn.mean_downtime_s = mean_uptime_s / 4;
  c.churn = churn;
  return c;
}

workload::Job small_coadd(std::size_t tasks, std::uint64_t seed = 42) {
  workload::CoaddParams cp;
  cp.num_tasks = tasks;
  cp.seed = seed;
  return workload::generate_coadd(cp);
}

sched::SchedulerSpec spec_of(sched::Algorithm a, bool task_repl = false) {
  sched::SchedulerSpec s;
  s.algorithm = a;
  s.task_replication = task_repl;
  return s;
}

class ChurnAllSchedulers : public ::testing::TestWithParam<sched::Algorithm> {
};

TEST_P(ChurnAllSchedulers, JobCompletesDespiteCrashes) {
  const workload::Workload wl{small_coadd(80)};
  // Aggressive churn: uptime comparable to a few task executions.
  GridConfig c = churny_config(/*mean_uptime_s=*/20000);
  auto r = run_once(c, wl, spec_of(GetParam()), 1);
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_GT(r.worker_failures, 0u);
  EXPECT_GT(r.makespan_s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ChurnAllSchedulers,
                         ::testing::Values(sched::Algorithm::kWorkqueue,
                                           sched::Algorithm::kStorageAffinity,
                                           sched::Algorithm::kOverlap,
                                           sched::Algorithm::kRest,
                                           sched::Algorithm::kCombined));

TEST(Churn, DisabledByDefaultNoFailures) {
  const workload::Workload wl{small_coadd(40)};
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 400;
  auto r = run_once(c, wl, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_EQ(r.worker_failures, 0u);
  EXPECT_EQ(r.instances_lost, 0u);
}

TEST(Churn, Deterministic) {
  const workload::Workload wl{small_coadd(60)};
  GridConfig c = churny_config(30000);
  auto r1 = run_once(c, wl, spec_of(sched::Algorithm::kRest), 2);
  auto r2 = run_once(c, wl, spec_of(sched::Algorithm::kRest), 2);
  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.worker_failures, r2.worker_failures);
  EXPECT_EQ(r1.instances_lost, r2.instances_lost);
}

TEST(Churn, SeedChangesFailurePattern) {
  const workload::Workload wl{small_coadd(60)};
  GridConfig c = churny_config(30000);
  auto r1 = run_once(c, wl, spec_of(sched::Algorithm::kRest), 1);
  GridConfig c2 = c;
  c2.churn->seed = 99;
  auto r2 = run_once(c2, wl, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_NE(r1.worker_failures + r1.instances_lost * 1000,
            r2.worker_failures + r2.instances_lost * 1000);
}

TEST(Churn, MoreChurnMeansLongerMakespan) {
  const workload::Workload wl{small_coadd(100)};
  GridConfig calm;
  calm.tiers.num_sites = 3;
  calm.tiers.workers_per_site = 2;
  calm.capacity_files = 400;
  auto r_calm = run_once(calm, wl, spec_of(sched::Algorithm::kRest), 1);
  GridConfig stormy = churny_config(/*mean_uptime_s=*/10000);
  auto r_stormy = run_once(stormy, wl, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_GT(r_stormy.worker_failures, 3u);
  EXPECT_GT(r_stormy.makespan_s, r_calm.makespan_s);
}

TEST(Churn, LostInstancesAreAccounted) {
  const workload::Workload wl{small_coadd(80)};
  GridConfig c = churny_config(15000);
  auto r = run_once(c, wl, spec_of(sched::Algorithm::kStorageAffinity), 1);
  EXPECT_EQ(r.tasks_completed, 80u);
  // Task-centric queues hold many tasks, so crashes lose instances.
  EXPECT_GT(r.instances_lost, 0u);
  EXPECT_GE(r.worker_recoveries + 100, r.worker_failures);  // sanity
}

TEST(Churn, TaskReplicationCoexistsWithChurn) {
  const workload::Workload wl{small_coadd(60)};
  GridConfig c = churny_config(20000);
  auto r = run_once(c, wl, spec_of(sched::Algorithm::kRest, true), 1);
  EXPECT_EQ(r.tasks_completed, 60u);
}

TEST(Churn, DataReplicationCoexistsWithChurn) {
  const workload::Workload wl{small_coadd(60)};
  GridConfig c = churny_config(20000);
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 2000;
  c.replication = rp;
  auto r = run_once(c, wl, spec_of(sched::Algorithm::kRest), 1);
  EXPECT_EQ(r.tasks_completed, 60u);
}

TEST(Churn, RejectsNonPositiveTimes) {
  const workload::Workload wl{small_coadd(10)};
  GridConfig c = churny_config(100);
  c.churn->mean_uptime_s = 0;
  EXPECT_THROW(GridSimulation(c, wl,
                              sched::make_scheduler(
                                  spec_of(sched::Algorithm::kRest))),
               std::logic_error);
}

}  // namespace
}  // namespace wcs::grid
