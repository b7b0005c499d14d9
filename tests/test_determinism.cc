// Whole-stack determinism: with every optional subsystem enabled at
// once (replication + churn + event tracer + estimate error + randomized
// ChooseTask), two runs from the same seeds must be span-for-span
// identical — the task lifecycle, every transfer and every eviction. This is the strongest regression net for the seed
// discipline (DESIGN.md §5.8) — any ambient entropy or hash-order
// dependence breaks it.
#include <gtest/gtest.h>

#include <algorithm>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"

namespace wcs::grid {
namespace {

GridConfig everything_on() {
  GridConfig c;
  c.tiers.num_sites = 4;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 400;
  c.obs.trace = true;
  c.estimate_error = 2.0;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 3;
  rp.check_interval_s = 1000;
  c.replication = rp;
  GridConfig::ChurnParams churn;
  churn.mean_uptime_s = 40000;
  churn.mean_downtime_s = 8000;
  c.churn = churn;
  return c;
}

class FullStackDeterminism
    : public ::testing::TestWithParam<sched::Algorithm> {};

TEST_P(FullStackDeterminism, EventForEventIdentical) {
  workload::CoaddParams cp;
  cp.num_tasks = 120;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c = everything_on();
  sched::SchedulerSpec spec;
  spec.algorithm = GetParam();
  spec.choose_n = 2;

  auto run = [&] {
    GridSimulation sim(c, wl, sched::make_scheduler(spec));
    auto result = sim.run();
    WCS_CHECK(sim.observability() != nullptr);
    return std::pair{result, sim.observability()->tracer()->spans()};
  };
  auto [r1, e1] = run();
  auto [r2, e2] = run();

  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.total_file_transfers(), r2.total_file_transfers());
  EXPECT_EQ(r1.events_executed, r2.events_executed);
  EXPECT_EQ(r1.worker_failures, r2.worker_failures);
  EXPECT_EQ(r1.files_replicated, r2.files_replicated);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].start, e2[i].start) << "span " << i;
    EXPECT_EQ(e1[i].duration_s, e2[i].duration_s) << "span " << i;
    EXPECT_EQ(e1[i].kind, e2[i].kind) << "span " << i;
    EXPECT_EQ(e1[i].track, e2[i].track) << "span " << i;
    EXPECT_EQ(e1[i].task, e2[i].task) << "span " << i;
    EXPECT_EQ(e1[i].bytes, e2[i].bytes) << "span " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FullStackDeterminism,
                         ::testing::Values(sched::Algorithm::kWorkqueue,
                                           sched::Algorithm::kStorageAffinity,
                                           sched::Algorithm::kRest,
                                           sched::Algorithm::kCombined,
                                           sched::Algorithm::kXSufferage));

TEST(CrossConfigIndependence, WorkloadUnaffectedByPlatformSeed) {
  // The same CoaddParams must yield the identical job regardless of any
  // platform configuration (no shared RNG state).
  workload::CoaddParams cp;
  cp.num_tasks = 100;
  const workload::Workload w1{workload::generate_coadd(cp)};
  GridConfig c = everything_on();
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  (void)run_once(c, w1, spec, 1);
  const workload::Job& j1 = w1.job;
  auto j2 = workload::generate_coadd(cp);
  ASSERT_EQ(j1.num_tasks(), j2.num_tasks());
  for (std::size_t i = 0; i < j1.num_tasks(); ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    EXPECT_TRUE(std::ranges::equal(j1.task(id).files, j2.task(id).files));
  }
}

}  // namespace
}  // namespace wcs::grid
