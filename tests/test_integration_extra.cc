// Additional cross-stack integration tests: control-latency accounting,
// engine introspection, transfer listeners, degenerate platforms, and
// scale smoke checks.
#include <gtest/gtest.h>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"
#include "workload/generators.h"

namespace wcs::grid {
namespace {

workload::Job one_task_job(std::size_t files = 2,
                           Bytes file_size = megabytes(25)) {
  workload::Job job;
  job.set_name("one");
  job.catalog = workload::FileCatalog(files, file_size);
  std::vector<FileId> task_files;
  for (std::size_t f = 0; f < files; ++f)
    task_files.push_back(FileId(static_cast<FileId::underlying_type>(f)));
  job.add_task(task_files, 1e-6);
  return job;
}

sched::SchedulerSpec wq() {
  sched::SchedulerSpec s;
  s.algorithm = sched::Algorithm::kWorkqueue;
  return s;
}

TEST(EngineIntrospection, SiteAndWorkerMapping) {
  const workload::Workload wl{one_task_job()};
  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 10;
  GridSimulation sim(c, wl, sched::make_scheduler(wq()));
  EXPECT_EQ(sim.num_sites(), 3u);
  EXPECT_EQ(sim.num_workers(), 6u);
  EXPECT_EQ(sim.site_of(WorkerId(0)), SiteId(0));
  EXPECT_EQ(sim.site_of(WorkerId(1)), SiteId(0));
  EXPECT_EQ(sim.site_of(WorkerId(2)), SiteId(1));
  EXPECT_EQ(sim.site_of(WorkerId(5)), SiteId(2));
  for (unsigned w = 0; w < 6; ++w) {
    EXPECT_TRUE(sim.worker_alive(WorkerId(w)));
    EXPECT_EQ(sim.worker_backlog(WorkerId(w)), 0u);
    EXPECT_GT(sim.worker_info(WorkerId(w)).mflops, 0.0);
  }
  EXPECT_EQ(sim.replicator(), nullptr);
}

TEST(EngineIntrospection, TaskCompletionQueries) {
  const workload::Workload wl{one_task_job()};
  GridConfig c;
  c.tiers.num_sites = 1;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 10;
  GridSimulation sim(c, wl, sched::make_scheduler(wq()));
  EXPECT_FALSE(sim.task_completed(TaskId(0)));
  (void)sim.run();
  EXPECT_TRUE(sim.task_completed(TaskId(0)));
  EXPECT_EQ(sim.tasks_completed(), 1u);
}

TEST(ControlLatency, ContributesButDoesNotDominate) {
  // With zero-byte-ish compute and one file, makespan = request RTT +
  // transfer; the control overhead must be well under a second.
  const workload::Workload wl{one_task_job(1)};
  GridConfig c;
  c.tiers.num_sites = 1;
  c.tiers.workers_per_site = 1;
  c.tiers.jitter = 0.0;
  c.capacity_files = 10;
  GridSimulation sim(c, wl, sched::make_scheduler(wq()));
  auto r = sim.run();
  EXPECT_GT(r.makespan_s, 100.0);        // the 25 MB / 2 Mbit/s transfer
  EXPECT_LT(r.makespan_s, 100.0 + 1.0);  // latencies: well under 1 s
}

TEST(SingleSiteSingleWorker, WholeJobSequential) {
  workload::GeneratorParams gp;
  gp.num_tasks = 5;
  gp.files_per_task = 3;
  gp.num_files = 15;
  gp.file_size = megabytes(1);
  const workload::Workload wl{workload::generate_partitioned(gp)};
  GridConfig c;
  c.tiers.num_sites = 1;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 100;
  auto r = run_once(c, wl, wq(), 1);
  EXPECT_EQ(r.tasks_completed, 5u);
  EXPECT_EQ(r.sites.size(), 1u);
  EXPECT_EQ(r.sites[0].batches_served, 5u);
  EXPECT_EQ(r.total_file_transfers(), 15u);
}

TEST(ManyWorkersFewTasks, IdleWorkersAreHarmless) {
  const workload::Workload wl{one_task_job()};
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 8;
  c.capacity_files = 50;
  auto r = run_once(c, wl, wq(), 1);
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.assignments, 1u);
}

TEST(AllAlgorithmsAgreeOnTotalWork, SameJobSameFloor) {
  // With capacity >= catalog and 1 site, every scheduler must transfer
  // exactly the distinct files once — total work is scheduler-invariant.
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  const workload::Workload wl{workload::generate_coadd(cp)};
  auto stats = workload::compute_stats(wl.job);
  GridConfig c;
  c.tiers.num_sites = 1;
  c.tiers.workers_per_site = 2;
  c.capacity_files = wl.job.catalog.num_files();
  for (const auto& spec : sched::SchedulerSpec::paper_algorithms()) {
    auto r = run_once(c, wl, spec, 1);
    EXPECT_EQ(r.total_file_transfers(), stats.distinct_files)
        << spec.name();
  }
}

TEST(ReplicaAccounting, CancelledFetchKeepsBytesConsistent) {
  // Under heavy replication (few tasks, many workers), cancelled batches
  // still account their transferred bytes; per-site bytes must equal
  // transfers * file size exactly.
  workload::CoaddParams cp;
  cp.num_tasks = 30;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 3;
  c.capacity_files = 1000;
  sched::SchedulerSpec sa;
  sa.algorithm = sched::Algorithm::kStorageAffinity;
  sa.max_replicas = 3;
  auto r = run_once(c, wl, sa, 1);
  EXPECT_EQ(r.tasks_completed, 30u);
  for (const auto& s : r.sites)
    EXPECT_NEAR(s.bytes_transferred,
                static_cast<double>(s.file_transfers) * 25e6, 1.0);
}

TEST(Scale, QuarterWorkloadFinishesQuickly) {
  // Wall-clock guard: the full experiment pipeline must stay fast enough
  // for the figure benches (~seconds per run).
  workload::CoaddParams cp;
  cp.num_tasks = 1500;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 10;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 6000;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kCombined;
  spec.choose_n = 2;
  auto r = run_once(c, wl, spec, 1);
  EXPECT_EQ(r.tasks_completed, 1500u);
  EXPECT_GT(r.events_executed, 1500u);
}

TEST(WorkloadScaling, MakespanGrowsWithTasks) {
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 2000;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  double prev = 0;
  for (std::size_t tasks : {50u, 100u, 200u}) {
    workload::CoaddParams cp;
    cp.num_tasks = tasks;
    const workload::Workload wl{workload::generate_coadd(cp)};
    auto r = run_once(c, wl, spec, 1);
    EXPECT_GT(r.makespan_s, prev);
    prev = r.makespan_s;
  }
}

TEST(SiteStatsShape, MatchesConfiguredSites) {
  workload::CoaddParams cp;
  cp.num_tasks = 40;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 7;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 500;
  auto r = run_once(c, wl, wq(), 3);
  EXPECT_EQ(r.sites.size(), 7u);
  std::uint64_t batches = 0;
  for (const auto& s : r.sites) batches += s.batches_served;
  EXPECT_EQ(batches, 40u);
}

}  // namespace
}  // namespace wcs::grid
