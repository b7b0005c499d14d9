// Cross-cutting property tests: invariants that must hold for EVERY
// scheduler on randomized workloads and platforms. These are the
// regression net for the whole stack (kernel + flows + storage + engine +
// schedulers together).
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "common/stats.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"
#include "workload/generators.h"

namespace wcs::grid {
namespace {

struct Case {
  sched::Algorithm algorithm;
  int choose_n;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  sched::SchedulerSpec s;
  s.algorithm = info.param.algorithm;
  s.choose_n = info.param.choose_n;
  std::string n = s.name() + "_s" + std::to_string(info.param.seed);
  for (char& c : n)
    if (c == '-' || c == '.') c = '_';
  return n;
}

class AllSchedulers : public ::testing::TestWithParam<Case> {};

TEST_P(AllSchedulers, InvariantsHoldOnCoaddSlice) {
  const Case& param = GetParam();
  workload::CoaddParams cp;
  cp.num_tasks = 120;
  cp.seed = 42 + param.seed;
  const workload::Workload wl{workload::generate_coadd(cp)};

  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 250;  // tight: forces eviction churn
  sched::SchedulerSpec spec;
  spec.algorithm = param.algorithm;
  spec.choose_n = param.choose_n;
  spec.seed = param.seed;

  auto r = run_once(c, wl, spec, param.seed);

  // 1. Every task completes exactly once.
  EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());

  // 2. Makespan is positive and the clock is sane.
  EXPECT_GT(r.makespan_s, 0.0);

  // 3. Assignment accounting: first instances + replicas.
  EXPECT_EQ(r.assignments, wl.job.num_tasks() + r.replicas_started);
  EXPECT_LE(r.replicas_cancelled, r.replicas_started);

  // 4. Each site's served batches carry consistent accounting.
  std::uint64_t batches = 0;
  for (const auto& s : r.sites) {
    batches += s.batches_served;
    EXPECT_GE(s.waiting_s, 0.0);
    EXPECT_GE(s.transfer_s, 0.0);
    EXPECT_NEAR(s.bytes_transferred,
                static_cast<double>(s.file_transfers) * 25e6, 1.0);
  }
  // Every completed task instance was served one batch; cancelled
  // fetching instances add cancelled batches instead.
  EXPECT_GE(batches, wl.job.num_tasks());

  // 5. File-serving accounting: every served or cancelled batch serves at
  // most max|t| files; and every referenced file had to be transferred to
  // some site at least once.
  std::size_t max_files = 0;
  for (const workload::Task& t : wl.job.tasks())
    max_files = std::max(max_files, t.files.size());
  std::uint64_t total_batches = 0;
  for (const auto& s : r.sites)
    total_batches += s.batches_served + s.batches_cancelled;
  EXPECT_LE(r.total_file_transfers() + r.total_cache_hits(),
            total_batches * max_files);
  EXPECT_GE(r.total_file_transfers(),
            workload::compute_stats(wl.job).distinct_files);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllSchedulers,
    ::testing::Values(
        Case{sched::Algorithm::kWorkqueue, 1, 1},
        Case{sched::Algorithm::kWorkqueue, 1, 2},
        Case{sched::Algorithm::kStorageAffinity, 1, 1},
        Case{sched::Algorithm::kStorageAffinity, 1, 2},
        Case{sched::Algorithm::kOverlap, 1, 1},
        Case{sched::Algorithm::kOverlap, 1, 2},
        Case{sched::Algorithm::kRest, 1, 1},
        Case{sched::Algorithm::kRest, 1, 2},
        Case{sched::Algorithm::kRest, 2, 1},
        Case{sched::Algorithm::kRest, 2, 2},
        Case{sched::Algorithm::kCombined, 1, 1},
        Case{sched::Algorithm::kCombined, 1, 2},
        Case{sched::Algorithm::kCombined, 2, 1},
        Case{sched::Algorithm::kCombined, 2, 2}),
    case_name);

class WorkloadRegimes : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadRegimes, LocalityAwareBeatsBlindPullWhenSharingExists) {
  // On a high-sharing sliding-window workload whose task ORDER is
  // scrambled (so FIFO cannot ride the spatial order), rest must move
  // fewer bytes than blind workqueue. (Makespan comparisons are left to
  // the benches; transfer counts are the robust invariant.)
  auto ordered = workload::generate_sliding_window(
      80, /*width=*/12, /*stride=*/GetParam(), megabytes(5), 1.0);
  std::vector<std::size_t> perm(ordered.num_tasks());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng shuffle_rng(99);
  shuffle_rng.shuffle(perm);
  workload::Workload wl;
  wl.job.set_name("shuffled-window");
  wl.job.catalog = ordered.catalog;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const workload::Task t =
        ordered.task(TaskId(static_cast<TaskId::underlying_type>(perm[i])));
    wl.job.add_task(t.files, t.mflop);
  }
  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 200;
  sched::SchedulerSpec rest;
  rest.algorithm = sched::Algorithm::kRest;
  sched::SchedulerSpec wq;
  wq.algorithm = sched::Algorithm::kWorkqueue;
  auto r_rest = run_once(c, wl, rest, 1);
  auto r_wq = run_once(c, wl, wq, 1);
  EXPECT_LT(r_rest.total_file_transfers(), r_wq.total_file_transfers());
}

INSTANTIATE_TEST_SUITE_P(Strides, WorkloadRegimes, ::testing::Values(1, 2, 4));

TEST(ZeroSharing, AllLocalitySchedulersDegradeToSameTransfers) {
  // Partitioned workload: no reuse possible; every scheduler transfers
  // exactly the catalog once.
  workload::GeneratorParams gp;
  gp.num_tasks = 40;
  gp.files_per_task = 6;
  gp.file_size = megabytes(5);
  const workload::Workload wl{workload::generate_partitioned(gp)};
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 400;
  for (auto a : {sched::Algorithm::kWorkqueue, sched::Algorithm::kOverlap,
                 sched::Algorithm::kRest, sched::Algorithm::kCombined}) {
    sched::SchedulerSpec spec;
    spec.algorithm = a;
    auto r = run_once(c, wl, spec, 1);
    EXPECT_EQ(r.total_file_transfers(), 240u) << spec.name();
    EXPECT_EQ(r.total_cache_hits(), 0u) << spec.name();
  }
}

TEST(CapacitySweep, TransfersDecreaseMonotonicallyWithCapacity) {
  workload::CoaddParams cp;
  cp.num_tasks = 150;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  // Scheduling dynamics shift slightly between capacities (different
  // assignment orders), so require near-monotonicity point to point and
  // a strict decrease end to end.
  std::uint64_t first = 0;
  std::uint64_t prev = UINT64_MAX;
  std::uint64_t last = 0;
  for (std::size_t cap : {120u, 300u, 800u, 2000u}) {
    c.capacity_files = cap;
    auto r = run_once(c, wl, spec, 1);
    if (first == 0) first = r.total_file_transfers();
    EXPECT_LE(static_cast<double>(r.total_file_transfers()),
              static_cast<double>(prev) * 1.05)
        << "capacity " << cap;
    prev = r.total_file_transfers();
    last = prev;
  }
  EXPECT_LT(last, first);
}

TEST(SiteSweep, MakespanShrinksWithMoreSites) {
  workload::CoaddParams cp;
  cp.num_tasks = 150;
  const workload::Workload wl{workload::generate_coadd(cp)};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  GridConfig c;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 500;
  c.tiers.num_sites = 2;
  auto r2 = run_once(c, wl, spec, 1);
  c.tiers.num_sites = 8;
  auto r8 = run_once(c, wl, spec, 1);
  EXPECT_LT(r8.makespan_s, r2.makespan_s);
}

TEST(FileSizeSweep, MakespanRoughlyLinearInFileSize) {
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 500;
  std::vector<double> makespans;
  for (double mb : {5.0, 25.0, 50.0}) {
    workload::CoaddParams cp;
    cp.num_tasks = 100;
    cp.file_size = megabytes(mb);
    cp.mflop_per_file = 1e-6;  // isolate the network term
    const workload::Workload wl{workload::generate_coadd(cp)};
    makespans.push_back(run_once(c, wl, spec, 1).makespan_s);
  }
  EXPECT_NEAR(makespans[1] / makespans[0], 5.0, 0.8);
  EXPECT_NEAR(makespans[2] / makespans[1], 2.0, 0.3);
}

TEST(EvictionPolicies, AllCompleteAndDiffer) {
  workload::CoaddParams cp;
  cp.num_tasks = 120;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 150;  // heavy churn
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  std::vector<std::uint64_t> transfers;
  for (auto policy :
       {storage::EvictionPolicy::kLru, storage::EvictionPolicy::kFifo,
        storage::EvictionPolicy::kMinRef}) {
    c.eviction = policy;
    auto r = run_once(c, wl, spec, 1);
    EXPECT_EQ(r.tasks_completed, 120u);
    transfers.push_back(r.total_file_transfers());
  }
  // The policies must actually behave differently under churn.
  EXPECT_TRUE(transfers[0] != transfers[1] || transfers[1] != transfers[2]);
}

// --- statistics-toolkit properties (common/stats.h) ---

TEST(StatsProperties, RunningStatsMergeIsAssociative) {
  // merge(merge(a, b), c) and merge(a, merge(b, c)) must agree with each
  // other and with a single pass over the concatenated stream.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-100, 100);
  for (int trial = 0; trial < 20; ++trial) {
    RunningStats a, b, c, all;
    auto feed = [&](RunningStats& s, int n) {
      for (int i = 0; i < n; ++i) {
        double x = dist(rng);
        s.add(x);
        all.add(x);
      }
    };
    feed(a, trial);  // includes the empty-partition edge case
    feed(b, 13);
    feed(c, 5);

    RunningStats left = a;
    left.merge(b);
    left.merge(c);
    RunningStats bc = b;
    bc.merge(c);
    RunningStats right = a;
    right.merge(bc);

    for (const RunningStats* s : {&left, &right}) {
      EXPECT_EQ(s->count(), all.count());
      EXPECT_NEAR(s->mean(), all.mean(), 1e-9);
      EXPECT_NEAR(s->variance(), all.variance(), 1e-7);
      EXPECT_DOUBLE_EQ(s->min(), all.min());
      EXPECT_DOUBLE_EQ(s->max(), all.max());
    }
  }
}

}  // namespace
}  // namespace wcs::grid
