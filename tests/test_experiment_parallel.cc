// The parallel experiment runner: the thread pool primitive, and the
// determinism contract — run_matrix()/run_averaged()/run_seeds() at any
// --jobs level return byte-identical results to the serial path, because
// every (spec, seed) run is an isolated simulation collected in
// submission order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "grid/experiment.h"
#include "workload/generators.h"

namespace wcs {
namespace {

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&done] { ++done; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ReturnsResultsThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, ExceptionsPropagateAtGet) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) (void)pool.submit([&done] { ++done; });
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool{0}, std::logic_error);
}

// --- Parallel == serial, byte for byte ------------------------------------

grid::GridConfig small_config() {
  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 40;
  return c;
}

workload::Job small_job() {
  workload::GeneratorParams p;
  p.num_tasks = 40;
  p.num_files = 120;
  p.files_per_task = 4;
  p.mflop_per_file = 1e3;
  p.seed = 5;
  return workload::generate_uniform(p);
}

std::vector<sched::SchedulerSpec> two_specs() {
  sched::SchedulerSpec rest;
  rest.algorithm = sched::Algorithm::kRest;
  sched::SchedulerSpec combined2;
  combined2.algorithm = sched::Algorithm::kCombined;
  combined2.choose_n = 2;
  return {rest, combined2};
}

// Field-for-field bitwise comparison: the doubles must be the SAME
// bits, not merely close — the parallel path must not reorder any
// floating-point reduction.
void expect_identical(const metrics::AveragedResult& a,
                      const metrics::AveragedResult& b) {
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.runs, b.runs);
  auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
  };
  EXPECT_EQ(bits(a.makespan_minutes), bits(b.makespan_minutes));
  EXPECT_EQ(bits(a.transfers_per_site), bits(b.transfers_per_site));
  EXPECT_EQ(bits(a.total_file_transfers), bits(b.total_file_transfers));
  EXPECT_EQ(bits(a.total_gigabytes), bits(b.total_gigabytes));
  EXPECT_EQ(bits(a.waiting_hours_per_site), bits(b.waiting_hours_per_site));
  EXPECT_EQ(bits(a.transfer_hours_per_site), bits(b.transfer_hours_per_site));
  EXPECT_EQ(bits(a.replicas_started), bits(b.replicas_started));
  EXPECT_EQ(bits(a.replicas_cancelled), bits(b.replicas_cancelled));
  EXPECT_EQ(bits(a.makespan_minutes_min), bits(b.makespan_minutes_min));
  EXPECT_EQ(bits(a.makespan_minutes_max), bits(b.makespan_minutes_max));
}

TEST(ParallelRunner, MatrixIsByteIdenticalToSerial) {
  const auto config = small_config();
  const workload::Workload wl{small_job()};
  const auto specs = two_specs();
  const std::vector<std::uint64_t> seeds{1, 2, 3};

  const auto serial =
      grid::run_matrix(config, wl, specs, seeds, {}, /*jobs=*/1);
  const auto parallel =
      grid::run_matrix(config, wl, specs, seeds, {}, /*jobs=*/4);

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    expect_identical(serial[i], parallel[i]);
}

TEST(ParallelRunner, AveragedIsByteIdenticalToSerial) {
  const auto config = small_config();
  const workload::Workload wl{small_job()};
  const std::vector<std::uint64_t> seeds{1, 2, 3};
  const sched::SchedulerSpec spec = two_specs()[1];  // randomized variant

  expect_identical(grid::run_averaged(config, wl, spec, seeds, 1),
                   grid::run_averaged(config, wl, spec, seeds, 4));
}

TEST(ParallelRunner, RunSeedsPreservesSeedOrder) {
  const auto config = small_config();
  const workload::Workload wl{small_job()};
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  const sched::SchedulerSpec spec = two_specs()[0];

  const auto serial = grid::run_seeds(config, wl, spec, seeds, 1);
  const auto parallel = grid::run_seeds(config, wl, spec, seeds, 4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(parallel[i].makespan_s, serial[i].makespan_s) << "seed " << i;
    EXPECT_EQ(parallel[i].events_executed, serial[i].events_executed);
    EXPECT_EQ(parallel[i].tasks_completed, serial[i].tasks_completed);
  }
}

TEST(ParallelRunner, ProgressFiresOncePerSpecInOrder) {
  const auto config = small_config();
  const workload::Workload wl{small_job()};
  const auto specs = two_specs();
  const std::vector<std::uint64_t> seeds{1, 2};

  std::vector<std::string> notes;
  (void)grid::run_matrix(config, wl, specs, seeds,
                         [&](const std::string& s) { notes.push_back(s); },
                         /*jobs=*/4);
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_TRUE(notes[0].starts_with("rest:"));
  EXPECT_TRUE(notes[1].starts_with("combined.2:"));
}

}  // namespace
}  // namespace wcs
