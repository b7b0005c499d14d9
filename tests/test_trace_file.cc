// File-path-based trace I/O (the stream variants are covered in
// test_workload) plus error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "grid/experiment.h"
#include "workload/coadd.h"
#include "workload/trace.h"

namespace wcs::workload {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("wcs_trace_test_" + std::to_string(::getpid()) + ".trace");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

TEST_F(TraceFileTest, RoundTripThroughDisk) {
  CoaddParams p;
  p.num_tasks = 50;
  Job a = generate_coadd(p);
  save_job(a, path_.string());
  Job b = load_job(path_.string());
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    EXPECT_TRUE(std::ranges::equal(a.task(id).files, b.task(id).files));
  }
}

TEST_F(TraceFileTest, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_job((path_ / "nope").string()), std::logic_error);
}

TEST_F(TraceFileTest, SaveToBadPathThrows) {
  EXPECT_THROW(save_job(Job{}, "/nonexistent-dir-xyz/file.trace"),
               std::logic_error);
}

TEST_F(TraceFileTest, RejectsTaskWithUndeclaredFile) {
  {
    std::ofstream out(path_);
    out << "job bad\nfiles 1\nfilesize 0 100\ntask 0 1.0 0 5\n";
  }
  EXPECT_THROW((void)load_job(path_.string()), std::logic_error);
}

TEST_F(TraceFileTest, RejectsZeroSizeFile) {
  {
    std::ofstream out(path_);
    out << "job bad\nfiles 1\ntask 0 1.0 0\n";  // filesize line missing
  }
  EXPECT_THROW((void)load_job(path_.string()), std::logic_error);
}

TEST_F(TraceFileTest, LargeJobRoundTripsExactly) {
  CoaddParams p;
  p.num_tasks = 500;
  Job a = generate_coadd(p);
  save_job(a, path_.string());
  Job b = load_job(path_.string());
  JobStats sa = compute_stats(a);
  JobStats sb = compute_stats(b);
  EXPECT_EQ(sa.distinct_files, sb.distinct_files);
  EXPECT_DOUBLE_EQ(sa.avg_files_per_task, sb.avg_files_per_task);
  EXPECT_EQ(a.catalog.total_bytes(), b.catalog.total_bytes());
}

TEST_F(TraceFileTest, ReloadedJobSimulatesIdentically) {
  // The serialized workload is a faithful substitute for the generated
  // one: running either through the same fixed-seed simulation must
  // produce the same result, bit for bit (mflop and byte values are
  // written at round-trip precision).
  CoaddParams p;
  p.num_tasks = 80;
  p.seed = 99;
  const Workload a{generate_coadd(p)};
  save_job(a.job, path_.string());
  const Workload b{load_job(path_.string())};

  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 400;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  spec.choose_n = 2;
  auto ra = grid::run_once(c, a, spec, 5);
  auto rb = grid::run_once(c, b, spec, 5);

  EXPECT_EQ(ra.makespan_s, rb.makespan_s);
  EXPECT_EQ(ra.events_executed, rb.events_executed);
  EXPECT_EQ(ra.assignments, rb.assignments);
  EXPECT_EQ(ra.total_file_transfers(), rb.total_file_transfers());
  EXPECT_EQ(ra.total_bytes_transferred(), rb.total_bytes_transferred());
  EXPECT_EQ(ra.total_cache_hits(), rb.total_cache_hits());
  EXPECT_EQ(ra.total_evictions(), rb.total_evictions());
}

}  // namespace
}  // namespace wcs::workload
