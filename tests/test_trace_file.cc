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
  // Writes `trace` to the test file and returns the message load_job()
  // refuses it with (empty if it loads).
  std::string load_error(const std::string& trace) {
    {
      std::ofstream out(path_);
      out << trace;
    }
    try {
      (void)load_job(path_.string());
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "";
  }
  std::filesystem::path path_;
};

// The header every malformed-line case below starts from: lines 1-3.
constexpr const char* kTwoFiles = "job bad\nfiles 2\nfilesize 0 100\n";

bool mentions(const std::string& message, const std::string& part) {
  return message.find(part) != std::string::npos;
}

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

TEST_F(TraceFileTest, RejectsANonNumericFileIdNamingTheLine) {
  const std::string error = load_error(std::string(kTwoFiles) +
                                       "filesize 1 100\ntask 0 5.0 0 x\n");
  EXPECT_TRUE(mentions(error, "trace line 5: task field 'x'")) << error;
}

TEST_F(TraceFileTest, RejectsANonNumericTaskIdNamingTheLine) {
  EXPECT_TRUE(mentions(load_error(std::string(kTwoFiles) + "task abc\n"),
                       "trace line 4: task"));
  const std::string error =
      load_error(std::string(kTwoFiles) + "task abc 5.0 0\n");
  EXPECT_TRUE(mentions(error, "trace line 4: task field 'abc'")) << error;
}

TEST_F(TraceFileTest, RejectsAFractionalFileIdNamingTheLine) {
  const std::string error = load_error(
      std::string(kTwoFiles) + "filesize 1 100\ntask 0 5.0 0 1 1.5\n");
  EXPECT_TRUE(mentions(error, "trace line 5: task field '1.5'")) << error;
}

TEST_F(TraceFileTest, RejectsTrailingFieldsSignsAndNonFiniteValues) {
  const std::string tasks = "filesize 1 100\ntask 0 5.0 0 1\n";
  EXPECT_TRUE(mentions(load_error("job a b\n"),
                       "trace line 1: job takes 1 fields, got 2"));
  EXPECT_TRUE(
      mentions(load_error(std::string(kTwoFiles) + "filesize 1 100 7\n"),
               "trace line 4: filesize takes 2 fields, got 3"));
  EXPECT_TRUE(mentions(load_error(std::string(kTwoFiles) + "filesize 1 -5\n"),
                       "trace line 4: filesize field '-5'"));
  EXPECT_TRUE(mentions(load_error(std::string(kTwoFiles) +
                                  "filesize 1 100\ntask 0 inf 0\n"),
                       "trace line 5: task field 'inf'"));
  EXPECT_TRUE(mentions(
      load_error(std::string(kTwoFiles) + tasks + "tenant 0 1 a b\n"),
      "trace line 6: tenant takes 3 fields, got 4"));
  EXPECT_TRUE(
      mentions(load_error(std::string(kTwoFiles) + "task 0 5.0 0 1\n" +
                          "filesize 1 100\ntask 0 5.0 1\n"),
               "trace line 6: task 0 declared twice (first on line 4)"));
  EXPECT_EQ(load_error(std::string(kTwoFiles) + tasks), "");  // well-formed
}

TEST_F(TraceFileTest, RefusesAHugeTaskIdWithoutSizingStagingByIt) {
  // A reader that sized its staging by the id would ask for ~4e9 slots.
  const std::string error = load_error("task 4000000000 1 0\n");
  EXPECT_TRUE(mentions(error, "trace line 1: task ids must be dense"))
      << error;
  EXPECT_TRUE(mentions(load_error("files 4000000000\n"),
                       "file with no declared size"));
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
