// Tests for the workload model, the Coadd generator (paper Table 2 /
// Figure 3 calibration targets), the generic generators, and trace I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_set>

#include "fnv1a.h"
#include "workload/coadd.h"
#include "workload/generators.h"
#include "workload/job.h"
#include "workload/open.h"
#include "workload/trace.h"

namespace wcs::workload {
namespace {

// --- FileCatalog / Job basics --------------------------------------------

TEST(FileCatalog, UniformSizes) {
  FileCatalog c(10, megabytes(25));
  EXPECT_EQ(c.num_files(), 10u);
  EXPECT_EQ(c.size(FileId(3)), megabytes(25));
  EXPECT_EQ(c.total_bytes(), 10u * megabytes(25));
}

TEST(FileCatalog, AddFile) {
  FileCatalog c;
  FileId f = c.add_file(123);
  EXPECT_EQ(f.value(), 0u);
  EXPECT_EQ(c.size(f), 123u);
}

TEST(FileCatalog, OutOfRangeThrows) {
  FileCatalog c(2, 1);
  EXPECT_THROW((void)c.size(FileId(5)), std::logic_error);
}

TEST(Job, TaskBytes) {
  Job job;
  job.catalog = FileCatalog(3, megabytes(5));
  job.add_task({FileId(0), FileId(2)}, 1);
  EXPECT_EQ(job.task_bytes(TaskId(0)), 2 * megabytes(5));
}

TEST(ValidateJob, RejectsDuplicateFiles) {
  Job job;
  job.catalog = FileCatalog(3, 1);
  job.add_task({FileId(1), FileId(1)}, 1);
  EXPECT_THROW(validate_job(job), std::logic_error);
}

TEST(ValidateJob, RejectsUnknownFile) {
  Job job;
  job.catalog = FileCatalog(1, 1);
  job.add_task({FileId(7)}, 1);
  EXPECT_THROW(validate_job(job), std::logic_error);
}

// validate_job's failure message, or "" when the job passes.
std::string validation_error(const Job& job) {
  try {
    validate_job(job);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(ValidateJob, RejectsInvalidDefaultFileId) {
  Job job;
  job.catalog = FileCatalog(3, 1);
  job.add_task({FileId(0)}, 1);
  job.add_task({FileId(2), FileId()}, 1);
  EXPECT_NE(validation_error(job).find(
                "task 1 references unknown file <invalid>"),
            std::string::npos)
      << validation_error(job);
}

TEST(ValidateJob, RejectsNonAdjacentDuplicate) {
  Job job;
  job.catalog = FileCatalog(5, 1);
  job.add_task({FileId(0), FileId(1)}, 1);
  job.add_task({FileId(3), FileId(0), FileId(4), FileId(3)}, 1);
  EXPECT_NE(validation_error(job).find("task 1 references file 3 twice"),
            std::string::npos)
      << validation_error(job);
}

TEST(ValidateJob, RejectsDuplicateAtEndOfList) {
  Job job;
  job.catalog = FileCatalog(5, 1);
  job.add_task({FileId(4), FileId(2), FileId(1), FileId(0), FileId(2)}, 1);
  EXPECT_NE(validation_error(job).find("task 0 references file 2 twice"),
            std::string::npos)
      << validation_error(job);
}

TEST(ValidateJob, RejectsEmptyTask) {
  Job job;
  job.catalog = FileCatalog(2, 1);
  job.add_task({FileId(0), FileId(1)}, 1);
  job.add_task(std::span<const FileId>(), 1);
  EXPECT_NE(validation_error(job).find("task 1 has no input files"),
            std::string::npos)
      << validation_error(job);
}

TEST(ValidateJob, FileMayRepeatAcrossTasks) {
  // The per-task duplicate marks are cleared between tasks.
  Job job;
  job.catalog = FileCatalog(3, 1);
  job.add_task({FileId(2), FileId(0)}, 1);
  job.add_task({FileId(0), FileId(2)}, 1);
  job.add_task({FileId(2)}, 1);
  EXPECT_EQ(validation_error(job), "");
}

TEST(ValidateJob, RejectsZeroComputeCost) {
  Job job;
  job.catalog = FileCatalog(1, 1);
  job.add_task({FileId(0)}, 0.0);
  EXPECT_THROW(validate_job(job), std::logic_error);
}

TEST(ComputeStats, SmallHandCase) {
  Job job;
  job.catalog = FileCatalog(4, 1);
  auto add = [&](std::initializer_list<unsigned> files) {
    std::vector<FileId> f;
    for (unsigned x : files) f.push_back(FileId(x));
    job.add_task(f, 1);
  };
  add({0, 1});
  add({1, 2, 3});
  add({1});
  JobStats s = compute_stats(job);
  EXPECT_EQ(s.num_tasks, 3u);
  EXPECT_EQ(s.distinct_files, 4u);
  EXPECT_EQ(s.max_files_per_task, 3u);
  EXPECT_EQ(s.min_files_per_task, 1u);
  EXPECT_DOUBLE_EQ(s.avg_files_per_task, 2.0);
  // file 1 has 3 refs; files 0,2,3 have 1.
  EXPECT_DOUBLE_EQ(s.refs_cdf.fraction_at_least(3), 0.25);
  EXPECT_DOUBLE_EQ(s.refs_cdf.fraction_at_least(1), 1.0);
}

// --- Coadd generator: Table 2 calibration --------------------------------

class CoaddPaperScale : public ::testing::Test {
 protected:
  static const Job& job() {
    static const Job j = generate_coadd(CoaddParams::paper_6000());
    return j;
  }
  static const JobStats& stats() {
    static const JobStats s = compute_stats(job());
    return s;
  }
};

TEST_F(CoaddPaperScale, TaskCount) { EXPECT_EQ(stats().num_tasks, 6000u); }

TEST_F(CoaddPaperScale, DistinctFilesNearTable2) {
  // Paper Table 2: 53,390 total files at 6,000 tasks. Allow 3%.
  EXPECT_NEAR(static_cast<double>(stats().distinct_files), 53390.0,
              53390.0 * 0.03);
}

TEST_F(CoaddPaperScale, FilesPerTaskRangeMatchesTable2) {
  // Paper: min 36, max 101.
  EXPECT_GE(stats().min_files_per_task, 36u);
  EXPECT_LE(stats().max_files_per_task, 101u);
}

TEST_F(CoaddPaperScale, MeanFilesPerTaskNearTable2) {
  // Paper: 78.43 on average. Allow +-2.
  EXPECT_NEAR(stats().avg_files_per_task, 78.43, 2.0);
}

TEST_F(CoaddPaperScale, ReferenceSharingMatchesFigure3) {
  // Paper Fig. 3: roughly 85% of files are accessed by 6 or more tasks.
  double frac6 = stats().refs_cdf.fraction_at_least(6);
  EXPECT_GT(frac6, 0.78);
  EXPECT_LT(frac6, 0.93);
  // And everything is referenced at least once (by construction of the
  // stats: only referenced files are counted).
  EXPECT_DOUBLE_EQ(stats().refs_cdf.fraction_at_least(1), 1.0);
}

TEST_F(CoaddPaperScale, PopularTailExists) {
  // The calibration-file pool produces a high-reference tail (Fig. 1's
  // x-axis reaches 12+ references).
  EXPECT_GT(stats().refs_cdf.fraction_at_least(12), 0.0);
}

TEST_F(CoaddPaperScale, ComputeCostScalesWithFiles) {
  const Job& j = job();
  for (const Task& t : j.tasks())
    EXPECT_DOUBLE_EQ(t.mflop, 2.0e5 * static_cast<double>(t.files.size()));
}

TEST_F(CoaddPaperScale, UniformFileSize) {
  EXPECT_EQ(job().catalog.size(FileId(0)), megabytes(25));
}

TEST(Coadd, DeterministicForSeed) {
  CoaddParams p;
  p.num_tasks = 200;
  Job a = generate_coadd(p);
  Job b = generate_coadd(p);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    EXPECT_TRUE(std::ranges::equal(a.task(id).files, b.task(id).files));
  }
}

TEST(Coadd, SeedChangesLayout) {
  CoaddParams p1, p2;
  p1.num_tasks = p2.num_tasks = 200;
  p2.seed = p1.seed + 1;
  Job a = generate_coadd(p1);
  Job b = generate_coadd(p2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.num_tasks() && !any_diff; ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    any_diff = !std::ranges::equal(a.task(id).files, b.task(id).files);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Coadd, StripeNeighborsOverlapHeavily) {
  CoaddParams p;
  p.num_tasks = 600;
  p.num_rows = 2;
  Job j = generate_coadd(p);
  // Tasks are emitted round-robin over rows: stripe-neighbours are
  // num_rows ids apart and share most files (spatial structure). Average
  // over many pairs (individual pairs vary with stride jumps and window
  // subsampling).
  double total_fraction = 0;
  const std::size_t kPairs = 50;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto a = j.task(TaskId(static_cast<TaskId::underlying_type>(
                              i * 2))).files;      // row 0, window k = i
    const auto b = j.task(TaskId(static_cast<TaskId::underlying_type>(
                              i * 2 + 2))).files;  // row 0, window k = i+1
    std::unordered_set<FileId> sa(a.begin(), a.end());
    std::size_t shared = 0;
    for (FileId f : b)
      if (sa.count(f)) ++shared;
    total_fraction += static_cast<double>(shared) /
                      static_cast<double>(b.size());
  }
  EXPECT_GT(total_fraction / kPairs, 0.5);
}

TEST(Coadd, ConsecutiveIdsAreDifferentStripes) {
  CoaddParams p;
  p.num_tasks = 400;
  p.num_rows = 4;
  p.popular_picks_per_task = 0;  // isolate the row structure
  Job j = generate_coadd(p);
  // Task 0 (row 0) and task 1 (row 1) live in disjoint file regions.
  const Task t0 = j.task(TaskId(0));
  std::unordered_set<FileId> row0(t0.files.begin(), t0.files.end());
  for (FileId f : j.task(TaskId(1)).files) EXPECT_EQ(row0.count(f), 0u);
}

TEST(Coadd, ScalesToOtherTaskCounts) {
  CoaddParams p;
  p.num_tasks = 1000;
  Job j = generate_coadd(p);
  JobStats s = compute_stats(j);
  EXPECT_EQ(s.num_tasks, 1000u);
  // Auto target: ~8.9 distinct files per task (looser at small scale:
  // per-row rounding and pass offsets weigh more).
  EXPECT_NEAR(static_cast<double>(s.distinct_files), 8900.0, 8900.0 * 0.10);
}

TEST(Coadd, ValidatedOutput) {
  CoaddParams p;
  p.num_tasks = 300;
  EXPECT_NO_THROW(validate_job(generate_coadd(p)));
}

// --- Generic generators ---------------------------------------------------

TEST(Generators, UniformShapes) {
  GeneratorParams p;
  p.num_tasks = 50;
  p.num_files = 200;
  p.files_per_task = 10;
  Job j = generate_uniform(p);
  EXPECT_EQ(j.num_tasks(), 50u);
  for (const Task& t : j.tasks()) EXPECT_EQ(t.files.size(), 10u);
  EXPECT_NO_THROW(validate_job(j));
}

TEST(Generators, ZipfSkewsPopularity) {
  GeneratorParams p;
  p.num_tasks = 200;
  p.num_files = 100;
  p.files_per_task = 5;
  Job j = generate_zipf(p, 1.2);
  JobStats s = compute_stats(j);
  // The hottest file should be referenced far more than the median file.
  auto pts = s.refs_cdf.points();
  EXPECT_GT(pts.back().first, 40u);  // hot file in most tasks
}

TEST(Generators, PartitionedHasZeroSharing) {
  GeneratorParams p;
  p.num_tasks = 30;
  p.files_per_task = 4;
  Job j = generate_partitioned(p);
  JobStats s = compute_stats(j);
  EXPECT_EQ(s.distinct_files, 120u);
  EXPECT_DOUBLE_EQ(s.refs_cdf.fraction_at_least(2), 0.0);
}

TEST(Generators, SlidingWindowOverlap) {
  Job j = generate_sliding_window(10, 8, 2);
  // task t and t+1 share width - stride = 6 files.
  const Task t0 = j.task(TaskId(0));
  std::unordered_set<FileId> a(t0.files.begin(), t0.files.end());
  std::size_t shared = 0;
  for (FileId f : j.task(TaskId(1)).files)
    if (a.count(f)) ++shared;
  EXPECT_EQ(shared, 6u);
}

TEST(Generators, UniformRequiresFeasibleParams) {
  GeneratorParams p;
  p.num_files = 5;
  p.files_per_task = 10;
  EXPECT_THROW((void)generate_uniform(p), std::logic_error);
}

// --- Generated-job fingerprints ------------------------------------------
//
// FNV-1a over every catalog size, every task's file list (length first)
// and its mflop bits. The constants pin the generators' exact output, so
// a change to how a generator draws or de-duplicates its picks must
// consume the same RNG draws to keep them.

std::uint64_t fingerprint(const Job& job) {
  wcs::testing::Fnv1a h;
  h.add(job.catalog.num_files());
  for (FileId::underlying_type f = 0; f < job.catalog.num_files(); ++f)
    h.add(job.catalog.size(FileId(f)));
  h.add(job.num_tasks());
  for (const Task& t : job.tasks()) {
    h.add(t.files.size());
    for (FileId f : t.files) h.add(f.value());
    h.add(std::bit_cast<std::uint64_t>(t.mflop));
  }
  return h.value();
}

TEST(GeneratedJobFingerprint, CoaddPaper6000) {
  CoaddParams p = CoaddParams::paper_6000();
  p.seed = 42;
  EXPECT_EQ(fingerprint(generate_coadd(p)), 0xe15b7d3711f68567ull);
  p.seed = 7;
  EXPECT_EQ(fingerprint(generate_coadd(p)), 0xdb300dfb5cf53a83ull);
}

TEST(GeneratedJobFingerprint, MultiTenantThreeTenants) {
  // Three Coadd tenants weighted 3:1:2 over a 3,000-task bag, Poisson
  // arrivals at rho 0.9 on ten workers (the open_dedup benchmark shape).
  CoaddParams bag = CoaddParams::paper_6000();
  bag.num_tasks = 3000;
  bag.seed = 42;
  OpenParams open;
  open.process = ArrivalProcess::kPoisson;
  open.seed = 42;
  for (std::uint32_t weight : {3u, 1u, 2u}) {
    TenantInfo t;
    t.weight = weight;
    open.tenants.push_back(t);
  }
  open.mean_interarrival_s = 7800.0 / (10.0 * 0.9) * 3.0;
  EXPECT_EQ(fingerprint(generate_multi_tenant(bag, open).job),
            0xa71339cf1909af1full);
}

TEST(GeneratedJobFingerprint, UniformAndZipf) {
  GeneratorParams p;
  p.num_tasks = 500;
  p.num_files = 400;
  p.files_per_task = 30;
  p.seed = 11;
  EXPECT_EQ(fingerprint(generate_uniform(p)), 0x991e198ca9f4aed6ull);
  EXPECT_EQ(fingerprint(generate_zipf(p, 1.1)), 0x854547c5eb32c1eaull);
}

// --- Trace round trip -----------------------------------------------------

TEST(Trace, RoundTripPreservesJob) {
  CoaddParams p;
  p.num_tasks = 100;
  Job a = generate_coadd(p);
  std::stringstream ss;
  save_job(a, ss);
  Job b = load_job(ss);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  EXPECT_EQ(a.catalog.num_files(), b.catalog.num_files());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    EXPECT_TRUE(std::ranges::equal(a.task(id).files, b.task(id).files));
    EXPECT_DOUBLE_EQ(a.task(id).mflop, b.task(id).mflop);
  }
  for (FileId::underlying_type f = 0; f < a.catalog.num_files(); ++f)
    EXPECT_EQ(a.catalog.size(FileId(f)), b.catalog.size(FileId(f)));
}

TEST(Trace, IgnoresCommentsAndBlankLines) {
  std::stringstream ss;
  ss << "# a comment\n\njob tiny\nfiles 2\nfilesize 0 100\nfilesize 1 200\n"
     << "task 0 5.5 0 1\n";
  Job j = load_job(ss);
  EXPECT_EQ(j.name(), "tiny");
  EXPECT_EQ(j.num_tasks(), 1u);
  EXPECT_EQ(j.catalog.size(FileId(1)), 200u);
  EXPECT_DOUBLE_EQ(j.task(TaskId(0)).mflop, 5.5);
}

TEST(Trace, RejectsUnknownDirective) {
  std::stringstream ss;
  ss << "bogus 1 2 3\n";
  EXPECT_THROW((void)load_job(ss), std::logic_error);
}

}  // namespace
}  // namespace wcs::workload
