// Unit tests for src/common: strong ids, rng, stats, csv, units.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/csv.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace wcs {
namespace {

// --- StrongId -----------------------------------------------------------

TEST(StrongId, DefaultIsInvalid) {
  TaskId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TaskId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  FileId f(42);
  EXPECT_TRUE(f.valid());
  EXPECT_EQ(f.value(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(TaskId(1), TaskId(2));
  EXPECT_EQ(TaskId(7), TaskId(7));
  EXPECT_NE(TaskId(7), TaskId(8));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<TaskId, FileId>);
  static_assert(!std::is_same_v<WorkerId, SiteId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<TaskId> set;
  set.insert(TaskId(1));
  set.insert(TaskId(2));
  set.insert(TaskId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutput) {
  std::ostringstream os;
  os << TaskId(5) << " " << TaskId();
  EXPECT_EQ(os.str(), "5 <invalid>");
}

// --- Rng ----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1000000), b.uniform_int(0, 1000000));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform_real(0.5, 2.5);
    EXPECT_GE(v, 0.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(99);
  Rng child = a.fork();
  // The child stream must not replay the parent stream.
  Rng b(99);
  (void)b.uniform_int(0, 1 << 30);  // consume what fork() consumed
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (child.uniform_int(0, 1 << 30) == a.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(5);
  std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  double ratio = static_cast<double>(counts[2]) / counts[1];
  EXPECT_NEAR(ratio, 3.0, 0.35);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(5);
  std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, WeightedIndexSingleElement) {
  Rng rng(5);
  std::vector<double> w{0.7};
  EXPECT_EQ(rng.weighted_index(w), 0u);
}

TEST(Rng, ZipfRanksInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    auto r = rng.zipf(50, 1.0);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 50u);
  }
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(11);
  int low = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i)
    if (rng.zipf(100, 1.0) <= 10) ++low;
  // Under Zipf(1.0, n=100), P(rank <= 10) ~ H(10)/H(100) ~ 0.56.
  EXPECT_GT(low, kDraws / 3);
}

// --- RunningStats -------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    double v = rng.uniform_real(0, 10);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, SingleValue) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
}

// --- ReverseCdf ---------------------------------------------------------

TEST(ReverseCdf, FractionAtLeast) {
  ReverseCdf cdf;
  for (std::size_t v : {1u, 2u, 6u, 6u, 8u, 10u}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(1), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(6), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(11), 0.0);
}

TEST(ReverseCdf, PointsAreMonotoneDecreasing) {
  ReverseCdf cdf;
  Rng rng(4);
  for (int i = 0; i < 500; ++i)
    cdf.add(static_cast<std::size_t>(rng.uniform_int(0, 20)));
  auto pts = cdf.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].first, pts[i].first);
    EXPECT_GE(pts[i - 1].second, pts[i].second);
  }
  EXPECT_DOUBLE_EQ(pts.front().second, 1.0);
}

TEST(ReverseCdf, EmptyIsSafe) {
  ReverseCdf cdf;
  EXPECT_DOUBLE_EQ(cdf.fraction_at_least(1), 0.0);
  EXPECT_TRUE(cdf.points().empty());
}

// --- CsvWriter ----------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b", "c"});
  csv.row(1, 2.5, "x");
  EXPECT_EQ(os.str(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row("plain", "with,comma", "with\"quote");
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, RejectsMismatchedColumnCount) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"a", "b"});
  EXPECT_THROW(csv.row(1), std::logic_error);
}

// --- Units --------------------------------------------------------------

TEST(Units, Conversions) {
  EXPECT_EQ(megabytes(25), 25'000'000u);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(25)), 25.0);
  EXPECT_DOUBLE_EQ(mbps(8), 1e6);  // 8 Mbit/s == 1 MB/s
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(to_minutes(90), 1.5);
  EXPECT_DOUBLE_EQ(to_hours(7200), 2.0);
  EXPECT_DOUBLE_EQ(gigaflops_to_mflops(2.5), 2500.0);
}

}  // namespace
}  // namespace wcs
