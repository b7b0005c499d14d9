// Unit tests for the worker-centric scheduler: the three
// CalculateWeight() metrics, ChooseTask(n), the incremental index, and
// the degenerate cases the paper leaves implicit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fake_engine.h"
#include "sched/worker_centric.h"

namespace wcs::sched {
namespace {

using testing::FakeEngine;
using testing::make_job;

WorkerCentricScheduler make_sched(Metric m, int n = 1,
                                  CombinedFormula f = CombinedFormula::kProse,
                                  std::uint64_t seed = 7) {
  WorkerCentricParams p;
  p.metric = m;
  p.choose_n = n;
  p.combined_formula = f;
  p.seed = seed;
  return WorkerCentricScheduler(p);
}

// Job: t0 needs {0,1}, t1 needs {1,2,3}, t2 needs {4}.
workload::Job tiny_job() { return make_job({{0, 1}, {1, 2, 3}, {4}}, 5); }

TEST(Naming, MatchesPaperLabels) {
  EXPECT_EQ(make_sched(Metric::kOverlap).name(), "overlap");
  EXPECT_EQ(make_sched(Metric::kRest).name(), "rest");
  EXPECT_EQ(make_sched(Metric::kCombined).name(), "combined");
  EXPECT_EQ(make_sched(Metric::kRest, 2).name(), "rest.2");
  EXPECT_EQ(make_sched(Metric::kCombined, 2).name(), "combined.2");
  EXPECT_EQ(make_sched(Metric::kCombined, 2, CombinedFormula::kVerbatim).name(),
            "combined~verbatim.2");
}

TEST(Naming, RejectsZeroN) {
  WorkerCentricParams p;
  p.choose_n = 0;
  EXPECT_THROW(WorkerCentricScheduler{p}, std::logic_error);
}

// --- Overlap metric -------------------------------------------------------

TEST(OverlapMetric, CountsResidentFiles) {
  auto job = tiny_job();
  FakeEngine eng(job, 2, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();

  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(2));

  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 1.0);  // {1}
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 2.0);  // {1,2}
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 0.0);
  // Other site unaffected.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(1), TaskId(1)), 0.0);
}

TEST(OverlapMetric, PicksMaxOverlapTask) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(2));
  eng.add_file(SiteId(0), FileId(3));
  sched.on_worker_idle(WorkerId(0));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(1));
}

TEST(OverlapMetric, ColdCacheTieBreaksToLowestTaskId) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(OverlapMetric, EvictionLowersWeight) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1, /*capacity=*/2);
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(2));
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 2.0);
  eng.add_file(SiteId(0), FileId(4));  // evicts LRU file 1
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 1.0);
}

// --- Rest metric ----------------------------------------------------------

TEST(RestMetric, InverseOfMissingFiles) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  // t0: 1 missing -> 1.0; t1: 2 missing -> 0.5; t2: 1 missing -> 1.0.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 0.5);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(2)), 1.0);
}

TEST(RestMetric, FullyResidentTaskBeatsEverything) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(0));
  eng.add_file(SiteId(0), FileId(1));
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)),
                   kFullOverlapRestWeight);
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(RestMetric, PrefersFewerTransfersOverMoreOverlap) {
  // t0 needs 10 files, 8 resident (2 missing, overlap 8).
  // t1 needs 2 files, 1 resident (1 missing, overlap 1).
  // overlap would pick t0; rest must pick t1.
  auto job = make_job({{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11}}, 12);
  FakeEngine eng(job, 1, 1);
  auto rest = make_sched(Metric::kRest);
  rest.attach(eng);
  rest.on_job_submitted();
  for (unsigned f : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 10u})
    eng.add_file(SiteId(0), FileId(f));
  rest.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(1));

  FakeEngine eng2(job, 1, 1);
  auto overlap = make_sched(Metric::kOverlap);
  overlap.attach(eng2);
  overlap.on_job_submitted();
  for (unsigned f : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 10u})
    eng2.add_file(SiteId(0), FileId(f));
  overlap.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng2.assignments[0].first, TaskId(0));
}

// --- Combined metric ------------------------------------------------------

TEST(CombinedMetric, ProseFormulaHandComputed) {
  // Two tasks: t0 = {0,1}, t1 = {1,2,3}. Site cache: {1} accessed twice,
  // {2} accessed once.
  auto job = make_job({{0, 1}, {1, 2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.cache(SiteId(0)).record_access(FileId(1));  // r_1 = 2
  eng.add_file(SiteId(0), FileId(2));             // r_2 = 1

  // ref_t0 = r_1 = 2; ref_t1 = r_1 + r_2 = 3; totalRef = 5.
  // rest_t0 = 1/(2-1) = 1; rest_t1 = 1/(3-2) = 1; totalRest = 2.
  // prose: w = ref/totalRef + rest/totalRest.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 2.0 / 5.0 + 0.5);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 3.0 / 5.0 + 0.5);
}

TEST(CombinedMetric, VerbatimFormulaHandComputed) {
  auto job = make_job({{0, 1}, {1, 2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined, 1, CombinedFormula::kVerbatim);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(1));
  eng.cache(SiteId(0)).record_access(FileId(1));
  eng.add_file(SiteId(0), FileId(2));
  // verbatim: w = ref/totalRef + totalRest/rest.
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(0)), 2.0 / 5.0 + 2.0 / 1.0);
  EXPECT_DOUBLE_EQ(sched.weight(SiteId(0), TaskId(1)), 3.0 / 5.0 + 2.0 / 1.0);
}

TEST(CombinedMetric, ZeroTotalRefIsSafe) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  // Cold cache: totalRef = 0; weights must still be finite and positive.
  double w = sched.weight(SiteId(0), TaskId(0));
  EXPECT_GT(w, 0.0);
  EXPECT_TRUE(std::isfinite(w));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments.size(), 1u);
}

TEST(CombinedMetric, PastReferencesBreakRestTies) {
  // t0 = {0,1}, t1 = {2,3}; both have 1 resident + 1 missing, but t0's
  // resident file has more past references -> combined prefers t0.
  auto job = make_job({{0, 1}, {2, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  eng.add_file(SiteId(0), FileId(0));
  eng.cache(SiteId(0)).record_access(FileId(0));
  eng.cache(SiteId(0)).record_access(FileId(0));  // r_0 = 3
  eng.add_file(SiteId(0), FileId(2));             // r_2 = 1
  EXPECT_GT(sched.weight(SiteId(0), TaskId(0)),
            sched.weight(SiteId(0), TaskId(1)));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(CombinedMetric, IndexRankRefusesARefSumPast32BitsInsteadOfWrapping) {
  // ref_t is the combined index's 32-bit rank: UINT32_MAX still fits,
  // one more names the site and task instead of wrapping to 0.
  EXPECT_EQ(WorkerCentricScheduler::combined_rank(0, TaskId(0), UINT32_MAX),
            UINT32_MAX);
  try {
    (void)WorkerCentricScheduler::combined_rank(
        3, TaskId(7), std::uint64_t{UINT32_MAX} + 1);
    FAIL() << "an out-of-range ref_t was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("site 3 task 7 has ref_t 4294967296"),
              std::string::npos)
        << e.what();
  }
}

TEST(CombinedMetric, OnlyCombinedKeepsTotals) {
  auto job = tiny_job();
  for (Metric m : {Metric::kOverlap, Metric::kRest, Metric::kCombined}) {
    FakeEngine eng(job, 2, 1);
    auto sched = make_sched(m);
    sched.attach(eng);
    sched.on_job_submitted();
    eng.add_file(SiteId(1), FileId(1));
    if (m == Metric::kCombined) {
      EXPECT_EQ(sched.totals_of(SiteId(1)).first, 2.0);  // t0 and t1 read 1
    } else {
      EXPECT_THROW((void)sched.totals_of(SiteId(1)), std::logic_error)
          << to_string(m);
    }
    std::vector<audit::Violation> v;
    sched.audit_collect(v);
    EXPECT_TRUE(v.empty()) << to_string(m) << ": " << v.front().message;
  }
}

// --- ChooseTask(n) --------------------------------------------------------

TEST(ChooseTask, N1IsDeterministic) {
  auto job = tiny_job();
  for (int rep = 0; rep < 5; ++rep) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kRest, 1, CombinedFormula::kProse,
                            /*seed=*/static_cast<std::uint64_t>(rep));
    sched.attach(eng);
    sched.on_job_submitted();
    eng.add_file(SiteId(0), FileId(4));
    sched.on_worker_idle(WorkerId(0));
    EXPECT_EQ(eng.assignments[0].first, TaskId(2));  // fully resident
  }
}

TEST(ChooseTask, N2SamplesproportionallyToWeight) {
  // t0: weight 1.0 (1 missing), t1: weight 0.5 (2 missing), t2: weight
  // 1.0... make weights distinct: use job where t0 -> 1.0, t1 -> 0.5.
  auto job = make_job({{0}, {1, 2}, {3, 4, 5, 6}}, 7);
  std::map<unsigned, int> picks;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kRest, 2, CombinedFormula::kProse, seed);
    sched.attach(eng);
    sched.on_job_submitted();
    sched.on_worker_idle(WorkerId(0));
    ++picks[eng.assignments[0].first.value()];
  }
  // Weights: t0 = 1, t1 = 0.5, t2 = 0.25. Best-2 = {t0, t1}; sampled 2:1.
  EXPECT_EQ(picks.count(2), 0u);
  double ratio = static_cast<double>(picks[0]) / picks[1];
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.7);
}

TEST(ChooseTask, NLargerThanPendingIsSafe) {
  auto job = make_job({{0}, {1}}, 2);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest, 8);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(eng.assignments.size(), 2u);
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(ChooseTask, AllZeroWeightsSampleUniformlyAmongBestN) {
  auto job = tiny_job();
  std::map<unsigned, int> picks;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(Metric::kOverlap, 2, CombinedFormula::kProse, seed);
    sched.attach(eng);
    sched.on_job_submitted();
    sched.on_worker_idle(WorkerId(0));  // cold cache: all weights 0
    ++picks[eng.assignments[0].first.value()];
  }
  // Best-2 by (0, task asc) = {t0, t1}, sampled uniformly.
  EXPECT_EQ(picks.count(2), 0u);
  EXPECT_NEAR(picks[0], 200, 60);
  EXPECT_NEAR(picks[1], 200, 60);
}

// --- Bookkeeping ----------------------------------------------------------

TEST(Pending, AssignedTasksLeaveThePool) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  EXPECT_EQ(sched.pending_count(), 3u);
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(sched.pending_count(), 2u);
  EXPECT_FALSE(sched.is_pending(eng.assignments[0].first));
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));
  EXPECT_EQ(sched.pending_count(), 0u);
}

TEST(Pending, EmptyBagLeavesWorkerUnassigned) {
  auto job = make_job({{0}}, 1);
  FakeEngine eng(job, 1, 1);
  auto sched = make_sched(Metric::kRest);
  sched.attach(eng);
  sched.on_job_submitted();
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(0));  // nothing left
  EXPECT_EQ(eng.assignments.size(), 1u);
}

TEST(Pending, EachTaskAssignedExactlyOnce) {
  auto job = tiny_job();
  FakeEngine eng(job, 2, 2);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  for (unsigned w = 0; w < 4; ++w) sched.on_worker_idle(WorkerId(w));
  ASSERT_EQ(eng.assignments.size(), 3u);
  std::set<unsigned> seen;
  for (auto& [t, w] : eng.assignments) EXPECT_TRUE(seen.insert(t.value()).second);
}

TEST(Index, WarmStartCachesAreIndexed) {
  auto job = tiny_job();
  FakeEngine eng(job, 1, 1);
  eng.add_file(SiteId(0), FileId(1));  // pre-warm BEFORE submit
  auto sched = make_sched(Metric::kOverlap);
  sched.attach(eng);
  sched.on_job_submitted();
  EXPECT_EQ(sched.overlap_cardinality(SiteId(0), TaskId(0)), 1u);
  EXPECT_EQ(sched.overlap_cardinality(SiteId(0), TaskId(1)), 1u);
}

TEST(Index, AuditCatchesCountersThatMissedACacheEvent) {
  for (Metric metric : {Metric::kRest, Metric::kCombined}) {
    auto job = tiny_job();
    FakeEngine eng(job, 1, 1);
    auto sched = make_sched(metric);
    sched.attach(eng);
    sched.on_job_submitted();
    eng.cache(SiteId(0)).set_listener({});  // the scheduler stops hearing
    eng.add_file(SiteId(0), FileId(1));
    std::vector<audit::Violation> violations;
    sched.audit_collect(violations);
    // Both pending tasks that read file 1 drifted; the shard, filed from
    // the same stale counters, drifted with them.
    ASSERT_GE(violations.size(), 2u) << to_string(metric);
    EXPECT_EQ(violations[0].checker, "index-coherence");
    EXPECT_EQ(violations[1].checker, "index-coherence");
    const std::string& message = violations[0].message;
    EXPECT_NE(message.find("counters files/bytes/refs 0/"), std::string::npos)
        << message;
    EXPECT_NE(message.find("recount finds 1/"), std::string::npos) << message;
  }
}

// --- Incremental index == naive recomputation (the key property) ----------

class IndexConsistency
    : public ::testing::TestWithParam<std::tuple<Metric, std::uint64_t>> {};

TEST_P(IndexConsistency, IncrementalMatchesNaiveUnderChurn) {
  auto [metric, seed] = GetParam();
  Rng rng(seed);
  // Random job over a small universe, small caches => plenty of eviction.
  std::vector<std::vector<unsigned>> sets;
  const unsigned kFiles = 30;
  for (int t = 0; t < 12; ++t) {
    std::set<unsigned> files;
    while (files.size() < 3 + rng.index(5))
      files.insert(static_cast<unsigned>(rng.index(kFiles)));
    sets.emplace_back(files.begin(), files.end());
  }
  auto job = make_job(sets, kFiles);
  FakeEngine eng(job, 2, 1, /*capacity=*/8);
  WorkerCentricParams params;
  params.metric = metric;
  params.choose_n = 1;
  WorkerCentricScheduler sched(params);
  sched.attach(eng);
  sched.on_job_submitted();

  for (int step = 0; step < 300; ++step) {
    SiteId site(static_cast<SiteId::underlying_type>(rng.index(2)));
    eng.add_file(site, FileId(static_cast<unsigned>(rng.index(kFiles))));
    if (step % 10 == 0) {
      for (unsigned s = 0; s < 2; ++s)
        for (const workload::Task& t : job.tasks())
          if (sched.is_pending(t.id)) {
            ASSERT_NEAR(sched.weight(SiteId(s), t.id),
                        sched.naive_weight(SiteId(s), t.id), 1e-9)
                << "metric=" << to_string(metric) << " step=" << step;
          }
    }
    if (step == 150) {
      // Retire a task mid-stream; the index must stay consistent.
      for (const workload::Task& t : job.tasks())
        if (sched.is_pending(t.id)) {
          sched.on_worker_idle(WorkerId(0));
          break;
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndSeeds, IndexConsistency,
    ::testing::Combine(::testing::Values(Metric::kOverlap, Metric::kRest,
                                         Metric::kCombined),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// --- Incremental totals == naive totals (the choose_task fast path) -------

// Recomputes (totalRef, totalRest) the way the paper defines them: a
// scan over every pending task against the live cache.
std::pair<double, double> naive_totals(const WorkerCentricScheduler& sched,
                                       const FakeEngine& eng, SiteId site) {
  const workload::Job& job = eng.job();
  const storage::FileCache& cache = eng.site_cache(site);
  double total_ref = 0;
  double total_rest = 0;
  for (const workload::Task& t : job.tasks()) {
    if (!sched.is_pending(t.id)) continue;
    std::size_t overlap = 0;
    std::uint64_t refs = 0;
    for (FileId f : t.files) {
      if (cache.contains(f)) {
        ++overlap;
        refs += cache.ref_count(f);
      }
    }
    total_ref += static_cast<double>(refs);
    const std::size_t missing = t.files.size() - overlap;
    total_rest += missing == 0 ? kFullOverlapRestWeight
                               : 1.0 / static_cast<double>(missing);
  }
  return {total_ref, total_rest};
}

void expect_totals_match(const WorkerCentricScheduler& sched,
                         const FakeEngine& eng, std::size_t num_sites,
                         const char* where) {
  for (std::size_t s = 0; s < num_sites; ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    auto [inc_ref, inc_rest] = sched.totals_of(site);
    auto [ref, rest] = naive_totals(sched, eng, site);
    EXPECT_DOUBLE_EQ(inc_ref, ref) << where << " site " << s;
    EXPECT_NEAR(inc_rest, rest, 1e-9) << where << " site " << s;
  }
}

TEST(IncrementalTotals, SurviveAssignEvictFailReAddChurn) {
  // Small caches force eviction; two sites; enough tasks that the bag
  // stays busy across the whole churn sequence.
  Rng rng(99);
  std::vector<std::vector<unsigned>> sets;
  const unsigned kFiles = 24;
  for (int t = 0; t < 10; ++t) {
    std::set<unsigned> files;
    while (files.size() < 2 + rng.index(4))
      files.insert(static_cast<unsigned>(rng.index(kFiles)));
    sets.emplace_back(files.begin(), files.end());
  }
  auto job = make_job(sets, kFiles);
  FakeEngine eng(job, 2, 2, /*capacity=*/6);
  auto sched = make_sched(Metric::kCombined);
  sched.attach(eng);
  sched.on_job_submitted();
  expect_totals_match(sched, eng, 2, "after submit");

  // Warm the caches (accesses + inserts + evictions).
  for (int i = 0; i < 40; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after warmup");

  // Assign: tasks leave the pending bag.
  sched.on_worker_idle(WorkerId(0));
  sched.on_worker_idle(WorkerId(2));  // second site's worker
  sched.on_worker_idle(WorkerId(1));
  ASSERT_EQ(eng.assignments.size(), 3u);
  expect_totals_match(sched, eng, 2, "after assign");

  // Evict: more churn while tasks are out of the bag.
  for (int i = 0; i < 30; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after evictions");

  // Complete one instance, then fail the worker holding another: its
  // lost task re-enters the bag via re_add_pending against the LIVE
  // cache state.
  sched.on_task_completed(eng.assignments[0].first,
                          eng.assignments[0].second);
  std::vector<TaskId> lost{eng.assignments[1].first};
  sched.on_worker_failed(eng.assignments[1].second, lost);
  EXPECT_TRUE(sched.is_pending(lost[0]));
  expect_totals_match(sched, eng, 2, "after fail + re_add");

  // And the re-added task keeps tracking subsequent cache churn.
  for (int i = 0; i < 30; ++i)
    eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng.index(2))),
                 FileId(static_cast<unsigned>(rng.index(kFiles))));
  expect_totals_match(sched, eng, 2, "after post-re_add churn");

  // Drain the bag: totals of an empty bag are exactly zero.
  for (unsigned w = 0; w < 20 && sched.pending_count() > 0; ++w)
    sched.on_worker_idle(WorkerId(w % 4));
  EXPECT_EQ(sched.pending_count(), 0u);
  auto [ref0, rest0] = sched.totals_of(SiteId(0));
  EXPECT_DOUBLE_EQ(ref0, 0.0);
  EXPECT_DOUBLE_EQ(rest0, 0.0);
}

}  // namespace
}  // namespace wcs::sched
