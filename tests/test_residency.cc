// The residency layer the data-aware schedulers share (sched/residency.h):
// the per-(site, task) residency table and its decision index, the
// file -> task index, the per-task scan, and the pending bag; and the
// table under eviction pressure end to end, for every scheduler that
// keeps one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fake_engine.h"
#include "grid/grid_simulation.h"
#include "obs/trace.h"
#include "sched/factory.h"
#include "sched/residency.h"
#include "sched/worker_centric.h"
#include "workload/coadd.h"
#include "workload/registry.h"

namespace wcs::sched {
namespace {

using testing::FakeEngine;
using testing::make_job;

std::vector<TaskId> row(const TaskFileIndex& index, unsigned file) {
  const auto r = index.tasks_of(FileId(file));
  return {r.begin(), r.end()};
}

TEST(TaskFileIndex, TrackUntrackRoundTripsMatchVectorMotion) {
  // Five tasks over five files, heavily shared, so rows are long enough
  // for swap-erase to reorder them.
  const auto job =
      make_job({{0, 1, 2}, {1, 2, 3}, {0, 2, 4}, {2, 3, 4}, {1, 4}}, 5);
  TaskFileIndex index;
  index.build(job, [](TaskId) { return true; });

  // Reference model: the vector-of-vectors the index replaced.
  std::vector<std::vector<TaskId>> model(5);
  for (const workload::Task& t : job.tasks())
    for (FileId f : t.files) model[f.value()].push_back(t.id);

  std::mt19937 rng(11);
  std::vector<char> tracked(job.num_tasks(), 1);
  for (int step = 0; step < 400; ++step) {
    const TaskId t(static_cast<TaskId::underlying_type>(rng() %
                                                        job.num_tasks()));
    if (tracked[t.value()]) {
      index.untrack(t);
      for (FileId f : job.task(t).files) {
        auto& vec = model[f.value()];
        auto it = std::find(vec.begin(), vec.end(), t);
        ASSERT_NE(it, vec.end());
        *it = vec.back();
        vec.pop_back();
      }
    } else {
      index.track(t);
      for (FileId f : job.task(t).files) model[f.value()].push_back(t);
    }
    tracked[t.value()] ^= 1;
    for (unsigned f = 0; f < 5; ++f)
      ASSERT_EQ(row(index, f), model[f]) << "file " << f << " step " << step;
  }
}

TEST(TaskFileIndex, BuildTracksOnlyLiveTasksButSizesRowsForAll) {
  const auto job = make_job({{0, 1}, {1}, {0, 1}}, 2);
  TaskFileIndex index;
  index.build(job, [](TaskId t) { return t.value() != 1; });
  EXPECT_EQ(row(index, 0), (std::vector<TaskId>{TaskId(0), TaskId(2)}));
  EXPECT_EQ(row(index, 1), (std::vector<TaskId>{TaskId(0), TaskId(2)}));
  // A task left out at build time fits in its rows later.
  index.track(TaskId(1));
  EXPECT_EQ(row(index, 1),
            (std::vector<TaskId>{TaskId(0), TaskId(2), TaskId(1)}));
}

TEST(TaskFileIndex, ForEachResidentVisitsOnlyTrackedTasks) {
  const auto job = make_job({{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 4);
  FakeEngine eng(job, 1, 1);
  eng.add_file(SiteId(0), FileId(1));
  eng.add_file(SiteId(0), FileId(3));

  TaskFileIndex index;
  index.build(job, [](TaskId) { return true; });
  index.untrack(TaskId(1));  // reads file 1, must not be visited
  index.untrack(TaskId(2));  // reads file 3, must not be visited

  std::vector<std::pair<unsigned, unsigned>> visits;
  index.for_each_resident(eng.site_cache(SiteId(0)), [&](FileId f, TaskId t) {
    visits.emplace_back(f.value(), t.value());
  });
  // Resident files in contents order (ascending id), tracked readers in
  // row order.
  const std::vector<std::pair<unsigned, unsigned>> want = {{1, 0}, {3, 3}};
  EXPECT_EQ(visits, want);
}

TEST(Residency, CountsFilesBytesAndRefsOnHeterogeneousCatalog) {
  workload::Job job;
  job.set_name("hetero");
  const Bytes sizes[] = {1000, 250'000, 7, 3'000'000'000ULL, 42};
  for (Bytes b : sizes) job.catalog.add_file(b);
  job.add_task({FileId(0), FileId(1), FileId(3)}, 1.0);
  job.add_task({FileId(2), FileId(4)}, 1.0);
  job.add_task({FileId(1), FileId(2), FileId(3), FileId(4)}, 1.0);
  workload::validate_job(job);

  FakeEngine eng(job, 1, 1);
  eng.add_file(SiteId(0), FileId(1));  // 1 access
  eng.add_file(SiteId(0), FileId(3));
  eng.add_file(SiteId(0), FileId(3));  // 2 accesses
  eng.add_file(SiteId(0), FileId(4));
  eng.cache(SiteId(0)).record_access(FileId(4));
  eng.cache(SiteId(0)).record_access(FileId(4));  // 3 accesses
  const storage::FileCache& cache = eng.site_cache(SiteId(0));

  const Residency r0 = residency(cache, job, TaskId(0));
  EXPECT_EQ(r0.files, 2u);
  EXPECT_EQ(r0.bytes, 250'000 + 3'000'000'000ULL);
  EXPECT_EQ(r0.refs, 1u + 2u);

  const Residency r1 = residency(cache, job, TaskId(1));
  EXPECT_EQ(r1.files, 1u);
  EXPECT_EQ(r1.bytes, 42u);
  EXPECT_EQ(r1.refs, 3u);

  const Residency r2 = residency(cache, job, TaskId(2));
  EXPECT_EQ(r2.files, 3u);
  EXPECT_EQ(r2.bytes, 250'000 + 3'000'000'000ULL + 42);
  EXPECT_EQ(r2.refs, 1u + 2u + 3u);
}

TEST(PendingBag, EraseSwapsTheLastTaskIntoTheGap) {
  PendingBag bag;
  bag.reset(5);
  for (unsigned t = 0; t < 5; ++t) bag.insert(TaskId(t));
  bag.erase(TaskId(1));
  EXPECT_EQ(std::vector<TaskId>(bag.begin(), bag.end()),
            (std::vector<TaskId>{TaskId(0), TaskId(4), TaskId(2), TaskId(3)}));
  EXPECT_FALSE(bag.contains(TaskId(1)));
  EXPECT_FALSE(bag.contains(TaskId(9)));  // out of range: not pending
  bag.insert(TaskId(1));
  EXPECT_EQ(std::vector<TaskId>(bag.begin(), bag.end()),
            (std::vector<TaskId>{TaskId(0), TaskId(4), TaskId(2), TaskId(3),
                                 TaskId(1)}));
  EXPECT_THROW(bag.insert(TaskId(1)), std::logic_error);
  EXPECT_EQ(bag.size(), 5u);
}

// --- ResidencyTable ------------------------------------------------------

constexpr unsigned kAllColumns = ResidencyTable::kFiles |
                                 ResidencyTable::kRefs |
                                 ResidencyTable::kBytes;

// A (key, rank) of a table whose index ranks by 32-bit counts.
using Place = std::pair<std::uint64_t, std::uint32_t>;

// Tasks refresh() re-keys at `site`: the indexed tasks cache events
// marked there since its last refresh.
std::vector<unsigned> refreshed_ids(const ResidencyTable& table,
                                    std::size_t site) {
  std::vector<unsigned> ids;
  table.refresh(site, [&](std::size_t, TaskId t) {
    ids.push_back(t.value());
    return Place{0, 0};
  });
  return ids;
}

TEST(ResidencyTable, TrackedCountersFollowAddsEvictionsAndAccesses) {
  std::mt19937 rng(5);
  std::vector<std::vector<unsigned>> sets(12);
  for (auto& files : sets) {
    for (unsigned f = 0; f < 10; ++f)
      if (rng() % 3 == 0) files.push_back(f);
    if (files.empty()) files.push_back(static_cast<unsigned>(rng() % 10));
  }
  const auto job = make_job(std::move(sets), 10);
  // Capacity 3 of 10 files: most adds evict.
  FakeEngine eng(job, 2, 1, /*capacity=*/3);
  eng.add_file(SiteId(1), FileId(4));  // seeded, not replayed

  ResidencyTable table;
  table.build(eng, kAllColumns, [](TaskId t) { return t.value() % 4 != 0; });
  std::vector<char> tracked(job.num_tasks());
  for (const workload::Task& t : job.tasks())
    tracked[t.id.value()] = t.id.value() % 4 != 0;

  std::size_t resident_pairs = 0;  // tracked pairs seen with a file
  for (int step = 0; step < 300; ++step) {
    const TaskId t(static_cast<TaskId::underlying_type>(rng() %
                                                        job.num_tasks()));
    if (rng() % 5 == 0) {
      if (tracked[t.value()])
        table.untrack(t);
      else
        table.track(t);
      tracked[t.value()] ^= 1;
    } else {
      eng.add_file(SiteId(static_cast<SiteId::underlying_type>(rng() % 2)),
                   FileId(static_cast<FileId::underlying_type>(rng() % 10)));
    }
    for (unsigned s = 0; s < 2; ++s)
      for (const workload::Task& task : job.tasks()) {
        if (!tracked[task.id.value()]) continue;
        const Residency r = residency(eng.site_cache(SiteId(s)), job, task.id);
        ASSERT_EQ(table.files(s, task.id), r.files) << "step " << step;
        ASSERT_EQ(table.refs(s, task.id), r.refs) << "step " << step;
        ASSERT_EQ(table.bytes(s, task.id), r.bytes) << "step " << step;
        resident_pairs += r.files > 0 ? 1 : 0;
      }
    std::vector<audit::Violation> v;
    table.audit_collect([&](TaskId x) { return tracked[x.value()] != 0; }, v);
    ASSERT_TRUE(v.empty()) << v.front().message;
  }
  EXPECT_GT(resident_pairs, 0u);  // the events reached tracked tasks
}

TEST(ResidencyTable, AnAccessReKeysIndexedReadersOnlyWithARefsColumn) {
  const auto job = make_job({{0, 1}, {1}}, 2);
  for (unsigned columns :
       {unsigned{ResidencyTable::kFiles}, unsigned{ResidencyTable::kBytes},
        unsigned{ResidencyTable::kFiles | ResidencyTable::kRefs}}) {
    FakeEngine eng(job, 1, 1);
    ResidencyTable table;
    const auto all = [](TaskId) { return true; };
    table.build(eng, columns, all);
    table.fill_index(1, 1, /*prefer_high_id=*/false, all,
                     [](std::size_t, TaskId) { return Place{0, 0}; });
    eng.cache(SiteId(0)).insert(FileId(1));
    EXPECT_EQ(refreshed_ids(table, 0), (std::vector<unsigned>{0, 1}));
    eng.cache(SiteId(0)).record_access(FileId(1));
    const bool refs = (columns & ResidencyTable::kRefs) != 0;
    EXPECT_EQ(refreshed_ids(table, 0),
              refs ? std::vector<unsigned>({0, 1}) : std::vector<unsigned>());
    EXPECT_EQ(table.refs(0, TaskId(0)), refs ? 1u : 0u);
    EXPECT_EQ(table.refs(0, TaskId(1)), refs ? 1u : 0u);
  }
}

TEST(ResidencyTable, BuildRefusesATaskOfMoreFilesThanTheOverlapCounterHolds) {
  // The files column is u16: task 1 reads 65,536 files, one too many.
  std::vector<unsigned> wide(65536);
  std::iota(wide.begin(), wide.end(), 0u);
  const auto job = make_job({{0}, wide}, wide.size());
  const auto all = [](TaskId) { return true; };
  {
    FakeEngine eng(job, 1, 1);
    ResidencyTable table;
    try {
      table.build(eng, ResidencyTable::kFiles, all);
      FAIL() << "a 65,536-file task was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("task 1 reads 65536 files"),
                std::string::npos)
          << e.what();
    }
  }
  {
    FakeEngine eng(job, 1, 1);  // without a files column it fits
    ResidencyTable table;
    table.build(eng, ResidencyTable::kBytes, all);
  }
  // 65,535 files fit and count to the top, and an eviction's wrapped
  // step (0u - 1) takes one off a u16 counter there.
  const unsigned last = wide.back();
  wide.pop_back();
  const auto widest = make_job({{last}, wide}, wide.size() + 1);
  FakeEngine eng(widest, 1, 1, /*capacity=*/wide.size());
  ResidencyTable table;
  table.build(eng, ResidencyTable::kFiles, all);
  for (unsigned f : wide) eng.cache(SiteId(0)).insert(FileId(f));
  EXPECT_EQ(table.files(0, TaskId(1)), 65535u);
  eng.cache(SiteId(0)).insert(FileId(last));  // evicts file 0 (LRU)
  EXPECT_EQ(table.files(0, TaskId(1)), 65534u);
  EXPECT_EQ(table.files(0, TaskId(0)), 1u);
}

TEST(ResidencyTable, FillIndexRefusesAKeySpacePastSixteenBits) {
  // Combined files a tenant's tasks under max |t| + 1 keys: three tenants
  // of a job whose largest task reads 30,000 files need 90,003 keys.
  std::vector<unsigned> wide(30000);
  std::iota(wide.begin(), wide.end(), 0u);
  const auto job = make_job({{0}, wide, {1}}, wide.size());
  workload::ArrivalSchedule schedule;
  schedule.tenants = {{"a", 1}, {"b", 1}, {"c", 1}};
  schedule.tenant_of = {0, 1, 2};
  FakeEngine eng(job, 1, 1, /*capacity=*/wide.size());
  eng.schedule = &schedule;
  WorkerCentricParams params;
  params.metric = Metric::kCombined;
  WorkerCentricScheduler wc(params);
  wc.attach(eng);
  try {
    wc.on_job_submitted();
    FAIL() << "a 90,003-key index was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "decision index: 3 tenants x 30001 keys a tenant (max task "
                  "size 30000 + 1 under combined) need 90003 keys, more than "
                  "the 65536 an index holds"),
              std::string::npos)
        << e.what();
  }
  // Two tenants need 60,002 keys, which fit.
  schedule.tenants.pop_back();
  schedule.tenant_of.back() = 1;
  WorkerCentricScheduler fits(params);
  fits.attach(eng);
  fits.on_job_submitted();
  EXPECT_EQ(fits.pending_count(), 3u);
}

TEST(ResidencyTable, AuditReportsEveryDriftedPair) {
  const auto job = make_job({{0, 1}, {1, 2}, {2}}, 3);
  FakeEngine eng(job, 2, 1);
  ResidencyTable table;
  table.build(eng, ResidencyTable::kBytes, [](TaskId) { return true; });
  eng.cache(SiteId(1)).set_listener({});  // the table stops hearing
  eng.add_file(SiteId(1), FileId(1));
  std::vector<audit::Violation> v;
  table.audit_collect([](TaskId t) { return t.value() != 1; }, v);
  ASSERT_EQ(v.size(), 1u);  // task 1 also reads file 1 but is untracked
  EXPECT_EQ(v[0].checker, "index-coherence");
  EXPECT_NE(v[0].message.find("site 1 task 0"), std::string::npos);
  // Only the kept bytes column drifted; files and refs read the recount.
  const std::string size = std::to_string(job.catalog.size(FileId(1)));
  EXPECT_EQ(v[0].message, "site 1 task 0 counters files/bytes/refs 1/0/1 "
                          "but the residency() recount finds 1/" +
                              size + "/1");
}

// --- ResidencyTable's decision index -------------------------------------

// Task ids `table` files at `site` under key 0, best first.
template <typename Table>
std::vector<unsigned> walk_ids(const Table& table, std::size_t site) {
  std::vector<unsigned> ids;
  table.walk(site, 0, [&](const auto& e) {
    ids.push_back(e.task.value());
    return true;
  });
  return ids;
}

TEST(ResidencyTable, IndexAndUnindexReachEverySite) {
  const auto job = make_job({{0}, {1}, {2}, {0, 1}}, 3);
  FakeEngine eng(job, 3, 1);
  ResidencyTable table;
  table.build(eng, ResidencyTable::kFiles, [](TaskId) { return true; });
  const auto place = [](std::size_t, TaskId) { return Place{0, 0}; };
  table.fill_index(1, 1, /*prefer_high_id=*/false,
                   [](TaskId t) { return t.value() != 2; }, place);
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(walk_ids(table, s), (std::vector<unsigned>{0, 1, 3}));
  EXPECT_FALSE(table.indexed(TaskId(2)));

  table.index(TaskId(2), place);
  table.unindex(TaskId(0));
  EXPECT_TRUE(table.indexed(TaskId(2)));
  EXPECT_FALSE(table.indexed(TaskId(0)));
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_EQ(walk_ids(table, s), (std::vector<unsigned>{1, 2, 3}))
        << "site " << s;
  std::vector<audit::Violation> v;
  table.audit_index([](TaskId t) { return t.value() != 0; }, place, v);
  EXPECT_TRUE(v.empty()) << v.front().message;
}

TEST(ResidencyTable, ACacheEventMarksOnlyIndexedTasksAndRefreshReKeysThem) {
  // Tasks 1 and 2 read file 1; task 2 is tracked but not indexed.
  const auto job = make_job({{0}, {1}, {1}, {2}}, 3);
  FakeEngine eng(job, 2, 1);
  ResidencyTable table;
  table.build(eng, ResidencyTable::kFiles, [](TaskId) { return true; });
  const auto place = [&table](std::size_t s, TaskId t) {
    return Place{0, table.files(s, t)};
  };
  table.fill_index(1, 1, /*prefer_high_id=*/false,
                   [](TaskId t) { return t.value() != 2; }, place);

  eng.add_file(SiteId(0), FileId(1));
  // The counters move for both readers, indexed or not.
  EXPECT_EQ(table.files(0, TaskId(1)), 1u);
  EXPECT_EQ(table.files(0, TaskId(2)), 1u);
  // refresh() re-keys exactly the marked tasks: task 1 at site 0.
  for (std::size_t s = 0; s < 2; ++s) {
    std::vector<unsigned> refreshed;
    table.refresh(s, [&](std::size_t site, TaskId t) {
      refreshed.push_back(t.value());
      return place(site, t);
    });
    EXPECT_EQ(refreshed, s == 0 ? std::vector<unsigned>({1})
                                : std::vector<unsigned>())
        << "site " << s;
  }
  EXPECT_EQ(walk_ids(table, 0), (std::vector<unsigned>{1, 0, 3}));
  EXPECT_EQ(walk_ids(table, 1), (std::vector<unsigned>{0, 1, 3}));
}

TEST(ResidencyTable, PreferHighIdOrdersIndexTiesTowardHighIds) {
  const auto job = make_job({{0}, {0}, {1}, {1}}, 2);
  for (bool high : {false, true}) {
    FakeEngine eng(job, 2, 1);
    BasicResidencyTable<Bytes> table;  // storage affinity's ranks
    table.build(eng, ResidencyTable::kBytes, [](TaskId) { return true; });
    const auto place = [&table](std::size_t s, TaskId t) {
      return std::pair{std::uint64_t{0}, table.bytes(s, t)};
    };
    table.fill_index(1, 1, high, [](TaskId) { return true; }, place);
    eng.add_file(SiteId(1), FileId(1));  // tasks 2 and 3 rank first there
    table.refresh(0, place);
    table.refresh(1, place);
    using Ids = std::vector<unsigned>;
    EXPECT_EQ(walk_ids(table, 0), high ? Ids({3, 2, 1, 0}) : Ids({0, 1, 2, 3}));
    EXPECT_EQ(walk_ids(table, 1), high ? Ids({3, 2, 1, 0}) : Ids({2, 3, 0, 1}));
  }
}

TEST(ResidencyTable, AuditIndexReportsMissingUnwantedAndMisplacedTasks) {
  const auto job = make_job({{0}, {1}, {2}}, 3);
  FakeEngine eng(job, 2, 1);
  ResidencyTable table;
  table.build(eng, ResidencyTable::kFiles, [](TaskId) { return true; });
  const auto filed = [](TaskId t) { return t.value() != 2; };
  const auto place = [](std::size_t, TaskId t) {
    return Place{0, t.value()};
  };
  table.fill_index(1, 1, /*prefer_high_id=*/false, filed, place);
  const auto audit = [&](auto want, auto where) {
    std::vector<audit::Violation> v;
    table.audit_index(want, where, v);
    std::vector<std::string> messages;
    for (const audit::Violation& x : v) {
      EXPECT_EQ(x.checker, "sharded-index");
      messages.push_back(x.message);
    }
    return messages;
  };
  EXPECT_TRUE(audit(filed, place).empty());

  // Wanted but missing: every site, with the count mismatch.
  EXPECT_EQ(audit([](TaskId) { return true; }, place),
            (std::vector<std::string>{
                "site 0 index holds 2 entries but the brute-force rescan "
                "finds 3 schedulable tasks",
                "site 0 index: task 2 wanted but not indexed",
                "site 1 index holds 2 entries but the brute-force rescan "
                "finds 3 schedulable tasks",
                "site 1 index: task 2 wanted but not indexed"}));
  // Indexed but unwanted.
  const std::vector<std::string> unwanted =
      audit([](TaskId t) { return t.value() == 1; }, place);
  ASSERT_EQ(unwanted.size(), 4u);
  EXPECT_EQ(unwanted[1], "site 0 index: task 0 indexed but not wanted");
  // A key or rank that differs from `place`.
  const std::vector<std::string> misplaced =
      audit(filed, [](std::size_t s, TaskId t) {
        return Place{0, t.value() + (s == 1 && t.value() == 1 ? 7 : 0)};
      });
  EXPECT_EQ(misplaced, (std::vector<std::string>{
                           "site 1 index: task 1 filed under key 0 / rank 1 "
                           "but its place is 0 / 8"}));
}

// --- End to end: eviction under the auditor ------------------------------

// The name comes last: gtest lists an unprintable parameter as its bytes,
// and a leading std::string would put a heap address into each test name.
struct EvictionCase {
  Algorithm algorithm;
  int choose_n;
  bool tenants;  // three WRR tenants with Poisson arrivals
  std::string name;
};

class EvictionUnderAudit : public ::testing::TestWithParam<EvictionCase> {};

// Coadd at ~100 tasks on 3 one-worker sites whose caches hold just more
// than the largest task, audited every 50 events and traced: every
// scheduler that keeps a residency table must see kEvicted events (and
// the caches must trace them) without an index-coherence or
// sharded-index violation.
TEST_P(EvictionUnderAudit, EvictsWithoutAnAuditViolation) {
  const EvictionCase& c = GetParam();
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.coadd.num_tasks = 100;
  if (c.tenants) {
    gen.generator = "multi-tenant";
    gen.open.process = workload::ArrivalProcess::kPoisson;
    gen.open.mean_interarrival_s = 120.0;
    gen.open.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
  }
  const workload::Workload wl = workload::build_workload(gen);
  std::size_t largest = 0;
  for (const workload::Task& t : wl.job.tasks())
    largest = std::max(largest, t.files.size());

  grid::GridConfig config;
  config.tiers.num_sites = 3;
  config.tiers.workers_per_site = 1;
  config.capacity_files = largest + 10;
  config.audit = true;
  config.audit_interval_events = 50;
  config.obs.trace = true;
  SchedulerSpec spec;
  spec.algorithm = c.algorithm;
  spec.choose_n = c.choose_n;
  grid::GridSimulation sim(config, wl, make_scheduler(spec, &wl.arrivals));
  metrics::RunResult r;
  ASSERT_NO_THROW(r = sim.run());
  if (c.tenants) {
    EXPECT_EQ(r.scheduler, spec.name() + "+wrr");
  }
  EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
  EXPECT_GT(r.total_evictions(), 0u);
  std::size_t eviction_spans = 0;
  for (const obs::TraceSpan& span : sim.observability()->tracer()->spans())
    eviction_spans += span.kind == obs::SpanKind::kEviction;
  EXPECT_GT(eviction_spans, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, EvictionUnderAudit,
    ::testing::Values(
        EvictionCase{Algorithm::kRest, 1, false, "rest"},
        EvictionCase{Algorithm::kCombined, 1, false, "combined"},
        EvictionCase{Algorithm::kRest, 2, false, "rest2"},
        EvictionCase{Algorithm::kStorageAffinity, 1, false,
                     "storage_affinity"},
        EvictionCase{Algorithm::kXSufferage, 1, false, "xsufferage"},
        EvictionCase{Algorithm::kRest, 1, true, "rest_wrr3"},
        EvictionCase{Algorithm::kCombined, 1, true, "combined_wrr3"}),
    [](const ::testing::TestParamInfo<EvictionCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace wcs::sched
