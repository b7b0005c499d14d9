// The residency layer the data-aware schedulers share (sched/residency.h):
// the file -> task index, the per-task scan, and the pending bag.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fake_engine.h"
#include "sched/residency.h"

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

}  // namespace
}  // namespace wcs::sched
