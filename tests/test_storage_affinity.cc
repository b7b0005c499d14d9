// Unit tests for the task-centric storage-affinity baseline: initial
// distribution, replication, cancellation.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fake_engine.h"
#include "sched/storage_affinity.h"
#include "sched/workqueue.h"

namespace wcs::sched {
namespace {

using testing::FakeEngine;
using testing::make_job;

StorageAffinityScheduler make_sa(int max_replicas = 2) {
  StorageAffinityParams p;
  p.max_replicas = max_replicas;
  return StorageAffinityScheduler(p);
}

TEST(StorageAffinity, Name) { EXPECT_EQ(make_sa().name(), "storage-affinity"); }

TEST(StorageAffinity, RejectsZeroReplicas) {
  StorageAffinityParams p;
  p.max_replicas = 0;
  EXPECT_THROW(StorageAffinityScheduler{p}, std::logic_error);
}

TEST(StorageAffinity, DistributesEveryTaskUpFront) {
  auto job = make_job({{0}, {1}, {2}, {3}, {4}}, 5);
  FakeEngine eng(job, 2, 2);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  EXPECT_EQ(eng.assignments.size(), 5u);  // task-centric: push everything
  std::set<unsigned> tasks;
  for (auto& [t, w] : eng.assignments) tasks.insert(t.value());
  EXPECT_EQ(tasks.size(), 5u);
}

TEST(StorageAffinity, ColdStartBalancesByLoad) {
  // With empty caches every overlap is 0, so ties spread tasks across
  // sites/workers by load.
  auto job = make_job({{0}, {1}, {2}, {3}}, 4);
  FakeEngine eng(job, 2, 2);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  std::map<unsigned, int> per_worker;
  for (auto& [t, w] : eng.assignments) ++per_worker[w.value()];
  EXPECT_EQ(per_worker.size(), 4u);
  for (auto& [w, n] : per_worker) EXPECT_EQ(n, 1);
}

TEST(StorageAffinity, OverlappingTasksClusterOnOneSite) {
  // Tasks 0-3 share files {0,1,2}; task 4 is disjoint. The sharing tasks
  // land on the same site (the projected-contents greedy) until the
  // load cap (ceil(5/3 * 1.25) = 3 per worker) forces task 3 elsewhere.
  auto job = make_job({{0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3}, {1, 2, 4},
                       {10, 11, 12}},
                      13);
  FakeEngine eng(job, 3, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  std::map<unsigned, unsigned> task_site;
  for (auto& [t, w] : eng.assignments)
    task_site[t.value()] = eng.site_of(w).value();
  EXPECT_EQ(task_site[1], task_site[0]);
  EXPECT_EQ(task_site[2], task_site[0]);
  EXPECT_NE(task_site[3], task_site[0]);  // capped: pushed off the hot site
  EXPECT_NE(task_site[4], task_site[0]);
}

TEST(StorageAffinity, PopularFilesUnbalanceUpToTheLoadCap) {
  // Many tasks share one popular file set; the site that accumulates it
  // attracts them (the Sec. 3.1 unbalance problem) until the imbalance
  // cap (ceil(8/4 * 1.25) = 3) stops the pile-up.
  std::vector<std::vector<unsigned>> sets;
  for (int i = 0; i < 8; ++i) sets.push_back({0, 1, 2});
  auto job = make_job(sets, 3);
  FakeEngine eng(job, 4, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  std::map<unsigned, int> per_site;
  for (auto& [t, w] : eng.assignments) ++per_site[eng.site_of(w).value()];
  int max_load = 0;
  for (auto& [s, n] : per_site) max_load = std::max(max_load, n);
  EXPECT_EQ(max_load, 3);  // hot site saturates its cap (fair share is 2)
}

TEST(StorageAffinity, HigherImbalanceFactorAllowsMorePileUp) {
  std::vector<std::vector<unsigned>> sets;
  for (int i = 0; i < 8; ++i) sets.push_back({0, 1, 2});
  auto job = make_job(sets, 3);
  FakeEngine eng(job, 4, 1);
  StorageAffinityParams p;
  p.imbalance_factor = 4.0;  // cap = 8: effectively uncapped
  StorageAffinityScheduler sa(p);
  sa.attach(eng);
  sa.on_job_submitted();
  std::map<unsigned, int> per_site;
  for (auto& [t, w] : eng.assignments) ++per_site[eng.site_of(w).value()];
  int max_load = 0;
  for (auto& [s, n] : per_site) max_load = std::max(max_load, n);
  EXPECT_EQ(max_load, 8);  // the full Sec. 3.1 pathology
}

TEST(StorageAffinity, PrematureDecisions_ProjectionRespectsCapacity) {
  // Site capacity 2: the projection must evict, so a task whose files
  // were projected long ago no longer attracts followers.
  auto job = make_job({{0, 1}, {2, 3}, {4, 5}, {0, 1}}, 6);
  FakeEngine eng(job, 2, 1, /*capacity=*/2);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  // Task 3 shares files with task 0, but by then the projection of task
  // 0's site has churned past {0,1}; overlap is 0 -> load tie-break.
  std::map<unsigned, unsigned> task_site;
  std::map<unsigned, int> per_site;
  for (auto& [t, w] : eng.assignments) {
    task_site[t.value()] = eng.site_of(w).value();
    ++per_site[eng.site_of(w).value()];
  }
  EXPECT_EQ(per_site[0], 2);
  EXPECT_EQ(per_site[1], 2);
}

TEST(StorageAffinity, ReplicatesToIdleWorkerByAffinity) {
  auto job = make_job({{0, 1}, {2, 3}}, 4);
  FakeEngine eng(job, 2, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  eng.assignments.clear();
  // Site 1's cache holds task 0's files -> idle worker 1 replicates t0.
  eng.add_file(SiteId(1), FileId(0));
  eng.add_file(SiteId(1), FileId(1));
  sa.on_worker_idle(WorkerId(1));
  ASSERT_EQ(eng.assignments.size(), 1u);
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
  EXPECT_EQ(eng.assignments[0].second, WorkerId(1));
  EXPECT_EQ(sa.replications(), 1u);
  EXPECT_EQ(sa.placements(TaskId(0)).size(), 2u);
}

TEST(StorageAffinity, MaxReplicasBoundsInstances) {
  auto job = make_job({{0}}, 1);
  FakeEngine eng(job, 3, 1);
  auto sa = make_sa(/*max_replicas=*/2);
  sa.attach(eng);
  sa.on_job_submitted();
  sa.on_worker_idle(WorkerId(1));  // replica 2 of 2
  sa.on_worker_idle(WorkerId(2));  // would be replica 3: refused
  EXPECT_EQ(sa.placements(TaskId(0)).size(), 2u);
  EXPECT_EQ(eng.assignments.size(), 2u);
}

TEST(StorageAffinity, NeverPlacesTwoInstancesOnOneWorker) {
  auto job = make_job({{0}}, 1);
  FakeEngine eng(job, 1, 1);
  auto sa = make_sa(/*max_replicas=*/3);
  sa.attach(eng);
  sa.on_job_submitted();
  sa.on_worker_idle(WorkerId(0));  // only candidate is already on worker 0
  EXPECT_EQ(eng.assignments.size(), 1u);
}

TEST(StorageAffinity, CompletionCancelsSiblingReplicas) {
  auto job = make_job({{0}, {1}}, 2);
  FakeEngine eng(job, 2, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  sa.on_worker_idle(WorkerId(1));  // replicate something
  ASSERT_EQ(sa.placements(TaskId(0)).size() + sa.placements(TaskId(1)).size(),
            3u);
  TaskId replicated = eng.assignments.back().first;
  WorkerId original = eng.assignments[replicated.value()].second;
  sa.on_task_completed(replicated, original);
  ASSERT_EQ(eng.cancellations.size(), 1u);
  EXPECT_EQ(eng.cancellations[0].first, replicated);
  EXPECT_EQ(eng.cancellations[0].second, WorkerId(1));
  EXPECT_TRUE(sa.completed(replicated));
}

TEST(StorageAffinity, CompletedTasksAreNotReplicated) {
  auto job = make_job({{0}, {1}}, 2);
  FakeEngine eng(job, 2, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  sa.on_task_completed(TaskId(0), eng.assignments[0].second);
  sa.on_task_completed(TaskId(1), eng.assignments[1].second);
  eng.assignments.clear();
  sa.on_worker_idle(WorkerId(0));
  EXPECT_TRUE(eng.assignments.empty());  // nothing replicatable
}

TEST(StorageAffinity, ReplicationPrefersHighestByteOverlap) {
  auto job = make_job({{0, 1, 2}, {3}}, 4);
  FakeEngine eng(job, 2, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  eng.assignments.clear();
  eng.add_file(SiteId(1), FileId(0));
  eng.add_file(SiteId(1), FileId(1));
  eng.add_file(SiteId(1), FileId(3));
  // t0 overlap = 2 files > t1 overlap = 1 file, unless t0 is already on
  // worker 1 (not the case: 2 sites, 1 worker each; t0 went to worker 0).
  sa.on_worker_idle(WorkerId(1));
  ASSERT_FALSE(eng.assignments.empty());
  EXPECT_EQ(eng.assignments[0].first, TaskId(0));
}

TEST(StorageAffinity, AuditCatchesCountersThatMissedACacheEvent) {
  auto job = make_job({{0, 1}, {1, 2}, {2}}, 3);
  FakeEngine eng(job, 2, 1);
  auto sa = make_sa();
  sa.attach(eng);
  sa.on_job_submitted();
  eng.cache(SiteId(1)).set_listener({});  // the scheduler stops hearing
  eng.add_file(SiteId(1), FileId(1));
  std::vector<audit::Violation> violations;
  sa.audit_collect(violations);
  // Tasks 0 and 1 read file 1 and are incomplete; their replica-index
  // ranks at site 1 drifted with the counters.
  ASSERT_GE(violations.size(), 2u);
  EXPECT_EQ(violations[0].checker, "index-coherence");
  EXPECT_EQ(violations[1].checker, "index-coherence");
  EXPECT_NE(violations[0].message.find("site 1 task 0"), std::string::npos)
      << violations[0].message;
}

// --- Workqueue baseline ---------------------------------------------------

TEST(Workqueue, FifoOrder) {
  auto job = make_job({{0}, {1}, {2}}, 3);
  FakeEngine eng(job, 1, 1);
  WorkqueueScheduler wq;
  wq.attach(eng);
  wq.on_job_submitted();
  EXPECT_EQ(wq.name(), "workqueue");
  EXPECT_EQ(wq.pending_count(), 3u);
  wq.on_worker_idle(WorkerId(0));
  wq.on_worker_idle(WorkerId(0));
  wq.on_worker_idle(WorkerId(0));
  wq.on_worker_idle(WorkerId(0));  // empty: no-op
  ASSERT_EQ(eng.assignments.size(), 3u);
  for (unsigned i = 0; i < 3; ++i)
    EXPECT_EQ(eng.assignments[i].first, TaskId(i));
}

}  // namespace
}  // namespace wcs::sched
