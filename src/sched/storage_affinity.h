// Task-centric baseline: storage affinity with task replication
// (Santos-Neto et al., JSSPP'04), as characterized by the paper in
// Sec. 3.1:
//
//   "the scheduler first distributes its tasks according to the overlap
//    cardinality. Once the initial assigning is done, it waits until at
//    least one worker becomes idle. Then the scheduler picks a task
//    already assigned to a worker and replicates it to the idle worker.
//    If one of the workers finishes the task, the other cancels the
//    task."
//
// Initial distribution (reconstruction — the paper gives no pseudo-code;
// recorded as a deviation in DESIGN.md §6): tasks are placed one by one,
// each on the site with the largest byte-overlap between the task's
// input set and the site's *projected* storage contents — the files that
// earlier-assigned tasks will have pulled there, tracked with a
// capacity-bounded FIFO "virtual cache" per site. Ties go to the least
// loaded site, then the lowest site id; within a site, to the least
// loaded worker. This reproduces both phenomena the paper attributes to
// task-centric scheduling: sites holding popular files attract more
// tasks (unbalanced assignment), and the placement decision is made long
// before execution (premature decisions — by execution time the real
// cache may have evicted the files the placement assumed).
//
// Replication: an idle worker receives a replica of the incomplete task
// with the largest byte-overlap against the worker's site cache (actual,
// current contents), up to max_replicas instances per task. The first
// instance to finish wins; the scheduler cancels the siblings.
//
// Complexity: the replica pick is the hot path (it runs on every idle
// transition for the rest of the run). A brute-force pick rescans every
// task and intersects its file set with the cache, O(T * I) per request;
// that scan survives only as the oracle reference_pick(). The live path
// maintains, from cache-change notifications, an incremental
// per-(site, task) cached-byte counter and a per-site sharded index
// (sharded_index.h) over the replicable set — one heap, rank = bytes,
// ties broken toward the highest task id, as the scan breaks them — so a
// request walks the heap best-first and picks the identical task.
// Orphan pickup keeps an ordered id set matching the scan's
// lowest-id-first order. --audit cross-validates counters, heap ranks,
// the orphan set, and every live worker's replica_pick() against
// reference_pick() on every sweep.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/csr.h"
#include "common/dense_id_set.h"
#include "common/inline_vec.h"
#include "sched/scheduler.h"
#include "sched/sharded_index.h"

namespace wcs::sched {

// Default initial-distribution load cap (StorageAffinityParams).
inline constexpr double kImbalanceFactor = 1.25;

struct StorageAffinityParams {
  int max_replicas = 2;  // total concurrent instances per task

  // Initial-distribution load cap: no worker's queue may exceed
  // imbalance_factor * (num_tasks / num_workers). Without a cap the
  // projected-overlap greedy can funnel an entire popular region onto one
  // site, which the paper's measured storage-affinity baseline clearly
  // does not do (its makespan is comparable to the worker-centric
  // algorithms at large capacities, Fig. 4). Reconstruction choice
  // recorded in DESIGN.md §6.
  double imbalance_factor = kImbalanceFactor;
};

class StorageAffinityScheduler final : public Scheduler {
 public:
  explicit StorageAffinityScheduler(const StorageAffinityParams& params);

  void on_job_submitted() override;
  void on_worker_idle(WorkerId worker) override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  // Crash handling: a lost task whose last instance died is pushed to
  // the least-backlogged live worker (task-centric recovery — the
  // scheduler must actively re-place, it cannot wait to be asked).
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) override;
  [[nodiscard]] std::string name() const override {
    return "storage-affinity";
  }

  // Invariant audit: cross-validates the incremental cached-byte
  // counters and the per-site replica index against a brute-force
  // recompute from the live caches, the orphan set against the placement
  // table, and replica_pick() against reference_pick() for every live
  // worker.
  void audit_collect(std::vector<audit::Violation>& out) const override;

  // The task on_worker_idle(worker) would hand out: the lowest-id orphan
  // if any, else the replicable task with the largest byte overlap
  // against the worker's site cache (ties to the highest id) that has no
  // instance on `worker`; invalid when there is none. Resolved from the
  // orphan set and the replica index; mutates nothing.
  [[nodiscard]] TaskId replica_pick(WorkerId worker) const;

  // The same decision by brute-force scan over every task: the decision
  // oracle shared by audit_collect() and the tests.
  [[nodiscard]] TaskId reference_pick(WorkerId worker) const;

  // --- Introspection (tests) -------------------------------------------
  [[nodiscard]] std::span<const WorkerId> placements(TaskId task) const {
    const auto& v = placements_.at(task.value());
    return {v.data(), v.size()};
  }
  [[nodiscard]] bool completed(TaskId task) const {
    return completed_.at(task.value()) != 0;
  }
  [[nodiscard]] std::uint64_t replications() const { return replications_; }

 private:
  void distribute_all();
  // Byte overlap between a task's input set and a site's current cache.
  [[nodiscard]] double cache_affinity(TaskId task, SiteId site) const;

  // --- Sharded replica index (see file comment) -------------------------
  // Builds the inverted file->task index, seeds the per-(site, task)
  // cached-byte counters from current cache contents, and subscribes to
  // cache-change notifications.
  void build_affinity_index();
  // Re-keys cached_bytes_ and the replica index for one cache mutation.
  void on_cache_event(SiteId site, storage::CacheEvent event, FileId file);
  // Re-derives `task`'s membership in every site's replica index from
  // its placement/completion state (replicable = incomplete, has at
  // least one instance, below max_replicas).
  void sync_replicable(TaskId task);

  StorageAffinityParams params_;
  // Active instances per task; two inline slots cover max_replicas = 2
  // (every paper configuration), larger settings spill.
  std::vector<common::InlineVec<WorkerId, 2>> placements_;
  std::vector<char> completed_;
  std::vector<std::uint32_t> worker_load_;  // queued+running per worker
  std::uint64_t replications_ = 0;

  // The inverted index holds INCOMPLETE tasks only (trimmed on
  // completion) so cache events stop touching finished tasks; it lives
  // in one CSR pool (swap-erase on completion is the only mutation).
  common::Csr<TaskId> tasks_of_file_;
  std::vector<std::vector<Bytes>> cached_bytes_;  // [site][task]
  std::vector<ShardedTaskIndex> replica_index_;   // per site, high-id ties
  // Incomplete tasks with no live instance, as a bitmap whose
  // lowest-member query matches the scan's lowest-id-first pickup.
  common::DenseIdSet orphans_;
};

}  // namespace wcs::sched
