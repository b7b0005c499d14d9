#include "sched/storage_affinity.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>
#include <unordered_set>

namespace wcs::sched {

StorageAffinityScheduler::StorageAffinityScheduler(
    const StorageAffinityParams& params)
    : params_(params) {
  WCS_CHECK_MSG(params.max_replicas >= 1, "max_replicas must be >= 1");
}

void StorageAffinityScheduler::on_job_submitted() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  const std::size_t num_tasks = engine().job().num_tasks();
  placements_.assign(num_tasks, {});
  completed_.assign(num_tasks, 0);
  worker_load_.assign(engine().num_workers(), 0);
  orphans_.reset(num_tasks);
  // Subscribe to cache notifications BEFORE any assignment so no
  // mutation can slip past the incremental byte counters.
  build_affinity_index();
  distribute_all();
  // Seed replica-index membership now that every task holds exactly one
  // instance (distribute_all places all of them; no cache events fire
  // synchronously during assignment, so the byte counters are current).
  for (std::size_t i = 0; i < num_tasks; ++i)
    sync_replicable(TaskId(static_cast<TaskId::underlying_type>(i)));
}

void StorageAffinityScheduler::build_affinity_index() {
  const workload::Job& job = engine().job();
  const std::size_t num_tasks = job.num_tasks();
  const std::size_t num_sites = engine().num_sites();

  // CSR build: count row widths, finalize, fill in task order — each
  // row ends up in the same order the old per-file push_back produced.
  tasks_of_file_.reset(job.catalog.num_files());
  for (const workload::Task& t : job.tasks())
    for (FileId f : t.files) tasks_of_file_.count(f.value());
  tasks_of_file_.finalize();
  for (const workload::Task& t : job.tasks())
    for (FileId f : t.files) tasks_of_file_.push(f.value(), t.id);

  cached_bytes_.assign(num_sites, std::vector<Bytes>(num_tasks, 0));
  replica_index_.assign(num_sites,
                        ShardedTaskIndex(/*prefer_high_id=*/true));
  for (std::size_t s = 0; s < num_sites; ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    replica_index_[s].reset(num_tasks, /*num_keys=*/1);
    const storage::FileCache& cache = engine().site_cache(site);
    for (FileId f : cache.contents()) {
      const Bytes sz = job.catalog.size(f);
      for (TaskId t : tasks_of_file_.row(f.value()))
        cached_bytes_[s][t.value()] += sz;
    }
    engine().set_cache_listener(
        site, [this, site](storage::CacheEvent e, FileId f) {
          on_cache_event(site, e, f);
        });
  }
}

void StorageAffinityScheduler::on_cache_event(SiteId site,
                                              storage::CacheEvent event,
                                              FileId file) {
  // Byte overlap only changes when residency changes; accesses bump
  // reference counts, which storage affinity never reads.
  if (event == storage::CacheEvent::kAccessed) return;
  const Bytes sz = engine().job().catalog.size(file);
  std::vector<Bytes>& bytes = cached_bytes_[site.value()];
  ShardedTaskIndex& shard = replica_index_[site.value()];
  for (TaskId t : tasks_of_file_.row(file.value())) {
    if (event == storage::CacheEvent::kAdded) {
      bytes[t.value()] += sz;
    } else {
      WCS_DCHECK(bytes[t.value()] >= sz);
      bytes[t.value()] -= sz;
    }
    if (shard.contains(t)) shard.update(t, 0, bytes[t.value()]);
  }
}

void StorageAffinityScheduler::sync_replicable(TaskId task) {
  const auto& instances = placements_[task.value()];
  const bool want =
      !completed_[task.value()] && !instances.empty() &&
      instances.size() < static_cast<std::size_t>(params_.max_replicas);
  for (std::size_t s = 0; s < replica_index_.size(); ++s) {
    ShardedTaskIndex& shard = replica_index_[s];
    if (want == shard.contains(task)) continue;
    if (want)
      shard.insert(task, 0, cached_bytes_[s][task.value()]);
    else
      shard.erase(task);
  }
}

void StorageAffinityScheduler::distribute_all() {
  const workload::Job& job = engine().job();
  const std::size_t num_sites = engine().num_sites();

  // Projected per-site contents: what the site's storage will hold once
  // the tasks already queued there have run — capacity-bounded FIFO, like
  // the real storage under churn.
  struct VirtualCache {
    std::unordered_set<FileId> present;
    std::deque<FileId> order;
    std::size_t capacity;
  };
  std::vector<VirtualCache> vcache(num_sites);
  std::vector<double> site_load(num_sites, 0);
  for (std::size_t s = 0; s < num_sites; ++s) {
    SiteId site(static_cast<SiteId::underlying_type>(s));
    vcache[s].capacity = engine().site_cache(site).capacity();
    // Current contents count toward the projection (empty on a cold run).
    for (FileId f : engine().site_cache(site).contents()) {
      vcache[s].present.insert(f);
      vcache[s].order.push_back(f);
    }
  }

  // Workers grouped by site, for least-loaded worker selection.
  std::vector<std::vector<WorkerId>> site_workers(num_sites);
  for (std::size_t w = 0; w < engine().num_workers(); ++w) {
    WorkerId worker(static_cast<WorkerId::underlying_type>(w));
    site_workers[engine().site_of(worker).value()].push_back(worker);
  }

  // Per-worker queue cap (see StorageAffinityParams::imbalance_factor).
  const double fair_share = static_cast<double>(job.num_tasks()) /
                            static_cast<double>(engine().num_workers());
  const auto load_cap = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(fair_share * params_.imbalance_factor)));

  auto least_loaded_worker = [&](std::size_t site) {
    WorkerId best = WorkerId::invalid();
    for (WorkerId w : site_workers[site])
      if (!best.valid() ||
          worker_load_[w.value()] < worker_load_[best.value()])
        best = w;
    return best;
  };

  for (const workload::Task& task : job.tasks()) {
    // Pick the site with maximal projected byte overlap among sites that
    // still have queue headroom; ties to the least loaded site, then the
    // lowest id.
    std::size_t best_site = num_sites;  // invalid
    double best_overlap = -1;
    for (std::size_t s = 0; s < num_sites; ++s) {
      WorkerId candidate = least_loaded_worker(s);
      WCS_CHECK_MSG(candidate.valid(), "site without workers");
      if (worker_load_[candidate.value()] >= load_cap) continue;
      double overlap = 0;
      for (FileId f : task.files)
        if (vcache[s].present.count(f))
          overlap += static_cast<double>(job.catalog.size(f));
      bool wins = best_site == num_sites || overlap > best_overlap ||
                  (overlap == best_overlap &&
                   site_load[s] < site_load[best_site]);
      if (wins) {
        best_overlap = overlap;
        best_site = s;
      }
    }
    // The cap guarantees total headroom >= num_tasks, so a site exists.
    WCS_CHECK_MSG(best_site < num_sites, "no site with queue headroom");
    WorkerId best_worker = least_loaded_worker(best_site);

    placements_[task.id.value()].push_back(best_worker);
    ++worker_load_[best_worker.value()];
    site_load[best_site] += 1;
    engine().assign_task(task.id, best_worker);

    // Update the projection with this task's files.
    VirtualCache& vc = vcache[best_site];
    for (FileId f : task.files) {
      if (!vc.present.insert(f).second) continue;
      vc.order.push_back(f);
      if (vc.present.size() > vc.capacity) {
        FileId victim = vc.order.front();
        vc.order.pop_front();
        vc.present.erase(victim);
      }
    }
  }
}

double StorageAffinityScheduler::cache_affinity(TaskId task,
                                                SiteId site) const {
  const workload::Job& job = engine().job();
  const storage::FileCache& cache = engine().site_cache(site);
  double bytes = 0;
  for (FileId f : job.task(task).files)
    if (cache.contains(f)) bytes += static_cast<double>(job.catalog.size(f));
  return bytes;
}

void StorageAffinityScheduler::on_worker_idle(WorkerId worker) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  const TaskId t = replica_pick(worker);
  if (!t.valid()) return;  // nothing replicatable; worker stays idle
  auto& instances = placements_[t.value()];
  if (instances.empty())
    orphans_.erase(t.value());
  else
    ++replications_;
  instances.push_back(worker);
  sync_replicable(t);
  engine().assign_task(t, worker);
}

TaskId StorageAffinityScheduler::replica_pick(WorkerId worker) const {
  // Orphan pickup first: a task may have lost its last instance while no
  // live worker was available (total-outage corner under churn). The
  // ordered set yields the lowest orphan id.
  if (!orphans_.empty())
    return TaskId(static_cast<TaskId::underlying_type>(orphans_.first()));

  // Replica pick: best-first heap walk. Ranks are exact byte overlaps
  // (the scan's doubles represent the same sums exactly — well below
  // 2^53), ties walk toward the highest id, and tasks already holding an
  // instance on this worker are skipped in place — the first acceptable
  // entry IS the scan's argmax.
  TaskId pick = TaskId::invalid();
  replica_index_[engine().site_of(worker).value()].walk(
      0, [&](const ShardedTaskIndex::Entry& e) {
        if (placements_[e.task.value()].contains(worker)) return true;
        pick = e.task;
        return false;
      });
  return pick;
}

TaskId StorageAffinityScheduler::reference_pick(WorkerId worker) const {
  for (std::size_t i = 0; i < placements_.size(); ++i)
    if (!completed_[i] && placements_[i].empty())
      return TaskId(static_cast<TaskId::underlying_type>(i));

  // The incomplete task with the largest storage affinity to this
  // worker's site among tasks that can still gain an instance.
  const SiteId site = engine().site_of(worker);
  TaskId best = TaskId::invalid();
  double best_affinity = -1;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    if (completed_[i]) continue;
    const auto& instances = placements_[i];
    if (instances.size() >= static_cast<std::size_t>(params_.max_replicas))
      continue;
    TaskId t(static_cast<TaskId::underlying_type>(i));
    if (instances.contains(worker)) continue;  // never two on one worker
    double affinity = cache_affinity(t, site);
    // Ties (typically all-zero affinity) go to the HIGHEST task id: queues
    // were filled in task order, so high ids sit at queue tails, farthest
    // from execution — replicating those migrates real work instead of
    // racing a task that is about to start anyway.
    if (affinity > best_affinity || (affinity == best_affinity && t > best)) {
      best_affinity = affinity;
      best = t;
    }
  }
  return best;
}

void StorageAffinityScheduler::on_worker_failed(
    WorkerId worker, const std::vector<TaskId>& lost) {
  for (TaskId t : lost) {
    auto& instances = placements_[t.value()];
    instances.erase_value(worker);
    sync_replicable(t);  // may drop below max_replicas
    if (!instances.empty() || completed_[t.value()]) continue;
    // Orphaned: push to the least-backlogged live worker (tie: lowest id).
    WorkerId target = WorkerId::invalid();
    for (std::size_t w = 0; w < engine().num_workers(); ++w) {
      WorkerId cand(static_cast<WorkerId::underlying_type>(w));
      if (cand == worker || !engine().worker_alive(cand)) continue;
      if (!target.valid() ||
          engine().worker_backlog(cand) < engine().worker_backlog(target))
        target = cand;
    }
    // With every worker down the task waits for the next failure event
    // of a recovered worker to re-place it — in practice recovery
    // always precedes that, and the engine flags a truly stuck job.
    // Until then it is parked in the orphan set, where the next idle
    // worker picks it up by lowest id.
    if (!target.valid()) {
      orphans_.insert(t.value());
      continue;
    }
    instances.push_back(target);
    sync_replicable(t);
    engine().assign_task(t, target);
  }
}

void StorageAffinityScheduler::on_task_completed(TaskId task,
                                                 WorkerId worker) {
  completed_[task.value()] = 1;
  sync_replicable(task);  // completed: leaves every replica index
  // Trim the inverted index so cache events stop touching this task.
  for (FileId f : engine().job().task(task).files) {
    const bool removed = tasks_of_file_.erase_swap(f.value(), task);
    WCS_DCHECK(removed);
    (void)removed;
  }
  for (WorkerId w : placements_[task.value()]) {
    if (w == worker) continue;
    engine().cancel_task(task, w);
  }
  placements_[task.value()].clear();
}

void StorageAffinityScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  if (replica_index_.empty()) return;  // before on_job_submitted()
  const workload::Job& job = engine().job();

  for (std::size_t s = 0; s < replica_index_.size(); ++s) {
    const SiteId site(static_cast<SiteId::underlying_type>(s));
    const ShardedTaskIndex& shard = replica_index_[s];
    const storage::FileCache& cache = engine().site_cache(site);

    audit::ShardedIndexSnapshot snap;
    snap.label = "site " + std::to_string(s) + " replica index";
    snap.indexed = shard.size();
    snap.defects = shard.structural_defects();
    std::size_t expected = 0;
    for (std::size_t i = 0; i < placements_.size(); ++i) {
      const TaskId t(static_cast<TaskId::underlying_type>(i));
      const auto& instances = placements_[i];
      const bool want =
          !completed_[i] && !instances.empty() &&
          instances.size() < static_cast<std::size_t>(params_.max_replicas);
      if (want) ++expected;
      if (want != shard.contains(t)) {
        std::ostringstream os;
        os << "task " << t << (want ? " replicable but not indexed"
                                    : " indexed but not replicable");
        snap.defects.push_back(os.str());
        continue;
      }
      if (!want) continue;
      // Rank vs brute-force byte overlap against the live cache.
      Bytes bytes = 0;
      for (FileId f : job.task(t).files)
        if (cache.contains(f)) bytes += job.catalog.size(f);
      if (shard.rank_of(t) != bytes ||
          cached_bytes_[s][t.value()] != bytes) {
        std::ostringstream os;
        os << "task " << t << " ranked at " << shard.rank_of(t)
           << " bytes (counter " << cached_bytes_[s][t.value()]
           << ") but the rescan finds " << bytes;
        snap.defects.push_back(os.str());
      }
    }
    snap.expected = expected;
    audit::check_sharded_index(snap, out);
  }

  // Orphan set vs the placement table.
  audit::ShardedIndexSnapshot orphan_snap;
  orphan_snap.label = "orphan set";
  orphan_snap.indexed = orphans_.size();
  std::size_t expected_orphans = 0;
  for (std::size_t i = 0; i < placements_.size(); ++i) {
    const TaskId t(static_cast<TaskId::underlying_type>(i));
    const bool is_orphan = !completed_[i] && placements_[i].empty();
    // A task completed-and-cleared is not an orphan; one the scan would
    // pick up must be in the set.
    if (is_orphan) ++expected_orphans;
    if (is_orphan != orphans_.contains(t.value())) {
      std::ostringstream os;
      os << "task " << t
         << (is_orphan ? " orphaned but not tracked" : " tracked but placed");
      orphan_snap.defects.push_back(os.str());
    }
  }
  orphan_snap.expected = expected_orphans;
  audit::check_sharded_index(orphan_snap, out);

  // Decision coherence: every live worker's pick equals the oracle's.
  audit::ShardedIndexSnapshot pick_snap;
  pick_snap.label = "replica pick";
  for (std::size_t w = 0; w < engine().num_workers(); ++w) {
    const WorkerId worker(static_cast<WorkerId::underlying_type>(w));
    if (!engine().worker_alive(worker)) continue;
    const TaskId live = replica_pick(worker);
    const TaskId reference = reference_pick(worker);
    if (live == reference) continue;
    std::ostringstream os;
    os << "worker " << worker << " gets " << live
       << " but the reference scan picks " << reference;
    pick_snap.defects.push_back(os.str());
  }
  audit::check_sharded_index(pick_snap, out);
}

}  // namespace wcs::sched
