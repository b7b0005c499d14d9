#include "sched/xsufferage.h"

#include <cmath>
#include <limits>

namespace wcs::sched {

void XSufferageScheduler::on_job_submitted() {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  const workload::Job& job = engine().job();
  const std::size_t num_tasks = job.num_tasks();

  residency_.build(engine(), ResidencyTable::kBytes,
                   [](TaskId) { return true; });
  pending_.reset(num_tasks);
  task_bytes_.assign(num_tasks, 0);
  double total_bytes = 0;
  for (const workload::Task& t : job.tasks()) {
    pending_.insert(t.id);
    for (FileId f : t.files) task_bytes_[t.id.value()] += job.catalog.size(f);
    total_bytes += static_cast<double>(task_bytes_[t.id.value()]);
  }
  avg_task_bytes_ = num_tasks ? total_bytes / static_cast<double>(num_tasks)
                              : 0.0;
}

double XSufferageScheduler::estimated_completion(TaskId task,
                                                 SiteId site) const {
  const std::size_t s = site.value();
  double bw = engine().estimated_uplink_bandwidth(site);
  double mflops = engine().estimated_site_mflops(site);
  double queue_wait =
      static_cast<double>(engine().data_server_backlog(site)) *
      avg_task_bytes_ / bw;
  // Exact: integers below 2^53, and a task's cached bytes never exceed
  // its total.
  const Bytes cached = residency_.bytes(s, task);
  WCS_DCHECK_LE(cached, task_bytes_[task.value()]);
  const auto missing =
      static_cast<double>(task_bytes_[task.value()] - cached);
  return queue_wait + missing / bw +
         engine().job().task(task).mflop / mflops;
}

void XSufferageScheduler::serve(WorkerId worker, std::uint32_t) {
  const SiteId my_site = engine().site_of(worker);
  const std::size_t num_sites = engine().num_sites();

  TaskId best_sufferage_task = TaskId::invalid();
  double best_sufferage = -1;
  TaskId best_local_task = TaskId::invalid();
  double best_local_ect = std::numeric_limits<double>::infinity();

  for (TaskId t : pending_) {
    double ect1 = std::numeric_limits<double>::infinity();
    double ect2 = std::numeric_limits<double>::infinity();
    SiteId arg1 = SiteId::invalid();
    double local_ect = 0;
    for (std::size_t s = 0; s < num_sites; ++s) {
      SiteId site(static_cast<SiteId::underlying_type>(s));
      double ect = estimated_completion(t, site);
      if (site == my_site) local_ect = ect;
      if (ect < ect1) {
        ect2 = ect1;
        ect1 = ect;
        arg1 = site;
      } else if (ect < ect2) {
        ect2 = ect;
      }
    }
    if (local_ect < best_local_ect ||
        (local_ect == best_local_ect && t < best_local_task)) {
      best_local_ect = local_ect;
      best_local_task = t;
    }
    if (arg1 != my_site) continue;
    double sufferage = (num_sites > 1 && std::isfinite(ect2))
                           ? ect2 - ect1
                           : 0.0;
    if (sufferage > best_sufferage ||
        (sufferage == best_sufferage && t < best_sufferage_task)) {
      best_sufferage = sufferage;
      best_sufferage_task = t;
    }
  }

  TaskId chosen = best_sufferage_task.valid() ? best_sufferage_task
                                              : best_local_task;
  WCS_CHECK(chosen.valid());
  pending_.erase(chosen);
  residency_.untrack(chosen);  // cache events stop touching it
  engine().assign_task(chosen, worker);
}

void XSufferageScheduler::on_task_completed(TaskId, WorkerId) {}

void XSufferageScheduler::requeue(WorkerId,
                                  const std::vector<TaskId>& lost) {
  for (TaskId t : lost) {
    // Re-home: rebuild cached-bytes counters and rejoin the pending pool.
    residency_.track(t);
    pending_.insert(t);
  }
}

void XSufferageScheduler::audit_collect(
    std::vector<audit::Violation>& out) const {
  residency_.audit_collect(
      [this](TaskId t) { return pending_.contains(t); }, out);
}

}  // namespace wcs::sched
