// Scheduler abstraction.
//
// The grid engine (grid::GridSimulation) drives a Scheduler through three
// hooks and gives it a narrow view of the system through GridEngine. The
// taxonomy follows the paper's Sec. 2.3:
//
//   - a WORKER-CENTRIC scheduler acts only inside on_worker_idle(): it
//     picks a task for that worker at the moment the worker can execute
//     it (short scheduling-to-execution latency, never unbalanced);
//   - a TASK-CENTRIC scheduler acts in on_job_submitted(): it pushes
//     tasks into worker queues ahead of time, and may use
//     on_worker_idle() for task replication and on_task_completed() for
//     replica cancellation.
//
// Schedulers may only observe per-site storage state (cache contents and
// past reference counts) and the static job description — exactly the
// information the paper's algorithms use. They deliberately get no view
// of CPU load or bandwidth (Sec. 2.4: such dynamic metrics are hard to
// obtain in a real grid).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"
#include "common/ids.h"
#include "common/units.h"
#include "grid/config.h"
#include "obs/profiler.h"
#include "storage/file_cache.h"
#include "workload/arrivals.h"
#include "workload/job.h"

namespace wcs::sched {

// The engine surface a scheduler is allowed to touch.
class GridEngine {
 public:
  virtual ~GridEngine() = default;

  [[nodiscard]] virtual const workload::Job& job() const = 0;
  [[nodiscard]] virtual std::size_t num_sites() const = 0;
  [[nodiscard]] virtual std::size_t num_workers() const = 0;
  [[nodiscard]] virtual SiteId site_of(WorkerId worker) const = 0;
  [[nodiscard]] virtual const storage::FileCache& site_cache(
      SiteId site) const = 0;

  // Register interest in one site's cache mutations (at most one
  // listener per site — exactly one scheduler drives a run, and it owns
  // the slot, whatever the number of tenants). The one caller is the
  // residency table's build() (sched/residency.h), which keeps the
  // counters and the per-site decision index of the data-aware
  // schedulers current. Notifications
  // fire synchronously inside the cache mutation, i.e. strictly before
  // the next scheduling decision (see grid/control_plane.cc for the
  // event ordering this guarantees).
  virtual void set_cache_listener(SiteId site,
                                  storage::CacheListener listener) = 0;

  // Deliver a task to a worker: appended to the worker's queue; an idle
  // worker starts it immediately (after the control-message latency).
  // Assigning the same task to several workers creates replicas; the
  // engine runs them independently and reports each completion once.
  // The worker must be alive.
  virtual void assign_task(TaskId task, WorkerId worker) = 0;

  // Liveness and backlog, for failure handling and replica placement
  // under churn. Without churn every worker is always alive.
  [[nodiscard]] virtual bool worker_alive(WorkerId worker) const = 0;
  [[nodiscard]] virtual std::size_t worker_backlog(
      WorkerId worker) const = 0;

  // --- Dynamic platform estimates --------------------------------------
  // Exposed ONLY for dynamic-information baselines (XSufferage/MCT). The
  // paper's own schedulers never touch these: its Sec. 2.4 point is that
  // such estimates are hard to obtain in a real grid and that
  // data-placement information alone schedules better. Defaults are the
  // documented fallback constants in grid/config.h.
  [[nodiscard]] virtual double estimated_uplink_bandwidth(SiteId site) const {
    (void)site;
    return grid::kFallbackUplinkBandwidthBps;
  }
  [[nodiscard]] virtual double estimated_site_mflops(SiteId site) const {
    (void)site;
    return grid::kFallbackSiteMflops;
  }
  [[nodiscard]] virtual std::size_t data_server_backlog(SiteId site) const {
    (void)site;
    return 0;
  }

  // Cancel a queued, fetching, or executing task instance on a worker.
  // No-op (returns false) if the worker no longer holds that task.
  virtual bool cancel_task(TaskId task, WorkerId worker) = 0;

  // Open-system arrival metadata, or nullptr when the run's workload is
  // closed (!Workload::open(), e.g. the paper's Coadd batch). When
  // non-null, only tasks with arrivals()->arrival(t) <= 0 are pending at
  // on_job_submitted(); the rest are delivered later through
  // on_tasks_arrived().
  [[nodiscard]] virtual const workload::ArrivalSchedule* arrivals() const {
    return nullptr;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Called once before the simulation starts; the engine outlives the
  // scheduler.
  virtual void attach(GridEngine& engine) { engine_ = &engine; }

  // All tasks of engine().job() are known. With engine().arrivals() ==
  // nullptr (the closed batch) every task is pending; otherwise only
  // tasks already arrived at t=0 are, and the engine feeds the rest
  // through on_tasks_arrived() as simulated time advances.
  virtual void on_job_submitted() = 0;

  // Open-system runs only: `tasks` (ascending ids) just arrived and are
  // now pending. The scheduler should feed any starving workers. Only
  // called when supports_arrivals() — the engine validates the pairing
  // before the run starts.
  virtual void on_tasks_arrived(const std::vector<TaskId>& tasks) {
    (void)tasks;
    WCS_CHECK_MSG(false, "scheduler " << name()
                                      << " does not support arrivals");
  }

  // Whether this scheduler implements the open-system contract above.
  // Pull schedulers re-evaluate against the live state on every request
  // and support it naturally; task-centric push schedulers (storage
  // affinity, XSufferage) would make premature placements for tasks
  // that have not arrived, so they opt out.
  [[nodiscard]] virtual bool supports_arrivals() const { return false; }

  // Unassigned tasks currently in this scheduler's bag, over all
  // tenants. Pull schedulers (pull.h) override it with the sum of their
  // tenants' parts, whose sizes decide which tenants the next request
  // may serve; push schedulers, which hold no bag after submission, keep
  // the 0 default.
  [[nodiscard]] virtual std::size_t pending_count() const { return 0; }

  // `worker` is idle with an empty queue and asks for work. Fired once
  // per idle transition (workers do not re-poll; a scheduler that leaves
  // a worker unassigned keeps it idle until it assigns to it later, e.g.
  // never for the pull schedulers once the bag is empty).
  virtual void on_worker_idle(WorkerId worker) = 0;

  // `task` finished on `worker` (first finisher when replicated; the
  // engine has not yet cancelled sibling replicas — that is the
  // scheduler's decision).
  virtual void on_task_completed(TaskId task, WorkerId worker) = 0;

  // `worker` crashed; `lost` are the incomplete task instances it held
  // (queued, fetching, or computing) which the engine has already
  // withdrawn. The scheduler must eventually re-home any task whose last
  // instance was lost, or the job cannot finish (the engine flags this
  // at drain time). Default: no-op, safe only for churn-free runs.
  virtual void on_worker_failed(WorkerId worker,
                                const std::vector<TaskId>& lost) {
    (void)worker;
    (void)lost;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  // Attach the wall-clock phase profiler (nullptr detaches). Decisions
  // bracket themselves with ScopedPhase(kSchedulerDecision): a pull
  // scheduler once per served request (pull.h) and per replica search,
  // plus its set-up and arrival upkeep; profiling never influences a
  // decision.
  void set_profiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  // Component self-audit, driven by the invariant auditor: append
  // violations of the scheduler's internal bookkeeping (e.g. incremental
  // indexes that drifted from the cache state). Must be read-only.
  // Default: a scheduler with no redundant state has nothing to audit.
  virtual void audit_collect(std::vector<audit::Violation>& out) const {
    (void)out;
  }

 protected:
  [[nodiscard]] GridEngine& engine() const {
    WCS_CHECK_MSG(engine_ != nullptr, "scheduler not attached");
    return *engine_;
  }

  obs::PhaseProfiler* profiler_ = nullptr;

 private:
  GridEngine* engine_ = nullptr;
};

}  // namespace wcs::sched
