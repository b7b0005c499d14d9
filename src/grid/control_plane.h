// Control plane: the worker-lifecycle FSM and replica bookkeeping.
//
// Owns the per-worker runtime state and drives each worker through the
// paper's Sec. 2.2/4.1 lifecycle:
//
//        +--------- assign_task (queue) ----------+
//        v                                        |
//   [Idle] --queue empty--> [Requesting] --on_worker_idle--> scheduler
//     |                                                      |
//     +--queue non-empty--> [Fetching] <---- assign ---------+
//                               |  batch request to the site data server
//                               v
//                          [Computing]  mflop / worker MFLOPS
//                               |
//                          finish: release pins, notify scheduler,
//                                  back to Idle
//
// Control messages (task request / assignment) pay the topology's
// worker<->scheduler path latency; they carry no payload worth modeling
// as flows (DESIGN.md §5.6). The plane keeps the task-instance ledger
// (which worker holds which replica) and the assignment/completion
// counters; storage work is delegated to the DataPlane, failures are
// injected by the FaultPlane through withdraw_worker()/revive_worker().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "audit/checkers.h"
#include "common/ids.h"
#include "common/inline_vec.h"
#include "common/units.h"
#include "compute/capacity.h"
#include "grid/config.h"
#include "grid/data_plane.h"
#include "grid/telemetry.h"
#include "metrics/results.h"
#include "net/tiers.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"
#include "workload/job.h"

namespace wcs::grid {

class ControlPlane {
 public:
  // Lifecycle phase of one worker; kOffline is entered/left only through
  // the fault plane.
  enum class WorkerPhase : std::uint8_t {
    kIdle,        // nothing queued, request not (yet) sent
    kRequesting,  // pull request in flight / waiting for an assignment
    kFetching,    // batch request at the site data server
    kComputing,   // executing the task
    kOffline,     // crashed; recovers after the churn downtime
  };

  // Callbacks into the composition root. `trace` fans lifecycle events
  // out to the engine telemetry's tracer (may be empty);
  // `on_all_tasks_completed` fires once, when the last task finishes
  // (the root uses it to stop churn and drain replication).
  struct Hooks {
    std::function<void(LifecycleEvent, TaskId, WorkerId)> trace;
    std::function<void()> on_all_tasks_completed;
  };

  // All references must outlive the plane. Worker speeds are sampled
  // here (top500/100, Sec. 5.2) from config.effective_speed_seed();
  // `mflops_estimate_error` is the per-site multiplicative error applied
  // to estimated_site_mflops() (empty = exact). `arrivals` is the
  // open-system schedule, or nullptr for the closed batch — when set,
  // start() turns every positive arrival time into a simulation event
  // delivering that batch to the scheduler, and the plane keeps
  // per-tenant conservation ledgers plus per-task completion times for
  // the tenant metrics.
  ControlPlane(const GridConfig& config, const workload::Job& job,
               const workload::ArrivalSchedule* arrivals,
               const net::GridTopology& topo, sim::Simulator& sim,
               DataPlane& data, sched::Scheduler& scheduler,
               std::vector<double> mflops_estimate_error, Hooks hooks);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Sends every worker into the pull loop; called once at run start.
  void start();

  // --- Engine surface (delegated from GridSimulation) -------------------
  void assign_task(TaskId task, WorkerId worker);
  bool cancel_task(TaskId task, WorkerId worker);
  [[nodiscard]] bool worker_alive(WorkerId worker) const;
  [[nodiscard]] std::size_t worker_backlog(WorkerId worker) const;
  [[nodiscard]] SiteId site_of(WorkerId worker) const;
  [[nodiscard]] double estimated_site_mflops(SiteId site) const;

  // --- Fault-plane surface ----------------------------------------------
  // Withdraws every task instance `worker` holds (queued, fetching, or
  // computing), cancels its in-flight storage work, and marks it
  // offline. Returns the withdrawn tasks. The worker must be alive.
  std::vector<TaskId> withdraw_worker(WorkerId worker);
  // Recovery happens in two steps so the fault plane can trace the
  // transition and schedule the next failure BEFORE the pull-request
  // event is created (event insertion order is part of the deterministic
  // contract): mark_online() flips Offline -> Idle; resume_worker() then
  // re-enters the pull loop.
  void mark_online(WorkerId worker);
  void resume_worker(WorkerId worker);

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] std::size_t num_workers() const { return workers_.size(); }
  [[nodiscard]] const compute::Worker& worker_info(WorkerId worker) const;
  [[nodiscard]] WorkerPhase worker_phase(WorkerId worker) const;
  [[nodiscard]] std::size_t tasks_completed() const {
    return completed_count_;
  }
  [[nodiscard]] bool task_completed(TaskId task) const {
    return completed_.at(task.value()) != 0;
  }
  [[nodiscard]] SimTime last_completion() const { return last_completion_; }
  [[nodiscard]] std::uint64_t assignments() const { return assignments_; }
  [[nodiscard]] std::uint64_t replicas_started() const {
    return replicas_started_;
  }
  [[nodiscard]] std::uint64_t replicas_cancelled() const {
    return replicas_cancelled_;
  }

  // Per-tenant results for open-system runs (empty for closed runs):
  // completed counts, time-to-first-task, tenant makespan, and sojourn
  // (completion - arrival) percentiles.
  [[nodiscard]] std::vector<metrics::TenantResult> tenant_results() const;

  // --- Invariant auditing -----------------------------------------------
  // Snapshot of the task/placement ledgers for the task-lifecycle
  // checker; `at_drain` asserts the stronger end-of-run laws.
  [[nodiscard]] audit::TaskLifecycleSnapshot lifecycle_snapshot(
      bool at_drain) const;
  // Per-tenant assigned/completed/cancelled/in-flight conservation
  // snapshot for the tenant-accounting checker (open-system runs only).
  [[nodiscard]] audit::TenantAccountingSnapshot tenant_snapshot(
      bool at_drain) const;
  [[nodiscard]] SimTime audit_max_completion() const {
    return audit_max_completion_;
  }

 private:
  struct WorkerRuntime {
    compute::Worker info;
    WorkerPhase state = WorkerPhase::kIdle;
    std::deque<TaskId> queue;
    TaskId current;
    EventId compute_event;
    SimTime control_latency = 0;  // one-way worker <-> scheduler
  };

  void trace(LifecycleEvent kind, TaskId task, WorkerId worker) {
    if (hooks_.trace) hooks_.trace(kind, task, worker);
  }
  void go_idle(WorkerId worker);
  // Arrival-event body: marks the batch arrived, then hands it to the
  // scheduler (open-system runs only).
  void arrive(const std::vector<TaskId>& batch);
  void start_next(WorkerId worker);
  void files_ready(WorkerId worker, TaskId task);
  void finish_task(WorkerId worker, TaskId task);
  [[nodiscard]] bool has_instance(TaskId task, WorkerId worker) const;

  // Per-tenant conservation ledger (open-system runs; indexed by tenant).
  struct TenantLedger {
    std::uint64_t tasks = 0;
    std::uint64_t arrived = 0;
    std::uint64_t assigned = 0;
    std::uint64_t completions = 0;  // finish events (one per task)
    std::uint64_t cancelled = 0;    // replica cancels + crash withdrawals
    double first_arrival_s = 0;
    double first_assignment_s = -1;  // -1 until the first assignment
    double last_completion_s = 0;
  };

  [[nodiscard]] std::uint32_t tenant_of(TaskId task) const {
    return arrivals_ == nullptr ? 0 : arrivals_->tenant(task);
  }

  // Every instance removal that is not a completion (replica cancel,
  // crash withdrawal) must hit the tenant ledger or the conservation law
  // assigned == completions + cancelled + live breaks.
  void note_instance_dropped(TaskId task) {
    if (arrivals_ != nullptr) ++tenants_[tenant_of(task)].cancelled;
  }

  const GridConfig& config_;
  const workload::Job& job_;
  const workload::ArrivalSchedule* arrivals_ = nullptr;  // closed batch
  sim::Simulator& sim_;
  DataPlane& data_;
  sched::Scheduler& scheduler_;
  Hooks hooks_;

  std::vector<WorkerRuntime> workers_;
  std::vector<char> completed_;  // by task id
  // Active placements by task id. Replication degree is 1–2 in every
  // paper configuration, so the instances table is one flat array of
  // two-slot inline vectors — no per-task heap nodes.
  std::vector<common::InlineVec<WorkerId, 2>> instances_;
  std::size_t completed_count_ = 0;
  SimTime last_completion_ = 0;
  std::uint64_t assignments_ = 0;
  std::uint64_t replicas_started_ = 0;
  std::uint64_t replicas_cancelled_ = 0;
  // Audit-side redundant ledgers, maintained unconditionally (cheap) and
  // cross-checked against the primary counters when auditing is on.
  std::vector<std::uint32_t> completion_counts_;  // by task id
  SimTime audit_max_completion_ = 0;
  std::vector<double> mflops_estimate_error_;  // per site; empty if exact
  // Open-system state (allocated only when arrivals_ != nullptr).
  std::vector<char> arrived_;            // by task id
  std::vector<double> completion_time_;  // by task id; -1 = not completed
  std::vector<TenantLedger> tenants_;
};

}  // namespace wcs::grid
