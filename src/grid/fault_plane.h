// Fault plane: worker churn injection and crash/recover bookkeeping.
//
// Draws exponential uptime/downtime per worker (GridConfig::ChurnParams),
// fails and recovers workers, and accounts for the task instances each
// crash withdraws. The actual withdrawal — cancelling in-flight storage
// work and erasing placements — is delegated to the control plane, which
// owns the worker FSM; the fault plane only decides WHEN a worker
// crosses the Offline boundary and tells the scheduler afterwards
// (Scheduler::on_worker_failed must re-home lost tasks or the run cannot
// drain).
//
// fail_now()/recover_now() expose the same transitions without the
// random schedule, for tests and fault-injection experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "grid/config.h"
#include "grid/control_plane.h"
#include "grid/telemetry.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace wcs::grid {

class FaultPlane {
 public:
  // `config.churn` must be set; all references must outlive the plane.
  // Worker failures and recoveries go to `telemetry` when it is
  // recording.
  FaultPlane(const GridConfig& config, sim::Simulator& sim,
             ControlPlane& control, sched::Scheduler& scheduler,
             EngineTelemetry& telemetry);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // Schedules the first failure of every worker; called once at run
  // start, after the control plane entered the pull loop.
  void start();

  // Cancels every pending churn event (fired when the last task
  // completes, so the event queue can drain).
  void stop();

  // Deterministic fault injection, bypassing the exponential schedule:
  // fail_now() crashes an alive worker immediately (its queued, fetching,
  // or computing instances are withdrawn and reported to the scheduler;
  // no automatic recovery is scheduled), recover_now() brings a failed
  // worker back. Simulation-time callers only.
  void fail_now(WorkerId worker);
  void recover_now(WorkerId worker);

  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  [[nodiscard]] std::uint64_t instances_lost() const {
    return instances_lost_;
  }

 private:
  void schedule_failure(WorkerId worker);
  void schedule_recovery(WorkerId worker);
  void fail_worker(WorkerId worker);
  void recover_worker(WorkerId worker);
  void trace(LifecycleEvent kind, WorkerId worker) {
    if (telemetry_.recording())
      telemetry_.record(sim_.now(), kind, TaskId::invalid(), worker);
  }

  const GridConfig::ChurnParams churn_;
  sim::Simulator& sim_;
  ControlPlane& control_;
  sched::Scheduler& scheduler_;
  EngineTelemetry& telemetry_;
  Rng rng_;
  std::vector<EventId> churn_events_;  // per worker: next failure/recovery
  std::uint64_t failures_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t instances_lost_ = 0;
};

}  // namespace wcs::grid
