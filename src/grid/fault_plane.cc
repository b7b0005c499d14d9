#include "grid/fault_plane.h"

namespace wcs::grid {

FaultPlane::FaultPlane(const GridConfig& config, sim::Simulator& sim,
                       ControlPlane& control, sched::Scheduler& scheduler,
                       TraceFn trace)
    : churn_(*config.churn),
      sim_(sim),
      control_(control),
      scheduler_(scheduler),
      trace_(std::move(trace)),
      rng_(config.churn->seed * 0x9e3779b97f4a7c15ULL ^ config.tiers.seed),
      churn_events_(control.num_workers()) {
  WCS_CHECK_MSG(churn_.mean_uptime_s > 0 && churn_.mean_downtime_s > 0,
                "churn times must be positive");
}

void FaultPlane::start() {
  for (std::size_t w = 0; w < churn_events_.size(); ++w)
    schedule_failure(WorkerId(static_cast<WorkerId::underlying_type>(w)));
}

void FaultPlane::stop() {
  for (EventId& ev : churn_events_) {
    if (ev.valid()) {
      sim_.cancel(ev);
      ev = EventId::invalid();
    }
  }
}

void FaultPlane::schedule_failure(WorkerId worker) {
  SimTime uptime = rng_.exponential(1.0 / churn_.mean_uptime_s);
  churn_events_[worker.value()] =
      sim_.schedule_in(uptime, [this, worker] { fail_worker(worker); });
}

void FaultPlane::schedule_recovery(WorkerId worker) {
  SimTime downtime = rng_.exponential(1.0 / churn_.mean_downtime_s);
  churn_events_[worker.value()] =
      sim_.schedule_in(downtime, [this, worker] { recover_worker(worker); });
}

void FaultPlane::fail_worker(WorkerId worker) {
  std::vector<TaskId> lost = control_.withdraw_worker(worker);
  ++failures_;
  instances_lost_ += lost.size();
  if (trace_)
    trace_(LifecycleEvent::kWorkerFailed, TaskId::invalid(),
           worker);
  schedule_recovery(worker);
  scheduler_.on_worker_failed(worker, lost);
}

void FaultPlane::recover_worker(WorkerId worker) {
  ++recoveries_;
  control_.mark_online(worker);
  if (trace_)
    trace_(LifecycleEvent::kWorkerRecovered, TaskId::invalid(),
           worker);
  schedule_failure(worker);
  control_.resume_worker(worker);
}

void FaultPlane::fail_now(WorkerId worker) {
  EventId& pending = churn_events_[worker.value()];
  if (pending.valid()) {
    sim_.cancel(pending);
    pending = EventId::invalid();
  }
  std::vector<TaskId> lost = control_.withdraw_worker(worker);
  ++failures_;
  instances_lost_ += lost.size();
  if (trace_)
    trace_(LifecycleEvent::kWorkerFailed, TaskId::invalid(),
           worker);
  scheduler_.on_worker_failed(worker, lost);
}

void FaultPlane::recover_now(WorkerId worker) {
  ++recoveries_;
  control_.mark_online(worker);
  if (trace_)
    trace_(LifecycleEvent::kWorkerRecovered, TaskId::invalid(),
           worker);
  control_.resume_worker(worker);
}

}  // namespace wcs::grid
