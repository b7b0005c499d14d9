// GridSimulation: the composition root of one experiment run.
//
// Wires the event kernel, a Tiers topology, and one scheduler to the
// three engine planes plus telemetry, and implements sched::GridEngine
// purely by delegation:
//
//   ControlPlane (grid/control_plane.h)  worker FSM, assign/cancel,
//                                        replica ledger, RPC latency
//   DataPlane    (grid/data_plane.h)     data servers, flow allocation,
//                                        cache pin/release, replication
//   FaultPlane   (grid/fault_plane.h)    churn schedule, fail/recover,
//                                        lost-instance withdrawal
//   EngineTelemetry (grid/telemetry.h)   obs tracer + phase profiler
//
// All policy lives in the planes; this class only constructs them in
// the deterministic order the golden-run suite pins, runs the kernel to
// drain (optionally under the invariant auditor), and assembles the
// metrics::RunResult.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/invariant_auditor.h"
#include "common/ids.h"
#include "common/units.h"
#include "compute/capacity.h"
#include "grid/config.h"
#include "grid/control_plane.h"
#include "grid/data_plane.h"
#include "grid/fault_plane.h"
#include "grid/telemetry.h"
#include "metrics/results.h"
#include "net/tiers.h"
#include "obs/observability.h"
#include "replication/data_replicator.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "storage/data_server.h"
#include "workload/arrivals.h"
#include "workload/job.h"

namespace wcs::grid {

class GridSimulation final : public sched::GridEngine {
 public:
  // `workload` (job + arrival schedule) must outlive the simulation; the
  // scheduler is owned. A closed workload (!workload.open(), e.g. the
  // paper's Coadd batch) runs the closed-batch code path: the control
  // plane and schedulers see a null arrival schedule.
  GridSimulation(const GridConfig& config,
                 const workload::Workload& workload,
                 std::unique_ptr<sched::Scheduler> scheduler);
  // A temporary workload would leave job_ dangling.
  GridSimulation(const GridConfig& config, workload::Workload&& workload,
                 std::unique_ptr<sched::Scheduler> scheduler) = delete;
  ~GridSimulation() override;

  // Runs the job to completion and returns the collected metrics.
  // Callable once.
  metrics::RunResult run();

  // --- sched::GridEngine (delegation only) ------------------------------
  [[nodiscard]] const workload::Job& job() const override { return job_; }
  [[nodiscard]] const workload::ArrivalSchedule* arrivals() const override {
    return arrivals_;
  }
  [[nodiscard]] std::size_t num_sites() const override {
    return data_->num_sites();
  }
  [[nodiscard]] std::size_t num_workers() const override {
    return control_->num_workers();
  }
  [[nodiscard]] SiteId site_of(WorkerId worker) const override {
    return control_->site_of(worker);
  }
  [[nodiscard]] const storage::FileCache& site_cache(
      SiteId site) const override {
    return data_->site_cache(site);
  }
  void set_cache_listener(SiteId site,
                          storage::CacheListener listener) override {
    data_->set_cache_listener(site, std::move(listener));
  }
  void assign_task(TaskId task, WorkerId worker) override {
    control_->assign_task(task, worker);
  }
  bool cancel_task(TaskId task, WorkerId worker) override {
    return control_->cancel_task(task, worker);
  }
  [[nodiscard]] bool worker_alive(WorkerId worker) const override {
    return control_->worker_alive(worker);
  }
  [[nodiscard]] std::size_t worker_backlog(WorkerId worker) const override {
    return control_->worker_backlog(worker);
  }
  [[nodiscard]] double estimated_uplink_bandwidth(
      SiteId site) const override {
    return data_->estimated_uplink_bandwidth(site);
  }
  [[nodiscard]] double estimated_site_mflops(SiteId site) const override {
    return control_->estimated_site_mflops(site);
  }
  [[nodiscard]] std::size_t data_server_backlog(SiteId site) const override {
    return data_->backlog(site);
  }

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const storage::DataServer& data_server(SiteId site) const {
    return data_->server(site);
  }
  [[nodiscard]] const compute::Worker& worker_info(WorkerId worker) const {
    return control_->worker_info(worker);
  }
  [[nodiscard]] std::size_t tasks_completed() const {
    return control_->tasks_completed();
  }
  [[nodiscard]] bool task_completed(TaskId task) const {
    return control_->task_completed(task);
  }
  [[nodiscard]] const sched::Scheduler& scheduler() const {
    return *scheduler_;
  }
  // The engine planes, for tests and fault-injection experiments.
  // fault_plane() is null unless GridConfig::churn was set.
  [[nodiscard]] const ControlPlane& control_plane() const {
    return *control_;
  }
  [[nodiscard]] const DataPlane& data_plane() const { return *data_; }
  [[nodiscard]] FaultPlane* fault_plane() { return fault_.get(); }
  // Null unless GridConfig::replication was set.
  [[nodiscard]] const replication::DataReplicator* replicator() const {
    return data_->replicator();
  }
  // Null unless GridConfig::audit was set; populated during run().
  [[nodiscard]] const audit::InvariantAuditor* auditor() const {
    return auditor_.get();
  }
  // Null unless GridConfig::obs enables an instrument. The profiler and
  // the tracer fill as the simulation progresses; run totals are in the
  // RunResult that run() returns.
  [[nodiscard]] const obs::Observability* observability() const {
    return telemetry_->observability();
  }

 private:
  void register_audit_checkers();
  void audit_results_ledger(const metrics::RunResult& result) const;
  [[nodiscard]] metrics::RunResult assemble_result() const;

  GridConfig config_;
  const workload::Job& job_;
  // Open-system arrival schedule; nullptr for a closed workload.
  const workload::ArrivalSchedule* arrivals_ = nullptr;
  std::unique_ptr<sched::Scheduler> scheduler_;

  sim::Simulator sim_;
  net::GridTopology grid_topo_;
  std::unique_ptr<DataPlane> data_;
  std::unique_ptr<EngineTelemetry> telemetry_;
  std::unique_ptr<ControlPlane> control_;
  std::unique_ptr<FaultPlane> fault_;  // null without churn

  std::unique_ptr<audit::InvariantAuditor> auditor_;
  SimTime audit_prev_now_ = 0;
  bool drained_ = false;
  bool ran_ = false;
};

}  // namespace wcs::grid
