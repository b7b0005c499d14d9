// Fault-plane tests: lost fetching/computing instances are withdrawn
// exactly once (batch cancelled / pins released once), via deterministic
// fail_now()/recover_now() injection.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "grid/grid_simulation.h"
#include "workload/job.h"

namespace wcs::grid {
namespace {

GridConfig churn_config() {
  GridConfig c;
  c.tiers.num_sites = 1;
  c.tiers.workers_per_site = 1;
  c.tiers.jitter = 0.0;
  c.tiers.seed = 1;
  c.capacity_files = 100;
  GridConfig::ChurnParams churn;
  churn.mean_uptime_s = 1e12;  // no random failure within the run
  c.churn = churn;
  c.audit = true;  // a double release would trip cache coherence
  return c;
}

workload::Job one_task_job(Bytes file_size, double mflop) {
  workload::Job job;
  job.set_name("one");
  job.catalog = workload::FileCatalog(1, file_size);
  job.add_task({FileId(0)}, mflop);
  return job;
}

// Re-offers every uncompleted task whenever a worker asks; uses the
// default (no-op) on_worker_failed.
class RetryScheduler : public sched::Scheduler {
 public:
  void on_job_submitted() override {}
  void on_worker_idle(WorkerId worker) override {
    for (const workload::Task& t : engine().job().tasks()) {
      if (!done_.count(t.id.value())) {
        engine().assign_task(t.id, worker);
        return;
      }
    }
  }
  void on_task_completed(TaskId task, WorkerId) override {
    done_.insert(task.value());
  }
  [[nodiscard]] std::string name() const override { return "retry"; }

 private:
  std::set<TaskId::underlying_type> done_;
};

TEST(FaultPlane, LostFetchingInstanceCancelsBatchExactlyOnce) {
  // 25 MB over the 2 Mbit/s uplink: the fetch takes ~100 s, so the
  // worker is mid-fetch at t=5 when it crashes.
  const workload::Workload wl{one_task_job(megabytes(25), 1e-6)};
  GridSimulation sim(churn_config(), wl,
                     std::make_unique<RetryScheduler>());

  ControlPlane::WorkerPhase phase_at_crash = ControlPlane::WorkerPhase::kIdle;
  std::uint64_t cancelled_at_crash = 0;
  sim.simulator().schedule_in(5.0, [&] {
    phase_at_crash = sim.control_plane().worker_phase(WorkerId(0));
    sim.fault_plane()->fail_now(WorkerId(0));
    cancelled_at_crash = sim.data_server(SiteId(0)).stats().batches_cancelled;
  });
  sim.simulator().schedule_in(10.0,
                              [&] { sim.fault_plane()->recover_now(WorkerId(0)); });
  auto r = sim.run();

  EXPECT_EQ(phase_at_crash, ControlPlane::WorkerPhase::kFetching);
  EXPECT_EQ(cancelled_at_crash, 1u);
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.instances_lost, 1u);
  EXPECT_EQ(r.worker_failures, 1u);
  // Exactly one cancellation over the whole run: the withdrawal was not
  // repeated by recovery or drain.
  EXPECT_EQ(sim.data_server(SiteId(0)).stats().batches_cancelled, 1u);
}

TEST(FaultPlane, LostComputingInstanceReleasedExactlyOnce) {
  // Tiny file (fetch ~0.04 s) + heavy compute: the worker is computing
  // at t=5. The crash must cancel the compute event and release the
  // task's cache pins exactly once — the run is audited, so a double
  // release would trip the cache-coherence checker at the next sweep.
  const workload::Workload wl{one_task_job(megabytes(0.01), 1e9)};
  GridSimulation sim(churn_config(), wl,
                     std::make_unique<RetryScheduler>());

  ControlPlane::WorkerPhase phase_at_crash = ControlPlane::WorkerPhase::kIdle;
  sim.simulator().schedule_in(5.0, [&] {
    phase_at_crash = sim.control_plane().worker_phase(WorkerId(0));
    sim.fault_plane()->fail_now(WorkerId(0));
  });
  sim.simulator().schedule_in(10.0,
                              [&] { sim.fault_plane()->recover_now(WorkerId(0)); });
  auto r = sim.run();

  EXPECT_EQ(phase_at_crash, ControlPlane::WorkerPhase::kComputing);
  EXPECT_EQ(r.tasks_completed, 1u);
  EXPECT_EQ(r.instances_lost, 1u);
  EXPECT_EQ(r.worker_failures, 1u);
  EXPECT_EQ(r.worker_recoveries, 1u);
  // The batch was fully served before the crash; withdrawal must not
  // invent a data-server cancellation.
  EXPECT_EQ(sim.data_server(SiteId(0)).stats().batches_cancelled, 0u);
}

TEST(FaultPlane, IdleCrashLosesNothing) {
  // Crash after the only task completed: nothing to withdraw.
  const workload::Workload wl{one_task_job(megabytes(0.01), 1e-6)};
  GridConfig c = churn_config();
  auto sched = std::make_unique<RetryScheduler>();
  GridSimulation sim(c, wl, std::move(sched));

  sim.simulator().schedule_in(5.0, [&] {
    ASSERT_EQ(sim.tasks_completed(), 1u);
    sim.fault_plane()->fail_now(WorkerId(0));
    sim.fault_plane()->recover_now(WorkerId(0));
  });
  auto r = sim.run();
  EXPECT_EQ(r.instances_lost, 0u);
  EXPECT_EQ(r.worker_failures, 1u);
  EXPECT_EQ(r.worker_recoveries, 1u);
}

}  // namespace
}  // namespace wcs::grid
