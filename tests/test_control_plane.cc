// Control-plane unit tests: cancel_task false-return paths and the
// default Scheduler::on_worker_failed no-op under injected churn.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "grid/grid_simulation.h"
#include "workload/job.h"

namespace wcs::grid {
namespace {

// Zero-jitter platform so timing is exactly computable.
GridConfig exact_config(int sites, int workers_per_site,
                        std::size_t capacity) {
  GridConfig c;
  c.tiers.num_sites = sites;
  c.tiers.workers_per_site = workers_per_site;
  c.tiers.jitter = 0.0;
  c.tiers.seed = 1;
  c.capacity_files = capacity;
  return c;
}

workload::Job tiny_job(std::size_t tasks, Bytes file_size = megabytes(25)) {
  workload::Job job;
  job.set_name("tiny");
  job.catalog = workload::FileCatalog(tasks, file_size);
  for (std::size_t i = 0; i < tasks; ++i) {
    // Negligible compute: network-only timing.
    job.add_task({FileId(static_cast<FileId::underlying_type>(i))}, 1e-6);
  }
  return job;
}

// Pull scheduler scripted from the test: assigns tasks from an explicit
// bag; the test mutates the bag between probes. Uses the DEFAULT
// (no-op) Scheduler::on_worker_failed.
class BagScheduler : public sched::Scheduler {
 public:
  void on_job_submitted() override {}
  void on_worker_idle(WorkerId worker) override {
    std::size_t grant = first_idle_grant_ > 0 ? first_idle_grant_ : 1;
    first_idle_grant_ = 0;
    while (grant-- > 0 && !bag_.empty()) {
      engine().assign_task(bag_.front(), worker);
      bag_.erase(bag_.begin());
    }
  }
  void on_task_completed(TaskId task, WorkerId) override {
    completed_.push_back(task);
  }
  [[nodiscard]] std::string name() const override { return "bag"; }

  std::vector<TaskId>& bag() { return bag_; }
  // The first on_worker_idle hands out this many tasks at once (creates
  // a queued instance behind the active one).
  void set_first_idle_grant(std::size_t n) { first_idle_grant_ = n; }
  [[nodiscard]] const std::vector<TaskId>& completed() const {
    return completed_;
  }

 private:
  std::vector<TaskId> bag_;
  std::size_t first_idle_grant_ = 0;
  std::vector<TaskId> completed_;
};

TEST(ControlPlaneCancel, FalseForWrongWorkerAndUnheldTask) {
  // 1 site, 2 workers; t0 -> w0 and t1 -> w1, both fetching 25 MB over
  // the shared 2 Mbit/s uplink (fetch >> probe time).
  const workload::Workload wl{tiny_job(2)};
  GridConfig c = exact_config(1, 2, 100);
  auto sched = std::make_unique<BagScheduler>();
  BagScheduler* bag = sched.get();
  bag->bag() = {TaskId(0), TaskId(1)};
  GridSimulation sim(c, wl, std::move(sched));

  bool wrong_worker = true, wrong_task = true, held = false;
  sim.simulator().schedule_in(5.0, [&] {
    // Both instances exist, but each on the OTHER worker.
    wrong_worker = sim.cancel_task(TaskId(0), WorkerId(1));
    wrong_task = sim.cancel_task(TaskId(1), WorkerId(0));
    held = sim.cancel_task(TaskId(1), WorkerId(1));  // real instance
    // Re-home the cancelled task or the run cannot drain.
    bag->bag().push_back(TaskId(1));
  });
  auto r = sim.run();

  EXPECT_FALSE(wrong_worker);
  EXPECT_FALSE(wrong_task);
  EXPECT_TRUE(held);
  EXPECT_EQ(r.tasks_completed, 2u);
  EXPECT_EQ(r.replicas_cancelled, 1u);
  // Completed task: the instance ledger is empty again.
  EXPECT_FALSE(sim.cancel_task(TaskId(0), WorkerId(0)));
  EXPECT_FALSE(sim.cancel_task(TaskId(1), WorkerId(1)));
}

TEST(ControlPlaneCancel, QueuedInstanceCancelledWithoutDisturbingActive) {
  // w0 fetches t0 with t1 queued behind it; cancelling the QUEUED
  // instance must not touch the in-flight batch.
  const workload::Workload wl{tiny_job(2)};
  GridConfig c = exact_config(1, 1, 100);
  auto sched = std::make_unique<BagScheduler>();
  BagScheduler* bag = sched.get();
  bag->bag() = {TaskId(0), TaskId(1)};
  bag->set_first_idle_grant(2);
  GridSimulation sim(c, wl, std::move(sched));

  bool queued_cancel = false;
  std::size_t backlog_after = 99;
  sim.simulator().schedule_in(5.0, [&] {
    queued_cancel = sim.cancel_task(TaskId(1), WorkerId(0));
    backlog_after = sim.worker_backlog(WorkerId(0));
    bag->bag().push_back(TaskId(1));
  });
  auto r = sim.run();

  EXPECT_TRUE(queued_cancel);
  EXPECT_EQ(backlog_after, 1u);  // only the fetching instance remains
  EXPECT_EQ(r.tasks_completed, 2u);
  EXPECT_EQ(r.total_file_transfers(), 2u);  // t0's batch was not restarted
}

TEST(ControlPlaneChurn, DefaultOnWorkerFailedIsSafeNoOp) {
  // The default Scheduler::on_worker_failed ignores the lost instances.
  // A crash must still withdraw them exactly once, and a bag scheduler
  // that re-offers uncompleted tasks drains the job after recovery with
  // no replica bookkeeping drift.
  const workload::Workload wl{tiny_job(3)};
  GridConfig c = exact_config(1, 1, 100);
  GridConfig::ChurnParams churn;
  churn.mean_uptime_s = 1e12;  // no random failure within the run
  c.churn = churn;
  auto sched = std::make_unique<BagScheduler>();
  BagScheduler* bag = sched.get();
  bag->bag() = {TaskId(0), TaskId(1), TaskId(2)};
  bag->set_first_idle_grant(2);  // t0 fetching + t1 queued at crash time
  GridSimulation sim(c, wl, std::move(sched));

  bool alive_after_crash = true;
  bool cancel_on_offline = true;
  ControlPlane::WorkerPhase phase_after_crash = ControlPlane::WorkerPhase::kIdle;
  sim.simulator().schedule_in(5.0, [&] {
    sim.fault_plane()->fail_now(WorkerId(0));
    // Default no-op handler: nothing was re-homed; restock the bag so
    // the recovered worker pulls the lost tasks again.
    bag->bag().insert(bag->bag().begin(), {TaskId(0), TaskId(1)});
  });
  sim.simulator().schedule_in(10.0, [&] {
    alive_after_crash = sim.worker_alive(WorkerId(0));
    phase_after_crash = sim.control_plane().worker_phase(WorkerId(0));
    cancel_on_offline = sim.cancel_task(TaskId(0), WorkerId(0));
  });
  sim.simulator().schedule_in(20.0,
                              [&] { sim.fault_plane()->recover_now(WorkerId(0)); });
  auto r = sim.run();

  EXPECT_FALSE(alive_after_crash);
  EXPECT_EQ(phase_after_crash, ControlPlane::WorkerPhase::kOffline);
  EXPECT_FALSE(cancel_on_offline);  // instances were already withdrawn
  EXPECT_EQ(r.tasks_completed, 3u);
  EXPECT_EQ(r.worker_failures, 1u);
  EXPECT_EQ(r.worker_recoveries, 1u);
  EXPECT_EQ(r.instances_lost, 2u);  // fetching t0 + queued t1, once each
  EXPECT_EQ(r.replicas_started, 0u);  // re-homing after loss is no replica
  EXPECT_EQ(bag->completed().size(), 3u);
}

}  // namespace
}  // namespace wcs::grid
