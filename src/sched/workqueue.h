// Classic workqueue (Cirne et al.): the traditional worker-centric
// baseline the paper mentions in Sec. 2.3 — an idle worker simply gets
// the next task in FIFO order, with no data awareness at all. Useful as
// the no-locality lower bound in ablations (A4 measures it paying ~5x
// the makespan of the data-aware metrics at Table 1 defaults).
//
// This scheduler reads nothing from the engine beyond the task list and
// worker liveness — no cache events, no estimates — so it is also the
// smallest working example of the pull contract (pull.h): the shared
// loop hands it a request and a tenant, and it gives the worker that
// tenant's FIFO head.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "sched/pull.h"

namespace wcs::sched {

class WorkqueueScheduler final : public PullScheduler {
 public:
  // Rebuilds one FIFO per tenant from the engine's task list in id order
  // (dense, 0-based — validate_job guarantees it). Open-system runs
  // start with only the tasks already arrived at t=0; the rest join
  // their tenant's FIFO tail through on_tasks_arrived in arrival order.
  void on_job_submitted() override {
    const workload::ArrivalSchedule* arrivals = engine().arrivals();
    pending_.assign(num_tenants(), {});
    for (const workload::Task& t : engine().job().tasks())
      if (arrivals == nullptr || arrivals->arrival(t.id) <= 0)
        pending_[tenant_of(t.id)].push_back(t.id);
  }

  void on_tasks_arrived(const std::vector<TaskId>& tasks) override {
    for (TaskId t : tasks) pending_[tenant_of(t)].push_back(t);
    feed_starving();
  }

  [[nodiscard]] bool supports_arrivals() const override { return true; }

  void on_task_completed(TaskId, WorkerId) override {}

 private:
  [[nodiscard]] std::string algorithm_name() const override {
    return "workqueue";
  }
  [[nodiscard]] std::size_t pending_of(std::uint32_t tenant) const override {
    return pending_[tenant].size();
  }
  void serve(WorkerId worker, std::uint32_t tenant) override {
    const TaskId t = pending_[tenant].front();
    pending_[tenant].pop_front();
    engine().assign_task(t, worker);
  }
  // Lost tasks rejoin the head of their tenant's queue (they were
  // dispatched earliest).
  void requeue(WorkerId, const std::vector<TaskId>& lost) override {
    for (auto it = lost.rbegin(); it != lost.rend(); ++it)
      pending_[tenant_of(*it)].push_front(*it);
  }

  std::vector<std::deque<TaskId>> pending_;  // per tenant, FIFO
};

}  // namespace wcs::sched
