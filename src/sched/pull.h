// The request loop the pull schedulers share (scheduler.h's taxonomy):
// workqueue, worker-centric and XSufferage decide only when a worker
// asks for work. A request is served from the bag of pending tasks at
// once, or the worker is parked on the starving list and fed, in ask
// order, on the next state change that refills the bag (an arrival, a
// crash re-home).
//
// Tenants key the bag. Each tenant of the run's schedule
// (engine().arrivals(); a closed run is one tenant) owns a part of it,
// and smooth weighted round robin (the nginx variant) picks the part
// that serves a request: every tenant with pending work earns its
// weight in credit, the richest (lowest id on ties) is served and pays
// back the total weight earned. For weights {3, 1, 2} with everyone
// eligible the sequence is exactly 0 2 0 1 2 0 repeating, and over any
// window each eligible tenant is served in proportion to its weight.
// With one tenant the pick is just "is the bag non-empty", so a closed
// run takes the same path as an open one.
//
// A subclass keeps the bag and answers for one tenant's part of it
// (pending_of, serve); the tenants share every other structure it has.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace wcs::sched {

class PullScheduler : public Scheduler {
 public:
  // Reads the tenants and their weights from engine.arrivals().
  void attach(GridEngine& engine) override;
  void on_worker_idle(WorkerId worker) final;
  // Unparks `worker`, returns its lost tasks to the bag (requeue) and
  // feeds starving workers.
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) final;
  [[nodiscard]] std::size_t pending_count() const final;
  // algorithm_name(), with "+wrr" when several tenants share the bag.
  [[nodiscard]] std::string name() const final;

  // Tenants of the attached run (1 for a closed run).
  [[nodiscard]] std::size_t num_tenants() const { return weights_.size(); }
  // Worker requests served per tenant — the fairness observable.
  [[nodiscard]] const std::vector<std::uint64_t>& served_counts() const {
    return served_;
  }

 protected:
  [[nodiscard]] virtual std::string algorithm_name() const = 0;
  // Unassigned tasks of `tenant`.
  [[nodiscard]] virtual std::size_t pending_of(std::uint32_t tenant) const = 0;
  // Assigns one of `tenant`'s pending tasks (there is one) to `worker`.
  virtual void serve(WorkerId worker, std::uint32_t tenant) = 0;
  // Returns each task of `lost` whose last instance died to the bag.
  virtual void requeue(WorkerId worker, const std::vector<TaskId>& lost) = 0;
  // Nothing is pending: may give `worker` other work (a replica) and
  // return true, else it starves.
  virtual bool serve_empty(WorkerId worker) {
    (void)worker;
    return false;
  }

  // The tenant `task` belongs to in the attached run.
  [[nodiscard]] std::uint32_t tenant_of(TaskId task) const {
    return schedule_ == nullptr ? 0 : schedule_->tenant(task);
  }
  // Serves starving workers, in ask order, while any tenant has pending
  // work. Dead workers are dropped after the pick that would have
  // served them.
  void feed_starving();

 private:
  // Smooth-WRR pick over tenants with pending work; -1 if none.
  [[nodiscard]] int pick_tenant();
  // serve(), counted and bracketed as one scheduler decision.
  void serve_request(WorkerId worker, int tenant);

  const workload::ArrivalSchedule* schedule_ = nullptr;
  std::vector<std::int64_t> weights_;  // per tenant
  std::vector<std::int64_t> credit_;   // smooth-WRR state
  std::vector<std::uint64_t> served_;
  std::deque<WorkerId> starving_;  // asked on an empty bag, in ask order
};

}  // namespace wcs::sched
