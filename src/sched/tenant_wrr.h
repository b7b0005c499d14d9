// Weighted-round-robin multi-tenant layer over a pull scheduler.
//
// One inner pull scheduler per tenant, each seeing only its tenant's
// tasks; when a worker goes idle, smooth weighted round robin over the
// tenants that currently have pending work decides which inner answers
// the request. Smooth WRR (the nginx variant): every eligible tenant
// earns its weight in credit, the richest tenant (lowest id on ties)
// is served and pays back the total eligible weight. The sequence is
// deterministic — for weights {3, 1, 2} with everyone eligible it is
// exactly 0 2 0 1 2 0 repeating — and over any window each eligible
// tenant is served proportionally to its weight.
//
// Two structural tricks make the decorator exact:
//
//   - Per-tenant engine proxies. Each inner scheduler attaches to a
//     TenantEngineProxy which delegates everything to the real engine
//     except (a) arrivals(): a per-tenant view of the schedule where
//     other tenants' tasks "never arrive" (kNeverArrives), so the inner
//     only ever considers its own tasks pending; and (b)
//     set_cache_listener(): the real engine allows ONE listener per
//     site, so the wrapper owns that slot and fans every event out to
//     all inner listeners in tenant order.
//
//   - The wrapper owns the starving list. Inner on_worker_idle is only
//     invoked when that tenant has pending work (it then always
//     assigns), so inner starving lists stay empty and a worker that
//     starves while ALL tenants are empty parks here, fed again on the
//     next arrival or crash re-home.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace wcs::sched {

class TenantWrrScheduler final : public Scheduler {
 public:
  // Builds one inner scheduler per tenant of `schedule` (copied).
  // `make_inner(tenant)` should derive any inner RNG seed from the
  // tenant index (substream_seed) so tenant streams stay independent.
  using InnerFactory =
      std::function<std::unique_ptr<Scheduler>(std::uint32_t tenant)>;
  TenantWrrScheduler(const workload::ArrivalSchedule& schedule,
                     const InnerFactory& make_inner);
  // Out of line: ~unique_ptr<TenantEngineProxy> needs the complete type.
  ~TenantWrrScheduler() override;

  void attach(GridEngine& engine) override;
  void on_job_submitted() override;
  void on_worker_idle(WorkerId worker) override;
  void on_task_completed(TaskId task, WorkerId worker) override;
  void on_worker_failed(WorkerId worker,
                        const std::vector<TaskId>& lost) override;
  void on_tasks_arrived(const std::vector<TaskId>& tasks) override;
  [[nodiscard]] bool supports_arrivals() const override { return true; }
  [[nodiscard]] std::size_t pending_count() const override;
  [[nodiscard]] std::string name() const override;
  void audit_collect(std::vector<audit::Violation>& out) const override;

  // --- Introspection (tests, metrics) ----------------------------------
  [[nodiscard]] std::size_t num_tenants() const { return inners_.size(); }
  [[nodiscard]] const Scheduler& tenant_scheduler(std::size_t t) const {
    return *inners_.at(t);
  }
  // Worker requests served per tenant — the fairness observable.
  [[nodiscard]] const std::vector<std::uint64_t>& served_counts() const {
    return served_;
  }

 private:
  class TenantEngineProxy;

  // Smooth-WRR pick over tenants with pending work; -1 if none.
  [[nodiscard]] int pick_tenant();
  void feed_starving();
  // Fills per_tenant_ with `tasks` by tenant, order preserved.
  void split_by_tenant(const std::vector<TaskId>& tasks);
  void subscribe(std::uint32_t tenant, SiteId site,
                 storage::CacheListener listener);

  workload::ArrivalSchedule schedule_;
  std::vector<workload::ArrivalSchedule> views_;  // per-tenant filtered
  std::vector<std::unique_ptr<TenantEngineProxy>> proxies_;
  std::vector<std::unique_ptr<Scheduler>> inners_;
  std::vector<std::int64_t> credit_;  // smooth-WRR state
  std::vector<std::uint64_t> served_;
  // Per-site inner cache listeners, in tenant registration order.
  std::vector<std::vector<storage::CacheListener>> fanout_;
  std::deque<WorkerId> starving_;
  // Per-tenant split of one arrival batch or one crash's lost tasks,
  // cleared per call so routing allocates nothing once warm.
  std::vector<std::vector<TaskId>> per_tenant_;
};

}  // namespace wcs::sched
