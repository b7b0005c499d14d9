#include "sched/pull.h"

#include <algorithm>

namespace wcs::sched {

void PullScheduler::attach(GridEngine& engine) {
  Scheduler::attach(engine);
  schedule_ = engine.arrivals();
  const std::size_t tenants =
      schedule_ == nullptr ? 1 : schedule_->num_tenants();
  weights_.assign(tenants, 1);
  if (schedule_ != nullptr && !schedule_->tenants.empty())
    for (std::size_t t = 0; t < tenants; ++t)
      weights_[t] = schedule_->tenants[t].weight;
  credit_.assign(tenants, 0);
  served_.assign(tenants, 0);
  starving_.clear();
}

int PullScheduler::pick_tenant() {
  std::int64_t total = 0;
  int pick = -1;
  for (std::size_t t = 0; t < weights_.size(); ++t) {
    if (pending_of(static_cast<std::uint32_t>(t)) == 0) continue;
    credit_[t] += weights_[t];
    total += weights_[t];
    if (pick < 0 || credit_[t] > credit_[static_cast<std::size_t>(pick)])
      pick = static_cast<int>(t);
  }
  if (pick >= 0) credit_[static_cast<std::size_t>(pick)] -= total;
  return pick;
}

void PullScheduler::serve_request(WorkerId worker, int tenant) {
  obs::ScopedPhase phase(profiler_, obs::Phase::kSchedulerDecision);
  ++served_[static_cast<std::size_t>(tenant)];
  serve(worker, static_cast<std::uint32_t>(tenant));
}

void PullScheduler::on_worker_idle(WorkerId worker) {
  std::erase(starving_, worker);
  const int tenant = pick_tenant();
  if (tenant >= 0) {
    serve_request(worker, tenant);
  } else if (!serve_empty(worker)) {
    // A crash elsewhere or an arrival may refill the bag; feed_starving()
    // then serves this worker.
    starving_.push_back(worker);
  }
}

void PullScheduler::feed_starving() {
  while (!starving_.empty()) {
    const int tenant = pick_tenant();
    if (tenant < 0) return;
    const WorkerId worker = starving_.front();
    starving_.pop_front();
    if (!engine().worker_alive(worker)) continue;
    serve_request(worker, tenant);
  }
}

void PullScheduler::on_worker_failed(WorkerId worker,
                                     const std::vector<TaskId>& lost) {
  std::erase(starving_, worker);
  requeue(worker, lost);
  feed_starving();
}

std::size_t PullScheduler::pending_count() const {
  std::size_t total = 0;
  for (std::size_t t = 0; t < weights_.size(); ++t)
    total += pending_of(static_cast<std::uint32_t>(t));
  return total;
}

std::string PullScheduler::name() const {
  return algorithm_name() + (num_tenants() > 1 ? "+wrr" : "");
}

}  // namespace wcs::sched
