// Split times of one simulation run, for the cpu_s estimator.
//
// SplitClock decorates the run's sched::Scheduler: it forwards every
// member unchanged (the inner scheduler attaches to the real engine, so
// cache listeners and engine calls are not wrapped) and reads the process
// CPU clock at every `every`-th task completion. A run is deterministic
// for its inputs, so split i covers the same simulated work in every pass
// of a run, and passes can be compared split by split (main.cc).
#pragma once

#include <time.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

class SplitClock final : public wcs::sched::Scheduler {
 public:
  SplitClock(std::unique_ptr<wcs::sched::Scheduler> inner, std::size_t every,
             std::vector<double>& marks)
      : inner_(std::move(inner)), every_(every), marks_(marks) {}

  void attach(wcs::sched::GridEngine& engine) override {
    Scheduler::attach(engine);
    inner_->attach(engine);
  }
  void on_job_submitted() override { inner_->on_job_submitted(); }
  void on_tasks_arrived(const std::vector<wcs::TaskId>& tasks) override {
    inner_->on_tasks_arrived(tasks);
  }
  [[nodiscard]] bool supports_arrivals() const override {
    return inner_->supports_arrivals();
  }
  [[nodiscard]] std::size_t pending_count() const override {
    return inner_->pending_count();
  }
  void on_worker_idle(wcs::WorkerId worker) override {
    inner_->on_worker_idle(worker);
  }
  void on_task_completed(wcs::TaskId task, wcs::WorkerId worker) override {
    inner_->on_task_completed(task, worker);
    if (++completed_ % every_ == 0) marks_.push_back(process_cpu_s());
  }
  void on_worker_failed(wcs::WorkerId worker,
                        const std::vector<wcs::TaskId>& lost) override {
    inner_->on_worker_failed(worker, lost);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void audit_collect(std::vector<wcs::audit::Violation>& out) const override {
    inner_->audit_collect(out);
  }

 private:
  std::unique_ptr<wcs::sched::Scheduler> inner_;
  std::size_t every_;
  std::size_t completed_ = 0;
  std::vector<double>& marks_;  // CPU clock readings, appended
};

}  // namespace perfbench
