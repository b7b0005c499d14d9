// Extending the library: plugging a user-defined scheduling metric into
// the worker-centric framework by subclassing sched::Scheduler directly.
//
// The custom policy here scores tasks by NET BYTES: bytes already cached
// minus a penalty on bytes still to transfer — a byte-aware blend of the
// paper's overlap and rest metrics that would matter if file sizes varied.
// It is compared against the built-in paper algorithms on the same
// platform.
//
//   ./custom_metric [num_tasks]
#include <iostream>
#include <limits>
#include <string>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"

using namespace wcs;

namespace {

// A pull scheduler with a custom CalculateWeight(): this is all it takes
// to prototype a new metric against the engine. (The built-in
// WorkerCentricScheduler keeps an incremental index for speed; a
// prototype can just scan the site cache.)
class NetBytesScheduler final : public sched::Scheduler {
 public:
  explicit NetBytesScheduler(double transfer_penalty)
      : penalty_(transfer_penalty) {}

  void on_job_submitted() override {
    pending_.clear();
    for (const auto& t : engine().job().tasks()) pending_.push_back(t.id);
  }

  void on_worker_idle(WorkerId worker) override {
    if (pending_.empty()) return;
    const storage::FileCache& cache =
        engine().site_cache(engine().site_of(worker));
    const workload::Job& job = engine().job();

    std::size_t best_index = 0;
    double best_score = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      double cached = 0, missing = 0;
      for (FileId f : job.task(pending_[i]).files) {
        double bytes = static_cast<double>(job.catalog.size(f));
        (cache.contains(f) ? cached : missing) += bytes;
      }
      double score = cached - penalty_ * missing;
      if (score > best_score) {
        best_score = score;
        best_index = i;
      }
    }
    TaskId chosen = pending_[best_index];
    pending_[best_index] = pending_.back();
    pending_.pop_back();
    engine().assign_task(chosen, worker);
  }

  void on_task_completed(TaskId, WorkerId) override {}

  [[nodiscard]] std::string name() const override {
    return "net-bytes(p=" + std::to_string(penalty_).substr(0, 3) + ")";
  }

 private:
  double penalty_;
  std::vector<TaskId> pending_;
};

metrics::RunResult run_with(const grid::GridConfig& config,
                            const workload::Workload& wl,
                            std::unique_ptr<sched::Scheduler> scheduler) {
  grid::GridSimulation sim(config, wl, std::move(scheduler));
  return sim.run();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_tasks = argc > 1 ? std::stoul(argv[1]) : 1000;

  workload::CoaddParams wp;
  wp.num_tasks = num_tasks;
  const workload::Workload wl{workload::generate_coadd(wp)};

  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.tiers.workers_per_site = 1;
  config.capacity_files = 6000;
  config.tiers.seed = 1;

  std::cout << "algorithm            makespan(min)  transfers/site\n";
  auto report = [](const metrics::RunResult& r) {
    printf("%-20s %13.0f %15.1f\n", r.scheduler.c_str(),
           r.makespan_minutes(), r.transfers_per_site());
  };

  for (double penalty : {0.0, 0.5, 1.0, 2.0})
    report(run_with(config, wl,
                    std::make_unique<NetBytesScheduler>(penalty)));

  for (const auto& spec :
       {sched::Algorithm::kOverlap, sched::Algorithm::kRest}) {
    sched::SchedulerSpec s;
    s.algorithm = spec;
    report(run_with(config, wl, sched::make_scheduler(s)));
  }

  std::cout << "\nnote: penalty 0 reduces to byte-weighted overlap; large\n"
               "penalties approach the rest metric's transfer-minimizing\n"
               "behaviour — reproducing the paper's finding that metrics\n"
               "which consider the files still to be transferred win.\n";
  return 0;
}
