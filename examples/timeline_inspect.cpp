// Timeline inspection: run one experiment with the event tracer on,
// rebuild every task's lifecycle from the trace, and print where task
// time actually goes — queue wait vs data wait vs execution — plus a
// per-worker utilization bar. This is the per-task view of the
// contention the paper aggregates in Table 3.
//
//   ./timeline_inspect [num_tasks] [algorithm] [workers_per_site]
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/trace.h"
#include "workload/coadd.h"

using namespace wcs;

int main(int argc, char** argv) {
  std::size_t num_tasks = argc > 1 ? std::stoul(argv[1]) : 600;
  std::string algorithm = argc > 2 ? argv[2] : "rest";
  int workers = argc > 3 ? std::stoi(argv[3]) : 4;

  workload::CoaddParams wp;
  wp.num_tasks = num_tasks;
  const workload::Workload wl{workload::generate_coadd(wp)};

  grid::GridConfig config;
  config.tiers.num_sites = 5;
  config.tiers.workers_per_site = workers;
  config.capacity_files = 6000;
  config.obs.trace = true;

  sched::SchedulerSpec spec;
  for (const auto& s : sched::SchedulerSpec::paper_algorithms())
    if (s.name() == algorithm) spec = s;
  if (spec.name() != algorithm && algorithm == "workqueue")
    spec.algorithm = sched::Algorithm::kWorkqueue;

  grid::GridSimulation sim(config, wl, sched::make_scheduler(spec));
  auto result = sim.run();
  const obs::LifecycleSummary lifecycle =
      obs::task_lifecycle(*sim.observability()->tracer());

  std::cout << "algorithm " << result.scheduler << ", " << num_tasks
            << " tasks, " << workers << " workers/site — makespan "
            << std::fixed << std::setprecision(0)
            << result.makespan_minutes() << " min\n\n";

  auto line = [](const char* label, const RunningStats& s) {
    std::cout << "  " << std::left << std::setw(12) << label << std::right
              << std::fixed << std::setprecision(1) << std::setw(10)
              << s.mean() / 60 << " min avg" << std::setw(10) << s.max() / 60
              << " min max\n";
  };
  std::cout << "per-task phases (" << lifecycle.exec.count() << " tasks):\n";
  line("queue wait", lifecycle.queue_wait);
  line("data wait", lifecycle.data_wait);
  line("execution", lifecycle.exec);

  // Worker busy fractions from exec/fetch spans.
  std::map<unsigned, double> busy;
  for (const obs::TaskPhases& phases : lifecycle.completed)
    busy[phases.worker.value()] += phases.total_s() - phases.queue_wait_s();
  std::cout << "\nworker utilization (fetch+exec time / makespan):\n";
  for (const auto& [worker, seconds] : busy) {
    double frac = seconds / result.makespan_s;
    std::cout << "  w" << std::setw(2) << worker << " ";
    int bars = static_cast<int>(frac * 40);
    for (int i = 0; i < bars; ++i) std::cout << '#';
    std::cout << ' ' << std::setprecision(0) << frac * 100 << "%\n";
  }

  std::cout << "\nhint: rerun with more workers per site to watch queue "
               "wait grow\n(the Table 3 effect), or with 'workqueue' to "
               "watch data wait explode.\n";
  return 0;
}
