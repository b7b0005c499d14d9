// Workload explorer: generates each built-in workload family, prints its
// Table-2-style characteristics and reference CDF, and shows how sharing
// structure drives scheduler benefit (transfers under rest vs workqueue).
//
//   ./workload_explorer [num_tasks]
#include <iomanip>
#include <iostream>

#include "grid/experiment.h"
#include "workload/coadd.h"
#include "workload/generators.h"

using namespace wcs;

namespace {

void characterize(const workload::Job& job) {
  workload::JobStats s = workload::compute_stats(job);
  std::cout << "\n== " << job.name() << " ==\n";
  std::cout << "  tasks: " << s.num_tasks
            << "  distinct files: " << s.distinct_files
            << "  files/task: " << s.min_files_per_task << ".."
            << s.max_files_per_task << " (avg " << std::fixed
            << std::setprecision(1) << s.avg_files_per_task << ")\n";
  std::cout << "  sharing:";
  for (std::size_t k : {2u, 4u, 6u, 10u})
    std::cout << "  >=" << k << " refs: " << std::setprecision(0)
              << s.refs_cdf.fraction_at_least(k) * 100 << "%";
  std::cout << '\n';
}

void scheduling_value(const workload::Workload& wl) {
  grid::GridConfig c;
  c.tiers.num_sites = 4;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 3000;

  sched::SchedulerSpec rest;
  rest.algorithm = sched::Algorithm::kRest;
  sched::SchedulerSpec wq;
  wq.algorithm = sched::Algorithm::kWorkqueue;
  auto r_rest = grid::run_once(c, wl, rest, 1);
  auto r_wq = grid::run_once(c, wl, wq, 1);
  std::cout << "  transfers rest vs workqueue: "
            << r_rest.total_file_transfers() << " vs "
            << r_wq.total_file_transfers() << "  (locality value: "
            << std::fixed << std::setprecision(2)
            << static_cast<double>(r_wq.total_file_transfers()) /
                   static_cast<double>(r_rest.total_file_transfers())
            << "x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_tasks = argc > 1 ? std::stoul(argv[1]) : 400;

  workload::CoaddParams coadd;
  coadd.num_tasks = num_tasks;
  coadd.file_size = megabytes(5);
  const workload::Workload coadd_wl{workload::generate_coadd(coadd)};
  characterize(coadd_wl.job);
  scheduling_value(coadd_wl);

  workload::GeneratorParams gp;
  gp.num_tasks = num_tasks;
  gp.num_files = num_tasks * 5;
  gp.files_per_task = 25;
  gp.file_size = megabytes(5);

  const workload::Workload uniform{workload::generate_uniform(gp)};
  characterize(uniform.job);
  scheduling_value(uniform);

  const workload::Workload zipf{workload::generate_zipf(gp, 1.1)};
  characterize(zipf.job);
  scheduling_value(zipf);

  const workload::Workload partitioned{workload::generate_partitioned(gp)};
  characterize(partitioned.job);
  scheduling_value(partitioned);

  std::cout << "\nreading: spatial workloads (coadd) reward data-aware "
               "pull scheduling most;\nzipf popularity still helps; "
               "partitioned (zero sharing) makes all schedulers equal.\n";
  return 0;
}
