#include "grid/experiment.h"

#include <future>
#include <iomanip>
#include <sstream>

#include "common/thread_pool.h"

namespace wcs::grid {

namespace {

// Fans run_once() over the (spec, seed) cross product. The result vector
// is laid out spec-major (all seeds of spec 0, then spec 1, ...) and
// filled in submission order from futures, so the caller sees exactly
// the sequence the serial loop would produce regardless of how the pool
// interleaves execution.
std::vector<metrics::RunResult> run_all(
    const GridConfig& config, const workload::Workload& workload,
    std::span<const sched::SchedulerSpec> specs,
    std::span<const std::uint64_t> topology_seeds, std::size_t jobs) {
  const std::size_t total = specs.size() * topology_seeds.size();
  std::vector<metrics::RunResult> runs;
  runs.reserve(total);

  const std::size_t workers = std::min(std::max<std::size_t>(jobs, 1), total);
  if (workers <= 1) {
    for (const sched::SchedulerSpec& spec : specs)
      for (std::uint64_t seed : topology_seeds)
        runs.push_back(run_once(config, workload, spec, seed));
    return runs;
  }

  ThreadPool pool(workers);
  std::vector<std::future<metrics::RunResult>> futures;
  futures.reserve(total);
  for (const sched::SchedulerSpec& spec : specs)
    for (std::uint64_t seed : topology_seeds)
      futures.push_back(pool.submit([&config, &workload, &spec, seed] {
        return run_once(config, workload, spec, seed);
      }));
  for (std::future<metrics::RunResult>& f : futures) runs.push_back(f.get());
  return runs;
}

}  // namespace

std::vector<std::uint64_t> default_topology_seeds() {
  return {1, 2, 3, 4, 5};
}

metrics::RunResult run_once(const GridConfig& config,
                            const workload::Workload& workload,
                            const sched::SchedulerSpec& spec,
                            std::uint64_t topology_seed) {
  GridConfig c = config;
  c.tiers.seed = topology_seed;
  GridSimulation simulation(c, workload,
                            sched::make_scheduler(spec, &workload.arrivals));
  return simulation.run();
}

std::vector<metrics::RunResult> run_seeds(
    const GridConfig& config, const workload::Workload& workload,
    const sched::SchedulerSpec& spec,
    std::span<const std::uint64_t> topology_seeds, std::size_t jobs) {
  WCS_CHECK(!topology_seeds.empty());
  return run_all(config, workload, std::span(&spec, 1), topology_seeds, jobs);
}

metrics::AveragedResult run_averaged(
    const GridConfig& config, const workload::Workload& workload,
    const sched::SchedulerSpec& spec,
    std::span<const std::uint64_t> topology_seeds, std::size_t jobs) {
  return metrics::average(
      run_seeds(config, workload, spec, topology_seeds, jobs));
}

std::vector<metrics::AveragedResult> run_matrix(
    const GridConfig& config, const workload::Workload& workload,
    std::span<const sched::SchedulerSpec> specs,
    std::span<const std::uint64_t> topology_seeds,
    const std::function<void(const std::string&)>& progress,
    std::size_t jobs) {
  WCS_CHECK(!topology_seeds.empty());
  auto note = [&](const sched::SchedulerSpec& spec,
                  const metrics::AveragedResult& row) {
    if (!progress) return;
    std::ostringstream os;
    os << spec.name() << ": makespan "
       << std::fixed << std::setprecision(0) << row.makespan_minutes
       << " min, " << std::setprecision(1) << row.transfers_per_site
       << " transfers/site";
    progress(os.str());
  };

  std::vector<metrics::AveragedResult> rows;
  rows.reserve(specs.size());
  if (std::max<std::size_t>(jobs, 1) == 1) {
    // Serial path streams progress as each algorithm finishes.
    for (const sched::SchedulerSpec& spec : specs) {
      rows.push_back(run_averaged(config, workload, spec, topology_seeds));
      note(spec, rows.back());
    }
    return rows;
  }

  const std::vector<metrics::RunResult> runs =
      run_all(config, workload, specs, topology_seeds, jobs);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    rows.push_back(metrics::average(
        std::span(runs).subspan(s * topology_seeds.size(),
                                topology_seeds.size())));
    note(specs[s], rows.back());
  }
  return rows;
}

void print_table(std::ostream& out, const std::string& title,
                 std::span<const metrics::AveragedResult> rows) {
  out << '\n' << title << '\n' << std::string(title.size(), '-') << '\n';
  out << std::left << std::setw(22) << "algorithm" << std::right
      << std::setw(16) << "makespan (min)" << std::setw(18)
      << "transfers/site" << std::setw(16) << "transfers" << std::setw(12)
      << "GB moved" << std::setw(14) << "wait (h/site)" << std::setw(14)
      << "xfer (h/site)" << std::setw(11) << "replicas" << '\n';
  for (const metrics::AveragedResult& r : rows) {
    out << std::left << std::setw(22) << r.scheduler << std::right
        << std::fixed << std::setprecision(0) << std::setw(16)
        << r.makespan_minutes << std::setprecision(1) << std::setw(18)
        << r.transfers_per_site << std::setprecision(0) << std::setw(16)
        << r.total_file_transfers << std::setprecision(1) << std::setw(12)
        << r.total_gigabytes << std::setprecision(2) << std::setw(14)
        << r.waiting_hours_per_site << std::setw(14)
        << r.transfer_hours_per_site << std::setprecision(0) << std::setw(11)
        << r.replicas_started << '\n';
  }
  out.flush();
}

}  // namespace wcs::grid
